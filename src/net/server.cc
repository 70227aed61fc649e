/**
 * @file
 * NetServer implementation: the epoll event loop, the per-shard
 * harvesters, and the wire <-> ServeResponse conversions.
 */

#include "net/server.hh"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/logging.hh"
#include "util/telemetry.hh"
#include "workloads/registry.hh"

namespace heteromap {
namespace net {

namespace {

int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Shed response of the given reason, ready for the wire. */
WireResponse
shedResponse(serve::ShedReason reason)
{
    WireResponse wire;
    wire.status = static_cast<uint8_t>(serve::ServeStatus::Shed);
    wire.shedReason = static_cast<uint8_t>(reason);
    return wire;
}

/** Error response carrying @p code and @p message. */
WireResponse
errorResponse(ErrorCode code, std::string_view message)
{
    WireResponse wire;
    wire.status = static_cast<uint8_t>(serve::ServeStatus::Error);
    wire.hasError = true;
    wire.errorCode = static_cast<uint8_t>(code);
    wire.errorMessage = message;
    return wire;
}

} // namespace

WireResponse
toWire(const serve::ServeResponse &response)
{
    WireResponse wire;
    wire.status = static_cast<uint8_t>(response.status);
    wire.shedReason = static_cast<uint8_t>(response.shedReason);
    wire.degradationLevel =
        static_cast<uint8_t>(response.degradationLevel);
    wire.servedByFallback = response.servedByFallback;
    wire.modelEpoch = response.modelEpoch;
    wire.accelerator =
        static_cast<uint8_t>(response.deployment.config.accelerator);
    wire.threads = response.deployment.config.activeThreads();
    wire.predictedSeconds = response.deployment.report.seconds;
    wire.overheadMs = response.deployment.overheadMs;
    wire.queueMs = response.queueMs;
    wire.serviceMs = response.serviceMs;
    wire.batchSize = static_cast<uint32_t>(response.batchSize);
    if (response.error) {
        wire.hasError = true;
        wire.errorCode = static_cast<uint8_t>(response.error->code);
        wire.errorMessage = response.error->message;
    }
    return wire;
}

serve::ServeResponse
fromWire(const WireResponse &wire)
{
    serve::ServeResponse response;
    response.status = static_cast<serve::ServeStatus>(wire.status);
    response.shedReason =
        static_cast<serve::ShedReason>(wire.shedReason);
    response.degradationLevel = wire.degradationLevel;
    response.servedByFallback = wire.servedByFallback;
    response.modelEpoch = wire.modelEpoch;
    response.deployment.config.accelerator =
        static_cast<AcceleratorKind>(wire.accelerator);
    if (response.deployment.config.accelerator ==
        AcceleratorKind::Gpu) {
        response.deployment.config.gpuGlobalThreads = wire.threads;
    } else {
        response.deployment.config.cores = wire.threads;
        response.deployment.config.threadsPerCore = 1;
    }
    response.deployment.report.seconds = wire.predictedSeconds;
    response.deployment.overheadMs = wire.overheadMs;
    response.queueMs = wire.queueMs;
    response.serviceMs = wire.serviceMs;
    response.batchSize = wire.batchSize;
    if (wire.hasError)
        response.error = serve::ServeError{
            static_cast<ErrorCode>(wire.errorCode),
            std::string(wire.errorMessage)};
    return response;
}

// --- CompletionQueue -------------------------------------------------

void
NetServer::CompletionQueue::push(InFlight in_flight)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(std::move(in_flight));
    }
    cv.notify_one();
}

bool
NetServer::CompletionQueue::pop(InFlight &out)
{
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return closed || !queue.empty(); });
    if (queue.empty())
        return false; // closed and drained
    out = std::move(queue.front());
    queue.pop_front();
    return true;
}

void
NetServer::CompletionQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        closed = true;
    }
    cv.notify_all();
}

// --- NetServer lifecycle ---------------------------------------------

NetServer::NetServer(serve::ModelRegistry &models,
                     ServerOptions options)
    : models_(models), options_(std::move(options)),
      router_(std::max<std::size_t>(1, options_.shards),
              options_.vnodes),
      admission_(options_.admission), metrics_([this] {
          const ServerStats now = stats();
          return telemetry::CounterReadings{
              {"serve.net.connections_dropped", now.connectionsDropped},
              {"serve.net.frames_received", now.framesReceived},
              {"serve.net.frames_sent", now.framesSent},
              {"serve.net.bad_frames", now.badFrames},
              {"serve.net.slow_reader_disconnects",
               now.slowReaderDisconnects},
          };
      })
{
    options_.shards = std::max<std::size_t>(1, options_.shards);

    for (std::size_t shard = 0; shard < options_.shards; ++shard) {
        serve::ServiceOptions shard_options = options_.shard;
        // The loop thread must never block inside submit — the shard
        // queues shed instead of applying backpressure.
        shard_options.admission = serve::AdmissionPolicy::Reject;
        services_.push_back(std::make_unique<serve::PredictionService>(
            models_, std::move(shard_options)));
        completions_.push_back(std::make_unique<CompletionQueue>());
    }

    for (auto &workload : allWorkloads()) {
        std::string name = workload->name();
        workloads_.emplace(
            std::move(name),
            std::shared_ptr<const Workload>(std::move(workload)));
    }
}

NetServer::~NetServer() { stop(); }

void
NetServer::registerGraph(const std::string &name,
                         std::shared_ptr<const Graph> graph)
{
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    catalog_[name] = std::move(graph);
}

Result<Endpoint>
NetServer::start()
{
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (running_.load())
        return makeError(ErrorCode::Unavailable, 0,
                         "server already running");

    auto listener = listenOn(options_.endpoint);
    if (!listener.ok())
        return listener.error();
    listen_fd_ = std::move(listener).value();

    auto bound = localEndpoint(listen_fd_.get(), options_.endpoint);
    if (!bound.ok())
        return bound.error();

    const int wake = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake < 0)
        return makeError(ErrorCode::Io, 0, "eventfd: ",
                         std::strerror(errno));
    wake_fd_ = OwnedFd(wake);

    const int ep = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep < 0)
        return makeError(ErrorCode::Io, 0, "epoll_create1: ",
                         std::strerror(errno));
    epoll_fd_ = OwnedFd(ep);

    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = listen_fd_.get();
    ::epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd_.get(), &event);
    event.data.fd = wake_fd_.get();
    ::epoll_ctl(ep, EPOLL_CTL_ADD, wake_fd_.get(), &event);

    stopping_.store(false);
    running_.store(true);
    for (std::size_t shard = 0; shard < services_.size(); ++shard)
        harvesters_.emplace_back(
            [this, shard] { harvesterThread(shard); });
    loop_ = std::thread([this] { loopThread(); });

    inform("net: serving on ", bound.value().toString(), " with ",
         services_.size(), " shard(s)");
    return bound.value();
}

void
NetServer::stop()
{
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!running_.load())
        return;
    stopping_.store(true);
    uint64_t one = 1;
    [[maybe_unused]] ssize_t wrote =
        ::write(wake_fd_.get(), &one, sizeof one);
    if (loop_.joinable())
        loop_.join();

    // Harvesters drain their remaining futures (the shards are still
    // serving), then exit; their posts land in a dead outbox.
    for (auto &completion : completions_)
        completion->close();
    for (auto &harvester : harvesters_)
        if (harvester.joinable())
            harvester.join();
    harvesters_.clear();

    for (auto &service : services_)
        service->close();

    connections_.clear();
    conn_fd_by_id_.clear();
    {
        std::lock_guard<std::mutex> outbox_lock(outbox_mutex_);
        outbox_.clear();
    }
    listen_fd_.reset();
    wake_fd_.reset();
    epoll_fd_.reset();
    running_.store(false);
    HM_GAUGE_SET("serve.net.connections", 0.0);
}

// --- Public accessors ------------------------------------------------

std::size_t
NetServer::shardForGraph(const Graph &graph) const
{
    return router_.route(mixFingerprint(graph.fingerprint()));
}

serve::PredictionService &
NetServer::shard(std::size_t index)
{
    HM_ASSERT(index < services_.size(), "shard index ", index,
              " out of range (", services_.size(), " shards)");
    return *services_[index];
}

std::vector<serve::ServiceStatus>
NetServer::shardStatuses() const
{
    std::vector<serve::ServiceStatus> statuses;
    statuses.reserve(services_.size());
    for (const auto &service : services_)
        statuses.push_back(service->statusz());
    return statuses;
}

std::string
NetServer::statuszJson() const
{
    return serve::fleetStatuszJson(shardStatuses());
}

ServerStats
NetServer::stats() const
{
    ServerStats stats;
    stats.connectionsAccepted = connections_accepted_.load();
    stats.connectionsDropped = connections_dropped_.load();
    stats.slowReaderDisconnects = slow_reader_disconnects_.load();
    stats.framesReceived = frames_received_.load();
    stats.framesSent = frames_sent_.load();
    stats.badFrames = bad_frames_.load();
    stats.requestsSubmitted = requests_submitted_.load();
    stats.unknownGraph = unknown_graph_.load();
    stats.unknownWorkload = unknown_workload_.load();
    return stats;
}

// --- Event loop ------------------------------------------------------

void
NetServer::loopThread()
{
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];

    while (!stopping_.load(std::memory_order_acquire)) {
        const int ready =
            ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("net: epoll_wait failed: ", std::strerror(errno));
            break;
        }
        for (int i = 0; i < ready; ++i) {
            const int fd = events[i].data.fd;
            if (fd == listen_fd_.get()) {
                acceptReady();
                continue;
            }
            if (fd == wake_fd_.get()) {
                uint64_t drained = 0;
                while (::read(wake_fd_.get(), &drained,
                              sizeof drained) > 0) {
                }
                drainOutbox();
                continue;
            }
            auto it = connections_.find(fd);
            if (it == connections_.end())
                continue; // closed earlier in this batch
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                closeConnection(fd);
                continue;
            }
            if (events[i].events & EPOLLIN)
                readReady(it->second);
            // Re-check: readReady may have closed the connection.
            it = connections_.find(fd);
            if (it != connections_.end() &&
                (events[i].events & EPOLLOUT)) {
                writeReady(it->second);
                if (it->second.dead)
                    closeConnection(fd);
            }
        }
        // Posts that raced the wakeup read are picked up here.
        drainOutbox();
    }

    // Loop exit: close every connection (pending responses from the
    // harvesters are dropped on the floor; clients observe a reset,
    // which their transport-error path turns into Unavailable).
    connections_.clear();
    conn_fd_by_id_.clear();
    HM_GAUGE_SET("serve.net.connections", 0.0);
}

void
NetServer::acceptReady()
{
    for (;;) {
        const int fd =
            ::accept4(listen_fd_.get(), nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            warn("net: accept failed: ", std::strerror(errno));
            return;
        }
        if (connections_.size() >= options_.maxConnections) {
            ::close(fd);
            connections_dropped_.fetch_add(1);
            continue;
        }
        if (options_.endpoint.family == Endpoint::Family::Tcp)
            setTcpNoDelay(fd);
        Connection conn;
        conn.fd = OwnedFd(fd);
        conn.id = next_conn_id_++;
        conn_fd_by_id_[conn.id] = fd;
        connections_.emplace(fd, std::move(conn));
        connections_accepted_.fetch_add(1);

        epoll_event event{};
        event.events = EPOLLIN;
        event.data.fd = fd;
        ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &event);
        HM_GAUGE_SET("serve.net.connections",
                     static_cast<double>(connections_.size()));
    }
}

void
NetServer::readReady(Connection &conn)
{
    char chunk[16 * 1024];
    for (;;) {
        const ssize_t got =
            ::recv(conn.fd.get(), chunk, sizeof chunk, 0);
        if (got > 0) {
            conn.rbuf.append(chunk, static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0) { // peer closed
            closeConnection(conn.fd.get());
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConnection(conn.fd.get());
        return;
    }
    if (!parseFrames(conn) || conn.dead)
        closeConnection(conn.fd.get());
}

bool
NetServer::parseFrames(Connection &conn)
{
    while (conn.rbuf.size() - conn.rpos >= kHeaderBytes) {
        const std::string_view buffered(conn.rbuf.data() + conn.rpos,
                                        conn.rbuf.size() - conn.rpos);
        auto header = decodeHeader(buffered);
        if (!header.ok()) {
            // Framing is lost: nothing downstream of a bad header can
            // be trusted, so the connection goes away (recoverably).
            bad_frames_.fetch_add(1);
            warn("net: closing connection on bad frame: ",
                 header.error().message);
            return false;
        }
        const std::size_t frame_bytes =
            kHeaderBytes + header.value().payloadLen;
        if (buffered.size() < frame_bytes)
            break; // wait for the rest of the payload
        HM_COUNTER_ADD("serve.net.frame_bytes_received", frame_bytes);
        frames_received_.fetch_add(1);
        const std::string_view payload =
            buffered.substr(kHeaderBytes, header.value().payloadLen);
        if (!dispatchFrame(conn, header.value(), payload))
            return false;
        conn.rpos += frame_bytes;
        if (conn.dead) // a send inside dispatch failed the connection
            return false;
    }
    if (conn.rpos > 0) {
        conn.rbuf.erase(0, conn.rpos);
        conn.rpos = 0;
    }
    return true;
}

bool
NetServer::dispatchFrame(Connection &conn, const FrameHeader &header,
                         std::string_view payload)
{
    switch (header.type) {
      case FrameType::PredictRequest:
        handlePredict(conn, header, payload);
        return true;
      case FrameType::Ping: {
        std::string out;
        encodePong(header.requestId, out);
        sendOnConn(conn, std::move(out));
        return true;
      }
      case FrameType::Statusz: {
        std::string out;
        encodeStatuszResponse(header.requestId, statuszJson(), out);
        sendOnConn(conn, std::move(out));
        return true;
      }
      case FrameType::PredictResponse:
      case FrameType::Pong:
      case FrameType::StatuszResponse:
        // Server-to-client frames arriving at the server: a confused
        // peer. Count and drop the frame; framing is still intact.
        bad_frames_.fetch_add(1);
        return true;
    }
    return true; // decodeHeader rejected unknown types already
}

void
NetServer::handlePredict(Connection &conn, const FrameHeader &header,
                         std::string_view payload)
{
    const int64_t received_ns = monotonicNs();

    auto decoded = decodeRequest(payload);
    if (!decoded.ok()) {
        // Malformed payload under a well-formed header: framing is
        // intact, so answer the request and keep the connection.
        bad_frames_.fetch_add(1);
        respondNow(conn, header.requestId,
                   errorResponse(decoded.error().code,
                                 decoded.error().message));
        return;
    }
    const WireRequest &wire = decoded.value();
    // Lane and supervision ride in the header flags, not the payload.
    const bool supervised = (header.flags & kFlagSupervised) != 0;
    const bool priority = (header.flags & kFlagPriority) != 0;

    const Lane lane = priority ? Lane::Priority : Lane::Normal;
    const AdmissionDecision decision =
        admission_.admit(wire.clientId, lane, received_ns);
    if (decision == AdmissionDecision::QuotaRejected) {
        respondNow(conn, header.requestId,
                   shedResponse(serve::ShedReason::QuotaExceeded));
        return;
    }
    if (decision == AdmissionDecision::LaneShed) {
        respondNow(conn, header.requestId,
                   shedResponse(serve::ShedReason::QueueFull));
        return;
    }

    serve::ServeRequest request;
    {
        std::lock_guard<std::mutex> lock(catalog_mutex_);
        auto graph_it = catalog_.find(std::string(wire.graph));
        if (graph_it == catalog_.end()) {
            unknown_graph_.fetch_add(1);
            respondNow(
                conn, header.requestId,
                errorResponse(ErrorCode::OutOfRange,
                              "unknown graph in catalogue"));
            return;
        }
        auto workload_it =
            workloads_.find(std::string(wire.workload));
        if (workload_it == workloads_.end()) {
            unknown_workload_.fetch_add(1);
            respondNow(conn, header.requestId,
                       errorResponse(ErrorCode::OutOfRange,
                                     "unknown workload"));
            return;
        }
        request.graph = graph_it->second;
        request.inputName = graph_it->first;
        request.workload = workload_it->second;
    }
    request.supervised = supervised;
    request.deadlineMs = wire.deadlineMs;
    if (wire.sweeps > 0)
        request.measure.sweeps = wire.sweeps;
    if (wire.seed > 0)
        request.measure.seed = wire.seed;

    const std::size_t shard = shardForGraph(*request.graph);
    InFlight in_flight;
    in_flight.connId = conn.id;
    in_flight.requestId = header.requestId;
    in_flight.receivedNs = received_ns;
    in_flight.future = services_[shard]->submit(std::move(request));
    completions_[shard]->push(std::move(in_flight));
    requests_submitted_.fetch_add(1);
}

// --- Writes ----------------------------------------------------------

void
NetServer::sendOnConn(Connection &conn, std::string bytes)
{
    if (conn.dead)
        return; // going away; the bytes would never be delivered
    // One sendOnConn call is one frame: remember where it ends in
    // the queued-byte stream so writeReady can count framesSent only
    // once the frame's last byte has left the write buffer.
    conn.wqueued += bytes.size();
    conn.frameEnds.push_back(conn.wqueued);
    if (conn.wbuf.empty()) {
        conn.wbuf = std::move(bytes);
        conn.wpos = 0;
    } else {
        conn.wbuf.append(bytes);
    }
    writeReady(conn);
}

void
NetServer::writeReady(Connection &conn)
{
    if (conn.dead)
        return;
    while (conn.wpos < conn.wbuf.size()) {
        const ssize_t wrote =
            ::send(conn.fd.get(), conn.wbuf.data() + conn.wpos,
                   conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
        if (wrote > 0) {
            conn.wpos += static_cast<std::size_t>(wrote);
            conn.wflushed += static_cast<uint64_t>(wrote);
            while (!conn.frameEnds.empty() &&
                   conn.frameEnds.front() <= conn.wflushed) {
                conn.frameEnds.pop_front();
                frames_sent_.fetch_add(1);
            }
            continue;
        }
        if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (wrote < 0 && errno == EINTR)
            continue;
        // EPIPE/ECONNRESET and friends. Callers up the stack (parse,
        // dispatch, drainOutbox) may still hold this Connection&, so
        // only mark it; the event loop reaps it at top level.
        conn.dead = true;
        return;
    }
    if (conn.wpos >= conn.wbuf.size()) {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if (conn.wpos > 0 && conn.wpos > conn.wbuf.size() / 2) {
        conn.wbuf.erase(0, conn.wpos);
        conn.wpos = 0;
    }
    if (conn.wbuf.size() - conn.wpos > options_.maxWriteBacklogBytes) {
        // A reader this slow pins server memory; cut it loose (the
        // buffered-but-undelivered frames are never counted as sent).
        slow_reader_disconnects_.fetch_add(1);
        conn.dead = true;
        return;
    }
    const bool want_write = !conn.wbuf.empty();
    if (want_write != conn.wantWrite) {
        conn.wantWrite = want_write;
        updateEpoll(conn);
    }
}

void
NetServer::updateEpoll(Connection &conn)
{
    epoll_event event{};
    event.events = EPOLLIN | (conn.wantWrite ? EPOLLOUT : 0u);
    event.data.fd = conn.fd.get();
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd.get(),
                &event);
}

void
NetServer::respondNow(Connection &conn, uint64_t request_id,
                      const WireResponse &response)
{
    std::string out;
    encodeResponse(request_id, response, out);
    sendOnConn(conn, std::move(out));
}

void
NetServer::closeConnection(int fd)
{
    auto it = connections_.find(fd);
    if (it == connections_.end())
        return;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
    conn_fd_by_id_.erase(it->second.id);
    connections_.erase(it); // OwnedFd closes the socket
    HM_GAUGE_SET("serve.net.connections",
                 static_cast<double>(connections_.size()));
}

// --- Harvesters ------------------------------------------------------

void
NetServer::harvesterThread(std::size_t shard_index)
{
    CompletionQueue &completions = *completions_[shard_index];
    InFlight in_flight;
    while (completions.pop(in_flight)) {
        serve::ServeResponse response = in_flight.future.get();
        const double wire_ms =
            static_cast<double>(monotonicNs() -
                                in_flight.receivedNs) *
            1e-6;
        HM_HISTOGRAM_RECORD_MS("serve.net.wire_ms", wire_ms);

        std::string out;
        encodeResponse(in_flight.requestId, toWire(response), out);
        postResponse(in_flight.connId, std::move(out));
    }
}

void
NetServer::postResponse(uint64_t conn_id, std::string bytes)
{
    {
        std::lock_guard<std::mutex> lock(outbox_mutex_);
        outbox_.emplace_back(conn_id, std::move(bytes));
    }
    uint64_t one = 1;
    [[maybe_unused]] ssize_t wrote =
        ::write(wake_fd_.get(), &one, sizeof one);
}

void
NetServer::drainOutbox()
{
    std::vector<std::pair<uint64_t, std::string>> drained;
    {
        std::lock_guard<std::mutex> lock(outbox_mutex_);
        drained.swap(outbox_);
    }
    for (auto &[conn_id, bytes] : drained) {
        auto id_it = conn_fd_by_id_.find(conn_id);
        if (id_it == conn_fd_by_id_.end())
            continue; // connection died while the shard worked
        const int fd = id_it->second;
        auto conn_it = connections_.find(fd);
        if (conn_it == connections_.end())
            continue;
        sendOnConn(conn_it->second, std::move(bytes));
        if (conn_it->second.dead)
            closeConnection(fd);
    }
}

} // namespace net
} // namespace heteromap
