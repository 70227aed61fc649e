#include "driver.hh"

#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <limits>

#include "serve/request_queue.hh"

namespace servebench {

namespace net = heteromap::net;
using heteromap::serve::ServeStatus;

namespace {

/** epoll data tag of the timerfd (connections use their index). */
constexpr uint64_t kTimerTag = ~0ull;

/** Unanswered requests count as transport failures this long after
 *  the last send. */
constexpr double kDrainSeconds = 5.0;

/** A traced run records the spans of every this-many-th request:
 *  enough for percentiles, small enough to write and validate. */
constexpr uint64_t kTraceEvery = 8;

/** Outcome slots reserved per second of a closed-loop window. */
constexpr double kClosedReserve = 30000.0;

} // namespace

int64_t
nowNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

bool
Outcome::ok() const
{
    return answered &&
           response.status == static_cast<uint8_t>(ServeStatus::Ok);
}

double
Outcome::latencyMs() const
{
    if (!ok())
        return std::numeric_limits<double>::infinity();
    return static_cast<double>(recvNs - dueNs) * 1e-6;
}

std::string
SpanLog::chromeJson() const
{
    std::string out = "{\"traceEvents\":[";
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::snprintf(line, sizeof(line),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"id\":%llu}}",
                      i == 0 ? "" : ",", span.name,
                      static_cast<double>(span.startNs) * 1e-3,
                      static_cast<double>(span.durNs) * 1e-3, span.tid,
                      static_cast<unsigned long long>(span.id));
        out += line;
    }
    out += "\n]}\n";
    return out;
}

Tally
tally(const std::vector<Outcome> &outcomes)
{
    Tally counts;
    counts.attempted = outcomes.size();
    for (const Outcome &outcome : outcomes) {
        if (!outcome.answered)
            ++counts.transport;
        else if (outcome.ok())
            ++counts.ok;
        else if (outcome.response.status ==
                 static_cast<uint8_t>(ServeStatus::Shed))
            ++counts.shed;
        else
            ++counts.errors;
    }
    return counts;
}

Driver::Driver(const net::Endpoint &endpoint, std::size_t connections,
               const std::vector<std::string> &graph_names)
    : graph_names_(graph_names)
{
    // Wake on the open-loop timer when it is due, not up to the
    // default 50 us slack later.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    epoll_fd_ = net::OwnedFd(::epoll_create1(EPOLL_CLOEXEC));
    timer_fd_ = net::OwnedFd(
        ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
    if (!epoll_fd_.valid() || !timer_fd_.valid())
        return;
    epoll_event timer_event{};
    timer_event.events = EPOLLIN;
    timer_event.data.u64 = kTimerTag;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, timer_fd_.get(),
                &timer_event);

    conns_.resize(connections);
    for (uint32_t i = 0; i < connections; ++i) {
        auto fd = net::connectTo(endpoint);
        if (!fd.ok() || !net::setNonBlocking(fd.value().get()))
            return;
        conns_[i].fd = std::move(fd).value();
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.u64 = i;
        if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD,
                        conns_[i].fd.get(), &event) != 0)
            return;
    }
    connected_ = true;
}

Driver::~Driver() = default;

void
Driver::updateEpoll(uint32_t index)
{
    Conn &conn = conns_[index];
    const bool want = conn.wpos < conn.wbuf.size();
    if (want == conn.wantWrite)
        return;
    conn.wantWrite = want;
    epoll_event event{};
    event.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    event.data.u64 = index;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &event);
}

void
Driver::flush(uint32_t index)
{
    Conn &conn = conns_[index];
    while (!conn.dead && conn.wpos < conn.wbuf.size()) {
        const ssize_t wrote =
            ::send(conn.fd.get(), conn.wbuf.data() + conn.wpos,
                   conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
        if (wrote > 0) {
            conn.wpos += static_cast<std::size_t>(wrote);
        } else if (wrote < 0 && errno == EINTR) {
            continue;
        } else if (wrote < 0 &&
                   (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else {
            conn.dead = true;
        }
    }
    if (conn.wpos == conn.wbuf.size()) {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    if (!conn.dead)
        updateEpoll(index);
}

void
Driver::armTimer(int64_t at_ns)
{
    itimerspec spec{};
    spec.it_value.tv_sec = at_ns / 1000000000;
    spec.it_value.tv_nsec = at_ns % 1000000000;
    ::timerfd_settime(timer_fd_.get(), TFD_TIMER_ABSTIME, &spec,
                      nullptr);
}

RunResult
Driver::run(const std::vector<Request> &sequence, const LoopSpec &spec,
            SpanLog *trace)
{
    RunResult result;
    if (!connected_ || sequence.empty())
        return result;

    const std::size_t n_conns = conns_.size();
    const uint64_t base_id = next_id_;
    result.firstId = base_id;
    // Ids are dense per run, so an id's outcome slot is id - base_id.
    // Reserved up front so the timed window never reallocates.
    result.outcomes.reserve(
        spec.seconds > 0.0
            ? static_cast<std::size_t>(spec.seconds * kClosedReserve)
            : sequence.size());

    const int64_t start = nowNs();
    const bool time_bounded = !spec.openLoop && spec.seconds > 0.0;
    const int64_t stop_at =
        time_bounded ? start + static_cast<int64_t>(spec.seconds * 1e9)
                     : std::numeric_limits<int64_t>::max();
    std::size_t next = 0;    // next sequence position to send
    std::size_t in_flight = 0;
    bool sending = true;
    int64_t drain_deadline = std::numeric_limits<int64_t>::max();

    auto traced = [&](uint64_t id) {
        return trace != nullptr && id % kTraceEvery == 0;
    };

    auto send_next = [&](uint32_t conn_index, int64_t due_ns) {
        Conn &conn = conns_[conn_index];
        const Request &request = sequence[next % sequence.size()];
        const uint64_t id = next_id_++;
        Outcome outcome;
        outcome.index = next;
        outcome.conn = conn_index;
        outcome.sendNs = nowNs();
        outcome.dueNs = spec.openLoop ? due_ns : outcome.sendNs;
        if (due_ns > 0) {
            result.lagMs.push_back(
                static_cast<double>(outcome.sendNs - due_ns) * 1e-6);
        }
        net::encodeRequest(id, toWire(request, graph_names_), conn.wbuf);
        if (traced(id))
            outcome.encodeNs = nowNs() - outcome.sendNs;
        result.outcomes.push_back(outcome);
        ++next;
        ++in_flight;
        result.maxInFlight = std::max(result.maxInFlight, in_flight);
        ++conn.inFlight;
        ++frames_sent_;
        flush(conn_index);
    };

    // A dead connection leaves epoll, and its in-flight requests stay
    // unanswered: transport failures.
    auto reap_dead = [&] {
        bool all_dead = true;
        for (Conn &conn : conns_) {
            if (conn.dead && conn.fd.valid()) {
                ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL,
                            conn.fd.get(), nullptr);
                conn.fd.reset();
                in_flight -= conn.inFlight;
                conn.inFlight = 0;
            }
            all_dead = all_dead && conn.dead;
        }
        return all_dead;
    };

    auto on_response = [&](uint32_t conn_index, uint64_t id,
                           const net::WireResponse &response,
                           int64_t recv_ns, int64_t decode_start) {
        if (id < base_id || id - base_id >= result.outcomes.size()) {
            ++result.protocolErrors;
            return;
        }
        Outcome &outcome = result.outcomes[id - base_id];
        if (outcome.answered || outcome.conn != conn_index) {
            ++result.protocolErrors;
            return;
        }
        outcome.answered = true;
        outcome.recvNs = recv_ns;
        outcome.response = response;
        outcome.response.errorMessage = {};
        if (traced(id)) {
            // The server-reported intervals go right after the encode:
            // the response carries their lengths, not their starts.
            const int64_t decoded = nowNs();
            const int64_t encoded = outcome.sendNs + outcome.encodeNs;
            const auto queue_ns =
                static_cast<int64_t>(response.queueMs * 1e6);
            trace->push("request", id, outcome.sendNs,
                        decoded - outcome.sendNs, conn_index);
            trace->push("client.encode", id, outcome.sendNs,
                        outcome.encodeNs, conn_index);
            trace->push("server.queue", id, encoded, queue_ns, conn_index);
            trace->push("server.service", id, encoded + queue_ns,
                        static_cast<int64_t>(response.serviceMs * 1e6),
                        conn_index);
            trace->push("client.decode", id, decode_start,
                        decoded - decode_start, conn_index);
        }
        Conn &conn = conns_[conn_index];
        --conn.inFlight;
        --in_flight;
    };

    auto read_ready = [&](uint32_t conn_index) {
        Conn &conn = conns_[conn_index];
        char chunk[64 * 1024];
        for (;;) {
            const ssize_t got = ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
            if (got > 0) {
                conn.rbuf.append(chunk, static_cast<std::size_t>(got));
                if (static_cast<std::size_t>(got) < sizeof(chunk))
                    break;
                continue;
            }
            if (got < 0 && errno == EINTR)
                continue;
            if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            conn.dead = true; // EOF or reset
            return;
        }
        const int64_t recv_ns = nowNs();
        while (conn.rbuf.size() - conn.rpos >= net::kHeaderBytes) {
            const int64_t decode_start =
                trace != nullptr ? nowNs() : recv_ns;
            const std::string_view rest(conn.rbuf.data() + conn.rpos,
                                        conn.rbuf.size() - conn.rpos);
            auto header = net::decodeHeader(rest);
            if (!header.ok() ||
                header.value().type != net::FrameType::PredictResponse) {
                ++result.protocolErrors;
                conn.dead = true; // framing lost
                return;
            }
            const std::size_t frame =
                net::kHeaderBytes + header.value().payloadLen;
            if (rest.size() < frame)
                break;
            auto response = net::decodeResponse(
                rest.substr(net::kHeaderBytes, header.value().payloadLen));
            conn.rpos += frame;
            if (!response.ok()) {
                ++result.protocolErrors;
                continue;
            }
            on_response(conn_index, header.value().requestId,
                        response.value(), recv_ns, decode_start);
            // Closed loop: the freed slot's next request is due now.
            if (!spec.openLoop && sending && !conn.dead &&
                (time_bounded || next < sequence.size()))
                send_next(conn_index, recv_ns);
        }
        if (conn.rpos == conn.rbuf.size()) {
            conn.rbuf.clear();
            conn.rpos = 0;
        }
    };

    if (!spec.openLoop) {
        for (std::size_t k = 0; k < spec.outstanding; ++k) {
            if (!time_bounded && next >= sequence.size())
                break;
            send_next(static_cast<uint32_t>(k % n_conns), 0);
        }
    }

    epoll_event events[16];
    for (;;) {
        const int64_t now = nowNs();
        if (spec.openLoop) {
            const auto &due = *spec.dueNs;
            while (next < due.size() && start + due[next] <= now) {
                const int64_t due_ns = start + due[next];
                const auto conn_index =
                    static_cast<uint32_t>(next % n_conns);
                if (conns_[conn_index].dead) {
                    // Counted as attempted and never answered.
                    Outcome lost;
                    lost.index = next;
                    lost.conn = conn_index;
                    lost.dueNs = lost.sendNs = due_ns;
                    result.outcomes.push_back(lost);
                    ++next_id_;
                    ++next;
                    continue;
                }
                send_next(conn_index, due_ns);
            }
            if (next >= due.size())
                sending = false;
            else
                armTimer(start + due[next]);
        } else if ((time_bounded && now >= stop_at) ||
                   (!time_bounded && next >= sequence.size())) {
            sending = false;
        }
        if (!sending) {
            if (in_flight == 0)
                break;
            if (drain_deadline == std::numeric_limits<int64_t>::max()) {
                drain_deadline =
                    now + static_cast<int64_t>(kDrainSeconds * 1e9);
            }
            if (now >= drain_deadline)
                break;
        }

        int timeout_ms = -1;
        if (!sending)
            timeout_ms = static_cast<int>((drain_deadline - now) / 1000000 + 1);
        else if (time_bounded)
            timeout_ms = static_cast<int>((stop_at - now) / 1000000 + 1);
        const int ready =
            ::epoll_wait(epoll_fd_.get(), events, 16, timeout_ms);
        if (ready < 0 && errno != EINTR)
            break;
        for (int e = 0; e < ready; ++e) {
            if (events[e].data.u64 == kTimerTag) {
                uint64_t expirations = 0;
                [[maybe_unused]] ssize_t got =
                    ::read(timer_fd_.get(), &expirations,
                           sizeof(expirations));
                continue;
            }
            const auto conn_index =
                static_cast<uint32_t>(events[e].data.u64);
            Conn &conn = conns_[conn_index];
            if (conn.dead)
                continue;
            if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP))
                read_ready(conn_index);
            if (!conn.dead && (events[e].events & EPOLLOUT))
                flush(conn_index);
        }
        if (reap_dead())
            break;
    }
    return result;
}

} // namespace servebench
