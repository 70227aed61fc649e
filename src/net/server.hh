/**
 * @file
 * NetServer: the network-facing, sharded serving tier. One thin
 * binary-RPC front-end (net/wire.hh frames over loopback TCP or a
 * Unix socket) fronting N in-process PredictionService shards.
 *
 * Threading model:
 *
 *  - one event-loop thread runs a level-triggered, non-blocking
 *    epoll over the listen socket, every connection, and a wakeup
 *    eventfd. It accepts, reads, parses frames zero-copy out of the
 *    per-connection read buffer, runs admission, resolves the graph
 *    catalogue, routes to a shard, and submits — it never blocks on
 *    prediction work (shard queues run Reject admission, so submit
 *    is always immediate);
 *  - one harvester thread per shard turns the shard's response
 *    futures (FIFO per shard, matching the shard queue's order)
 *    into encoded response frames and posts them to the loop
 *    through a mutex-guarded outbox + eventfd wakeup;
 *  - writes go through per-connection write buffers drained by the
 *    loop (EPOLLOUT armed only while a buffer is non-empty). A
 *    connection whose buffered backlog exceeds
 *    maxWriteBacklogBytes is a slow reader and is disconnected —
 *    one stalled client cannot pin server memory.
 *
 * Shard routing is a consistent-hash ring (net/shard_router.hh)
 * keyed by the graph's structural fingerprint, so a given graph
 * always lands on the shard whose GraphStatsCache and micro-batcher
 * already know it, and shard-count changes move only ~1/(N+1) of
 * the keys. Requests reference graphs by catalogue name; routing
 * reads the fingerprint each Graph computed when it was built.
 *
 * Multi-tenant admission (net/admission.hh) runs before any work:
 * per-client token buckets plus two priority lanes. Quota rejections
 * answer with ShedReason::QuotaExceeded without touching a shard.
 *
 * Telemetry: serve.net.accepted.* / .quota_rejected.* / .shed.*
 * lane counters (admission), serve.net.connections gauge,
 * serve.net.frames_received / .frames_sent / .bad_frames /
 * .slow_reader_disconnects / .connections_dropped counters (read
 * from the server's own ServerStats counters at snapshot time), the
 * serve.net.frame_bytes_received
 * counter (total bytes of complete received frames, headers
 * included), and the serve.net.wire_ms histogram (receive-to-encoded
 * on-wire service latency).
 */

#ifndef HETEROMAP_NET_SERVER_HH
#define HETEROMAP_NET_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/admission.hh"
#include "net/shard_router.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "serve/prediction_service.hh"
#include "util/telemetry.hh"

namespace heteromap {
namespace net {

/** Server tunables. */
struct ServerOptions {
    /** Where to listen (see parseEndpoint). */
    Endpoint endpoint{};

    /** PredictionService shards (>= 1). */
    std::size_t shards = 2;

    /** Ring points per shard (net/shard_router.hh). */
    std::size_t vnodes = ShardRouter::kDefaultVnodes;

    /**
     * Per-shard service template. The server forces admission to
     * Reject (the loop must never block in submit). Each shard
     * reports its own stats-cache counters in its statusz block.
     */
    serve::ServiceOptions shard{};

    /** Multi-tenant admission quotas and lanes. */
    AdmissionOptions admission{};

    /** Connection bound; accepts beyond it are dropped. */
    std::size_t maxConnections = 1024;

    /** Slow-reader disconnect threshold, bytes of buffered writes. */
    std::size_t maxWriteBacklogBytes = 4u << 20;
};

/** Monotonic transport-level accounting (admission has its own). */
struct ServerStats {
    uint64_t connectionsAccepted = 0;
    uint64_t connectionsDropped = 0;   //!< at the maxConnections cap
    uint64_t slowReaderDisconnects = 0;
    uint64_t framesReceived = 0;
    uint64_t framesSent = 0; //!< frames fully flushed to a socket
    uint64_t badFrames = 0;            //!< malformed header or payload
    uint64_t requestsSubmitted = 0;    //!< admitted into a shard
    uint64_t unknownGraph = 0;
    uint64_t unknownWorkload = 0;
};

/** The sharded network front-end over one ModelRegistry. */
class NetServer
{
  public:
    /**
     * @param models  Registry shared by every shard (hot-swaps are
     *                fleet-wide and epoch-stamped per response).
     * @param options Tunables; nothing starts until start().
     */
    NetServer(serve::ModelRegistry &models, ServerOptions options);

    /** stop()s if still running. */
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /**
     * Register @p graph under @p name in the catalogue; requests
     * reference it by name; re-registering a name replaces the
     * entry. Safe while serving.
     */
    void registerGraph(const std::string &name,
                       std::shared_ptr<const Graph> graph);

    /**
     * Bind, listen, and start the loop + harvester threads.
     * @return the bound endpoint (a TCP port-0 request resolves to
     * the kernel's pick). Recoverable on bind/listen failure.
     */
    Result<Endpoint> start();

    /**
     * Stop accepting, tear down connections, join every thread, and
     * close the shards (draining their queues). Idempotent.
     */
    void stop();

    /** Shard that @p graph routes to (for tests and planning). */
    std::size_t shardForGraph(const Graph &graph) const;

    /** Per-shard service access (tests, statusz). */
    serve::PredictionService &shard(std::size_t index);
    std::size_t shards() const { return services_.size(); }

    /** statusz() of every shard, in shard order. */
    std::vector<serve::ServiceStatus> shardStatuses() const;

    /** Fleet statusz document (serve::fleetStatuszJson). */
    std::string statuszJson() const;

    ServerStats stats() const;
    NetAdmission &admission() { return admission_; }
    const ShardRouter &router() const { return router_; }

  private:
    struct Connection {
        OwnedFd fd;
        uint64_t id = 0;
        std::string rbuf;
        std::size_t rpos = 0; //!< parse cursor into rbuf
        std::string wbuf;
        std::size_t wpos = 0; //!< flush cursor into wbuf
        bool wantWrite = false;

        /**
         * Marked instead of closing in-place: writeReady can fail
         * (EPIPE, backlog overflow) while a caller further up the
         * stack still holds this Connection&, so the erase from
         * connections_ is deferred to the top of the event loop /
         * readReady, after every reference is dropped.
         */
        bool dead = false;

        /** @name Flush-time frame accounting (framesSent). @{ */
        uint64_t wqueued = 0;  //!< total bytes ever queued
        uint64_t wflushed = 0; //!< total bytes handed to the socket
        std::deque<uint64_t> frameEnds; //!< wqueued offset per frame
        /** @} */
    };

    /** One submitted request awaiting its shard's answer. */
    struct InFlight {
        uint64_t connId = 0;
        uint64_t requestId = 0;
        int64_t receivedNs = 0;
        std::future<serve::ServeResponse> future;
    };

    /** FIFO handoff from the loop to one shard's harvester. */
    struct CompletionQueue {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<InFlight> queue;
        bool closed = false;

        void push(InFlight in_flight);
        bool pop(InFlight &out);
        void close();
    };

    serve::ModelRegistry &models_;
    ServerOptions options_;
    ShardRouter router_;
    NetAdmission admission_;

    std::vector<std::unique_ptr<serve::PredictionService>> services_;
    std::vector<std::unique_ptr<CompletionQueue>> completions_;
    std::vector<std::thread> harvesters_;

    mutable std::mutex catalog_mutex_;
    std::unordered_map<std::string, std::shared_ptr<const Graph>> catalog_;
    std::unordered_map<std::string, std::shared_ptr<const Workload>>
        workloads_;

    OwnedFd listen_fd_;
    OwnedFd wake_fd_; //!< eventfd: outbox posts and stop()
    OwnedFd epoll_fd_;
    std::thread loop_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::mutex lifecycle_mutex_; //!< start/stop idempotence

    /** Loop-thread-only connection state. */
    std::unordered_map<int, Connection> connections_;
    std::unordered_map<uint64_t, int> conn_fd_by_id_;
    uint64_t next_conn_id_ = 1;

    /** Harvester -> loop handoff of encoded response bytes. */
    std::mutex outbox_mutex_;
    std::vector<std::pair<uint64_t, std::string>> outbox_;

    /** @name ServerStats counters (atomic: read off-loop). @{ */
    std::atomic<uint64_t> connections_accepted_{0};
    std::atomic<uint64_t> connections_dropped_{0};
    std::atomic<uint64_t> slow_reader_disconnects_{0};
    std::atomic<uint64_t> frames_received_{0};
    std::atomic<uint64_t> frames_sent_{0};
    std::atomic<uint64_t> bad_frames_{0};
    std::atomic<uint64_t> requests_submitted_{0};
    std::atomic<uint64_t> unknown_graph_{0};
    std::atomic<uint64_t> unknown_workload_{0};
    /** @} */

    /** Reports the transport counters above to the metrics registry. */
    telemetry::ScopedCounterSource metrics_;

    void loopThread();
    void harvesterThread(std::size_t shard_index);

    void acceptReady();
    void readReady(Connection &conn);
    void writeReady(Connection &conn);

    /**
     * Parse every complete frame in @p conn's read buffer.
     * @return false when the connection must close (framing lost).
     */
    bool parseFrames(Connection &conn);
    bool dispatchFrame(Connection &conn, const FrameHeader &header,
                       std::string_view payload);
    void handlePredict(Connection &conn, const FrameHeader &header,
                       std::string_view payload);

    /** Queue @p bytes on @p conn and flush what the socket takes. */
    void sendOnConn(Connection &conn, std::string bytes);

    /** Outbox drain: route posted responses to live connections. */
    void drainOutbox();

    void closeConnection(int fd);
    void updateEpoll(Connection &conn);
    void postResponse(uint64_t conn_id, std::string bytes);

    /** Immediate response helper for loop-thread answers. */
    void respondNow(Connection &conn, uint64_t request_id,
                    const WireResponse &response);
};

/** Convert a served response into its wire form. */
WireResponse toWire(const serve::ServeResponse &response);

/** Convert a decoded wire response back into a ServeResponse. */
serve::ServeResponse fromWire(const WireResponse &wire);

} // namespace net
} // namespace heteromap

#endif // HETEROMAP_NET_SERVER_HH
