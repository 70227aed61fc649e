/**
 * @file
 * One-thread load driver: an epoll loop over a few client
 * connections that speaks the public wire codec
 * (net::encodeRequest / decodeHeader / decodeResponse) and matches
 * responses to requests by request id, whatever connection or order
 * they come back in.
 *
 * Closed loop: a fixed number of requests in flight, spread evenly
 * over the connections; each response frees its connection's slot
 * for the next request. Open loop: request i is due at a scheduled
 * time and goes out on connection i mod N, whatever is in flight.
 */

#ifndef SERVEBENCH_DRIVER_HH
#define SERVEBENCH_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.hh"
#include "net/wire.hh"
#include "schedule.hh"

namespace servebench {

/** CLOCK_MONOTONIC nanoseconds (the clock std::steady_clock reads). */
int64_t nowNs();

/** One attempted request and what came back for it. */
struct Outcome {
    std::size_t index = 0;  //!< position in the replayed sequence
    uint32_t conn = 0;
    int64_t dueNs = 0;      //!< open loop: scheduled send; else sendNs
    int64_t sendNs = 0;     //!< before encoding
    int64_t recvNs = 0;     //!< after the read that completed it
    int64_t encodeNs = 0;   //!< traced requests only
    bool answered = false;  //!< false: transport failure
    heteromap::net::WireResponse response; //!< errorMessage cleared

    /** Ok response received. */
    bool ok() const;
    /** Latency from due time in ms; +inf when not ok (a failed
     *  request misses every latency limit). */
    double latencyMs() const;
};

/** One span of the traced run (Chrome trace "X" event). */
struct Span {
    const char *name = "";
    uint64_t id = 0;    //!< request id shared by a request's spans
    int64_t startNs = 0;
    int64_t durNs = 0;
    uint32_t tid = 0;   //!< connection, or the replay track
};

/** Spans kept in memory and written once at the end. */
class SpanLog
{
  public:
    void
    push(const char *name, uint64_t id, int64_t start_ns,
         int64_t dur_ns, uint32_t tid)
    {
        spans_.push_back({name, id, start_ns, dur_ns, tid});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace_event JSON ({"traceEvents":[...]}). */
    std::string chromeJson() const;

  private:
    std::vector<Span> spans_;
};

/** Everything one driver run observed. */
struct RunResult {
    std::vector<Outcome> outcomes; //!< in send order
    uint64_t firstId = 0;          //!< request id of outcomes[i] - i
    uint64_t protocolErrors = 0; //!< undecodable or unexpected frames
    /** Send time minus due time: the schedule's (open loop) or the
     *  read of the response that freed the slot (closed loop). */
    std::vector<double> lagMs;
    std::size_t maxInFlight = 0;
};

/** How a run paces its sends. */
struct LoopSpec {
    bool openLoop = false;
    std::size_t outstanding = 8;  //!< closed loop only
    /** Closed loop: stop sending after this long (sequence cycled);
     *  <= 0 sends the sequence exactly once. */
    double seconds = 0.0;
    const std::vector<int64_t> *dueNs = nullptr; //!< open loop only
};

/** The epoll client. Not thread-safe: one driver thread owns it. */
class Driver
{
  public:
    /** Open @p connections to @p endpoint. @p graph_names resolves
     *  Request::graph when encoding; it must outlive the driver. */
    Driver(const heteromap::net::Endpoint &endpoint,
           std::size_t connections,
           const std::vector<std::string> &graph_names);
    ~Driver();

    Driver(const Driver &) = delete;
    Driver &operator=(const Driver &) = delete;

    /** False when a connection could not be opened. */
    bool connected() const { return connected_; }

    /** Replay @p sequence under @p spec; when @p trace is non-null,
     *  the spans of every 8th request go to it. */
    RunResult run(const std::vector<Request> &sequence,
                  const LoopSpec &spec, SpanLog *trace = nullptr);

    /** Request frames written so far, over every run. */
    uint64_t framesSent() const { return frames_sent_; }

  private:
    struct Conn {
        heteromap::net::OwnedFd fd;
        std::string rbuf;
        std::size_t rpos = 0;
        std::string wbuf;
        std::size_t wpos = 0;
        bool dead = false;
        bool wantWrite = false;
        std::size_t inFlight = 0;
    };

    const std::vector<std::string> &graph_names_;
    std::vector<Conn> conns_;
    heteromap::net::OwnedFd epoll_fd_;
    heteromap::net::OwnedFd timer_fd_;
    bool connected_ = false;
    uint64_t next_id_ = 1;
    uint64_t frames_sent_ = 0;

    void flush(uint32_t conn);
    void updateEpoll(uint32_t conn);
    void armTimer(int64_t at_ns);
};

/** Exit-path accounting shared by the benchmark and its tests. */
struct Tally {
    std::size_t attempted = 0;
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t errors = 0;    //!< Error / Closed responses
    std::size_t transport = 0; //!< never answered

    std::size_t failed() const { return attempted - ok; }
};
Tally tally(const std::vector<Outcome> &outcomes);

} // namespace servebench

#endif // SERVEBENCH_DRIVER_HH
