/**
 * @file
 * Bounded MPMC prediction-request queue with admission control — the
 * front door of the serving subsystem (serve/prediction_service.hh).
 *
 * Admission is policy-driven: Block applies backpressure (the caller
 * waits for space, so no admitted request is ever dropped), Reject
 * sheds at the door when the queue is full (the caller gets an
 * immediate Shed response and the "serve.shed" counter accounts for
 * it exactly). Deadlines ride on each request; expiry is checked at
 * dequeue time so a request that waited past its budget is shed
 * instead of wasting a measurement + featurize + inference on an
 * answer nobody is waiting for.
 *
 * The queue also powers micro-batching: popMatchingUntil() extracts
 * requests that share a BatchKey — the graph fingerprint and
 * measurement parameters — so one worker can coalesce them into a
 * single GraphStats measurement (and, per workload, a single
 * featurize) for the whole batch.
 */

#ifndef HETEROMAP_SERVE_REQUEST_QUEUE_HH
#define HETEROMAP_SERVE_REQUEST_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/heteromap.hh"
#include "core/supervisor.hh"
#include "graph/stats_cache.hh"
#include "util/errors.hh"
#include "workloads/workload.hh"

namespace heteromap {
namespace serve {

/** What happens when a request arrives and the queue is full. */
enum class AdmissionPolicy {
    Block,  //!< backpressure: the submitter waits for space
    Reject, //!< load shedding: the request is shed immediately
};

/** Terminal state of one served request. */
enum class ServeStatus {
    Ok,     //!< predicted and deployed; deployment is valid
    Shed,   //!< load-shed (see ShedReason); deployment is empty
    Error,  //!< serving failed (see ServeResponse::error)
    Closed, //!< submitted to a closed/closing service
};

/** Why a request was shed. */
enum class ShedReason {
    None,
    QueueFull,       //!< Reject admission with the queue at capacity
    DeadlineExpired, //!< still queued when its deadline passed
    CircuitOpen,     //!< a RetryingClient breaker shed without submitting
    QuotaExceeded,   //!< a net-tier admission quota rejected the client
};

/**
 * Structured serving failure. A worker that throws mid-batch fails
 * only that batch's promises, each carrying one of these — a client
 * always gets a ready future with a diagnosable error, never a
 * broken promise.
 */
struct ServeError {
    ErrorCode code = ErrorCode::Unavailable;
    std::string message;

    /** "unavailable error: ..." style rendering. */
    std::string toString() const;
};

/** One prediction request, as a client submits it. */
struct ServeRequest {
    /** Benchmark to featurize; must be safe for concurrent use. */
    std::shared_ptr<const Workload> workload;

    /** Input graph; shared so it outlives the response. */
    std::shared_ptr<const Graph> graph;

    std::string inputName;
    MeasureOptions measure{};

    /**
     * Queueing budget in milliseconds; 0 disables the deadline. A
     * request still queued when the budget expires is shed at
     * dequeue time (any admission policy — setting a deadline opts
     * into shedding).
     */
    double deadlineMs = 0.0;

    /**
     * Route through the supervised lane: the deployment runs under
     * the Supervisor's mispredict detection, and a flagged response
     * walks the degradation ladder (core/supervisor.hh). The full
     * DeploymentOutcome is attached to the response.
     */
    bool supervised = false;
};

/** The service's answer to one ServeRequest. */
struct ServeResponse {
    ServeStatus status = ServeStatus::Closed;
    ShedReason shedReason = ShedReason::None;

    uint64_t requestId = 0;

    /**
     * Epoch of the model snapshot that served this request —
     * monotonically increasing across hot-swaps, so clients can
     * observe a swap land without a restart.
     */
    uint64_t modelEpoch = 0;

    /** The prediction + modelled deployment (status == Ok). */
    Deployment deployment;

    /** Supervised-lane outcome (requests with supervised = true). */
    std::optional<DeploymentOutcome> outcome;

    /** Why serving failed (status == Error). */
    std::optional<ServeError> error;

    /**
     * Degradation-ladder level the service was at when this request
     * was served (0 = normal; see DegradationLevel in
     * prediction_service.hh). A supervised request answered at
     * level >= 2 was served without its supervised lane.
     */
    int degradationLevel = 0;

    /**
     * True when the built-in fallback heuristic answered instead of
     * the registry's model (ladder level 3, or no healthy model).
     * modelEpoch still stamps the active snapshot's epoch so the
     * monotone-epoch contract holds across fallback windows.
     */
    bool servedByFallback = false;

    double queueMs = 0.0;      //!< admission -> service start, linger included
    double serviceMs = 0.0;    //!< batch's stats lookup -> response
    std::size_t batchSize = 0; //!< requests coalesced with this one
};

/**
 * Coalescing key: the stats cache's own key, so requests agreeing on
 * it share one GraphStats measurement (the dominant online cost).
 * Structure-based — two distinct Graph objects holding the same CSR
 * batch together.
 */
using BatchKey = GraphStatsCache::Key;

/** Key @p request for coalescing (reads the graph's fingerprint). */
BatchKey makeBatchKey(const ServeRequest &request);

/** A request admitted into the queue, with its response promise. */
struct PendingRequest {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    uint64_t id = 0;
    BatchKey key;
    std::chrono::steady_clock::time_point enqueued{};
    bool hasDeadline = false;
    std::chrono::steady_clock::time_point deadline{};

    /**
     * Set once the promise has been fulfilled. Lets the worker's
     * batch-failure path fail exactly the promises that have not
     * been answered yet — a promise is never consumed twice.
     */
    bool responded = false;
};

/** Bounded MPMC queue of pending prediction requests. */
class RequestQueue
{
  public:
    enum class PushResult { Admitted, Full, Closed };

    /** @param capacity Maximum queued requests (> 0). */
    explicit RequestQueue(std::size_t capacity);

    /**
     * Admit @p pending under @p policy. Moves from @p pending only
     * on Admitted; on Full/Closed the caller keeps it (and its
     * promise) to respond with the shed/closed status. Block waits
     * for space (or close()); Reject returns Full immediately.
     */
    PushResult push(PendingRequest &pending, AdmissionPolicy policy);

    /**
     * Blocking FIFO pop. @return false only when the queue is
     * closed *and* drained — every admitted request is handed to
     * some worker before workers see the closed signal.
     */
    bool pop(PendingRequest &out);

    /**
     * Extract up to @p max_count requests whose key equals @p key
     * (preserving their relative order; non-matching requests keep
     * their positions), waiting until @p deadline for more matches
     * while under the count. Returns the number extracted. Returns
     * early when the queue closes.
     */
    std::size_t popMatchingUntil(
        const BatchKey &key, std::size_t max_count,
        std::chrono::steady_clock::time_point deadline,
        std::vector<PendingRequest> &out);

    /** Stop admitting; wake every blocked pusher and popper. */
    void close();

    bool closed() const;
    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<PendingRequest> queue_;
    bool closed_ = false;

    /** Mirror the depth into the "serve.queue_depth" gauge. */
    void publishDepth() const;
};

} // namespace serve
} // namespace heteromap

#endif // HETEROMAP_SERVE_REQUEST_QUEUE_HH
