/**
 * @file
 * PredictionService: the in-process, multi-tenant prediction server.
 *
 * Clients submit ServeRequests and get a future<ServeResponse>; a
 * worker group on util/thread_pool drains a bounded RequestQueue with
 * admission control (serve/request_queue.hh). Workers micro-batch:
 * the linger window opens when a worker pops a request (the batch
 * head) and lasts maxBatchDelayMs. The head's GraphStats lookup runs
 * first, inside the window. On a cache hit the worker then collects
 * queued requests that share its graph fingerprint until the window
 * closes; on a miss (no request for that key among the cache's
 * recent keys, so a mate is unlikely) it makes one non-blocking scan,
 * which still collects every same-key request queued during the
 * measurement. That one measurement serves the whole batch, and
 * HeteroMap::featurizeAndDeploy (the stage HeteroMap::predict runs
 * as a batch of one) featurizes and infers the rest over the
 * service's own ProfileCache. A response's serviceMs starts at the
 * measurement and its queueMs covers the wait before it plus any
 * linger after it; its flight-recorder record says whether the
 * head's lookup hit. Responses are stamped with the epoch of the
 * ModelRegistry snapshot that served them, so hot-swaps (background
 * retrain, disk load) are observable per response and can never tear
 * a model out from under an in-flight batch.
 *
 * Supervised lane: requests with supervised = true deploy through a
 * persistent core/supervisor Supervisor, whose mispredict detection
 * flags responses and walks the degradation ladder for them; the
 * lane's Supervisor is rebuilt against the new model when a hot-swap
 * lands.
 *
 * Each service owns one GraphStatsCache (128 entries) and one
 * ProfileCache (64 entries). Each cache owns its counters: a service
 * counts only its own work.
 *
 * Fault tolerance: workers are supervised by a watchdog thread. An
 * exception during measure/featurize/infer fails only that batch's
 * promises — each with a structured ServeError — and the worker
 * keeps draining; a crashed (exited) worker is detected by its
 * stale heartbeat slot and restarted on the pool; a stalled worker
 * (busy with no heartbeat past watchdog.stuckAfterMs) is counted
 * and drives the degradation ladder. Under sustained faults the
 * service degrades stepwise — shrink the batching window, bypass
 * the supervised lane, serve from a built-in DecisionTreeHeuristic
 * fallback that rides the warm GraphStatsCache — and walks back to
 * normal after a quiet period. Chaos faults (arch/fault_model.hh
 * ChaosPolicy) can be injected at four serving points to rehearse
 * all of this deterministically; with no policy armed every hook is
 * a single relaxed atomic load.
 *
 * Telemetry (util/telemetry.hh): counters serve.submitted /
 * .admitted / .completed / .shed (+ .shed.queue_full, .shed.deadline)
 * / .batches / .batched_requests / .supervised /
 * .supervised_degraded / .supervised_bypassed / .errors /
 * .fallback_served / .degradation_steps / .worker.batch_failures /
 * .worker.stalls / .worker.restarts, serve.stats_cache.hits /
 * .misses / .evictions and serve.stats_cache.profiles.hits /
 * .misses / .evictions (the ones its accessors also report come from
 * one counter source, summed over services); gauges
 * serve.queue_depth, serve.degradation_level; histograms
 * serve.queue_wait_ms (one sample per served request: its queueMs),
 * serve.batch.measure_ms, serve.batch.featurize_ms,
 * serve.batch.infer_ms, serve.request.service_ms.
 */

#ifndef HETEROMAP_SERVE_PREDICTION_SERVICE_HH
#define HETEROMAP_SERVE_PREDICTION_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "arch/fault_model.hh"
#include "core/supervisor.hh"
#include "serve/drift_monitor.hh"
#include "serve/model_registry.hh"
#include "serve/request_queue.hh"
#include "serve/slo_tracker.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"
#include "workloads/profile_cache.hh"

namespace heteromap {
namespace serve {

/**
 * Degradation ladder the watchdog walks under sustained faults.
 * Each fault event (batch failure, stall, restart) escalates one
 * rung; a quiet period of watchdog.recoverAfterMs de-escalates one.
 */
enum class DegradationLevel {
    Normal = 0,           //!< full batching, all lanes
    ShrinkBatch = 1,      //!< batching window collapsed to zero linger
    BypassSupervised = 2, //!< supervised lane bypassed (plus above)
    FallbackHeuristic = 3, //!< built-in heuristic serves (plus above)
};

/** @return e.g. "bypass-supervised". */
const char *degradationLevelName(DegradationLevel level);

/** Worker-watchdog tunables. */
struct WatchdogOptions {
    bool enabled = true;

    /** Scan cadence, in milliseconds. */
    double pollMs = 5.0;

    /**
     * A worker that is busy on a batch with no heartbeat for this
     * long is counted stalled (generous: CI machines are noisy).
     */
    double stuckAfterMs = 250.0;

    /** Fault-free time before the ladder steps down one rung. */
    double recoverAfterMs = 100.0;
};

/** Service tunables. Defaults suit tests and small deployments. */
struct ServiceOptions {
    /** Worker threads draining the queue (>= 1). */
    std::size_t workers = 2;

    /** Bound on queued requests (admission control beyond it). */
    std::size_t queueCapacity = 256;

    AdmissionPolicy admission = AdmissionPolicy::Block;

    /** Max requests coalesced into one batch; 1 disables batching. */
    std::size_t maxBatch = 8;

    /**
     * Batching window in milliseconds, opened when a worker pops the
     * first request of a batch. The head's stats lookup runs inside
     * it; if that lookup hit, the worker collects coalescible
     * arrivals until it closes. A miss lingers not at all: one
     * non-blocking scan gathers what queued meanwhile. 0 batches only
     * what is already queued.
     */
    double maxBatchDelayMs = 0.2;

    /** Supervised-lane tunables and fault scenario. */
    SupervisorOptions supervisor{};
    FaultInjector faults{};

    /**
     * Chaos policy fired at the serving fault points (AdmissionDelay
     * in submit, WorkerStall/WorkerCrashBatch in the worker loop,
     * SupervisorHang in the supervised lane). Shared so tests and
     * the registry can arm the same schedule. Null = no chaos.
     */
    std::shared_ptr<ChaosPolicy> chaos;

    WatchdogOptions watchdog{};

    /**
     * When non-empty, the service writes automatic flight-recorder
     * postmortems ("<prefix>postmortem-<seq>.jsonl",
     * util/flight_recorder.hh) whenever the degradation ladder
     * escalates to BypassSupervised or beyond and whenever a chaos
     * crash kills a batch — provided the process flight recorder is
     * armed. Empty (the default) disables automatic dumps.
     */
    std::string postmortemPrefix;

    /**
     * Drift-monitor tunables (serve/drift_monitor.hh). The monitor
     * arms itself from the active model's feature baseline and stays
     * inert for baseline-less models.
     */
    DriftOptions drift{};

    /** SLO objectives and harvest cadence (serve/slo_tracker.hh). */
    SloOptions slo{};
};

/**
 * Point-in-time service snapshot for statusz rendering — everything
 * an operator (or tools/hm_statusz) wants on one page.
 */
struct ServiceStatus {
    uint64_t modelEpoch = 0;
    std::string predictorName;
    bool hasBaseline = false;

    int degradationLevel = 0;

    std::size_t queueDepth = 0;
    std::size_t queueCapacity = 0;
    std::size_t workers = 0;

    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t errors = 0;

    uint64_t batchFailures = 0;
    uint64_t workerStalls = 0;
    uint64_t workerRestarts = 0;
    uint64_t fallbackServed = 0;

    uint64_t statsHits = 0;
    uint64_t statsMisses = 0;

    bool flightArmed = false;
    uint64_t flightAppended = 0;
    uint64_t flightDropped = 0;
    uint64_t postmortems = 0;

    DriftScores drift;
    SloStatus slo;
};

/**
 * One build-info-stamped JSON object ({"type":"statusz",...}) —
 * the document tools/hm_statusz validates and renders.
 */
std::string statuszJson(const ServiceStatus &status);

/**
 * Roll @p shards up into one fleet-total ServiceStatus without
 * double-counting:
 *
 *  - request/fault counters, stats-cache counters, queue
 *    depth/capacity, and workers sum across shards (each shard owns
 *    those);
 *  - flight-recorder numbers are process-wide: taken once;
 *  - model epoch, ladder level, drift, and SLO report the *worst*
 *    shard (max epoch; max ladder; max PSI; per-objective min good
 *    fraction / max burn / min budget, with percentile upper
 *    bounds), because a fleet is as healthy as its sickest shard.
 *
 * Empty input yields a default ServiceStatus.
 */
ServiceStatus aggregateStatusz(const std::vector<ServiceStatus> &shards);

/**
 * One JSON document ({"type":"statusz","fleet":{...},"shards":[...]})
 * — hm_statusz validates and renders it like a single-service
 * snapshot, plus the per-shard breakdown.
 */
std::string fleetStatuszJson(const std::vector<ServiceStatus> &shards);

/** Concurrent prediction server over a ModelRegistry. */
class PredictionService
{
  public:
    /**
     * @param models  Registry with at least one published model.
     * @param options Tunables; worker threads start immediately.
     */
    explicit PredictionService(ModelRegistry &models,
                               ServiceOptions options = {});

    /** close()s and joins the workers. */
    ~PredictionService();

    PredictionService(const PredictionService &) = delete;
    PredictionService &operator=(const PredictionService &) = delete;

    /**
     * Submit one request. Always returns a future that becomes
     * ready: Ok with a deployment, Shed (admission or deadline), or
     * Closed. Under Block admission this call waits for queue space
     * — an admitted request is never dropped.
     */
    std::future<ServeResponse> submit(ServeRequest request);

    /**
     * Stop admitting, serve everything already queued, and join the
     * workers. Idempotent; rethrows the first worker exception.
     */
    void close();

    /** Worker thread count. */
    std::size_t workers() const { return pool_.threadCount(); }

    /** @name Request accounting (monotonic). @{ */
    uint64_t submitted() const { return submitted_.load(); }
    uint64_t admitted() const { return admitted_.load(); }
    uint64_t completed() const { return completed_.load(); }
    uint64_t shed() const { return shed_.load(); }
    uint64_t errorResponses() const { return errors_.load(); }
    /** @} */

    /** @name Fault-tolerance accounting (monotonic). @{ */
    uint64_t batchFailures() const { return batch_failures_.load(); }
    uint64_t workerStalls() const { return worker_stalls_.load(); }
    uint64_t workerRestarts() const { return worker_restarts_.load(); }
    uint64_t fallbackServed() const { return fallback_served_.load(); }
    /** @} */

    /** Current degradation-ladder rung. */
    DegradationLevel degradationLevel() const;

    /** Stats-cache counters. */
    uint64_t statsHits() const { return stats_.hits(); }
    uint64_t statsMisses() const { return stats_.misses(); }

    /** Profile-cache counters. */
    uint64_t profileHits() const { return profiles_.hits(); }
    uint64_t profileMisses() const { return profiles_.misses(); }

    /** Drift scores (readable in telemetry-OFF builds too). */
    DriftScores driftScores() const { return drift_.scores(); }

    /** SLO state: last window, rolling budget, latency percentiles. */
    SloStatus sloStatus() const { return slo_.status(); }

    /** Automatic postmortem dumps triggered so far. */
    uint64_t postmortems() const { return postmortems_.load(); }

    /** Live snapshot for statuszJson(). */
    ServiceStatus statusz() const;

  private:
    /**
     * Per-worker health slot the watchdog scans. beatNs is the
     * steady-clock timestamp of the worker's last heartbeat; busy
     * distinguishes "blocked in pop (idle, never stalled)" from
     * "serving a batch"; alive goes false when the worker's loop
     * task exits (lethal chaos crash, or normal close-time drain).
     */
    struct WorkerHealth {
        std::atomic<int64_t> beatNs{0};
        std::atomic<bool> busy{false};
        std::atomic<bool> alive{false};
    };

    ModelRegistry &models_;
    ServiceOptions options_;
    RequestQueue queue_;

    std::atomic<uint64_t> next_id_{1};
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> admitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> errors_{0};
    std::atomic<bool> closed_{false};

    std::atomic<uint64_t> batch_failures_{0};
    std::atomic<uint64_t> worker_stalls_{0};
    std::atomic<uint64_t> worker_restarts_{0};
    std::atomic<uint64_t> fallback_served_{0};

    /** @name Degradation ladder (watchdog-driven). @{ */
    std::atomic<int> degradation_{0};
    std::atomic<int64_t> last_fault_ns_{0};
    std::atomic<int64_t> last_recover_ns_{0};
    /** @} */

    /** Measured GraphStats per BatchKey, shared by the workers. */
    GraphStatsCache stats_;

    /** Executed profiles per (workload, graph), for featurize. */
    ProfileCache profiles_;

    /** @name Forensics: drift, SLOs, postmortem accounting. @{ */
    DriftMonitor drift_;
    SloTracker slo_;
    std::atomic<uint64_t> postmortems_{0};
    /** @} */

    /** Heuristic served at DegradationLevel::FallbackHeuristic. */
    std::unique_ptr<HeteroMap> fallback_;

    /** @name Supervised lane (serialized; see superviseDeploy). @{ */
    std::mutex supervised_mutex_;
    std::shared_ptr<const ModelSnapshot> supervised_model_;
    std::unique_ptr<Supervisor> supervisor_;
    /** @} */

    std::mutex close_mutex_; //!< makes close() idempotent

    /** @name Watchdog thread. @{ */
    std::vector<std::unique_ptr<WorkerHealth>> health_;
    std::mutex watchdog_mutex_;
    std::condition_variable watchdog_cv_;
    bool watchdog_stop_ = false; //!< guarded by watchdog_mutex_
    std::thread watchdog_;
    /** @} */

    /**
     * Reports the counters above to the metrics registry; declared
     * after everything it reads, so it unregisters first.
     */
    telemetry::ScopedCounterSource metrics_;

    ThreadPool pool_; //!< last member: destroyed (joined) first

    void workerLoop(std::size_t slot);
    /**
     * Coalesce same-key requests into @p batch until @p popped +
     * linger; the linger is zero unless the head's lookup hit.
     */
    void gatherBatch(std::vector<PendingRequest> &batch,
                     std::chrono::steady_clock::time_point popped,
                     bool statsHit);
    /**
     * Serve @p batch from the head's @p stats, looked up in
     * @p measureMs (@p statsHit: a cache hit).
     */
    void serveBatch(std::vector<PendingRequest> &batch,
                    const GraphStats &stats, double measureMs,
                    bool statsHit);
    void superviseDeploy(
        const std::shared_ptr<const ModelSnapshot> &snapshot,
        const BenchmarkCase &bench, ServeResponse &response);
    void respond(PendingRequest &pending, ServeResponse response);
    void respondShed(PendingRequest &pending, ShedReason reason);

    /** Fail every not-yet-responded promise in @p batch. */
    void failBatch(std::vector<PendingRequest> &batch,
                   const std::string &what);
    void watchdogLoop();
    void stopWatchdog();
    void noteFault();
    void beat(WorkerHealth &health);

    /**
     * Dump the armed flight recorder to the next sequenced
     * postmortem file (no-op without a prefix or an armed recorder).
     */
    void maybePostmortem(const char *reason);
};

} // namespace serve
} // namespace heteromap

#endif // HETEROMAP_SERVE_PREDICTION_SERVICE_HH
