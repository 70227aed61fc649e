/**
 * @file
 * Multi-tenant admission for the network serving tier. Sits in front
 * of the per-shard RequestQueue admission (serve/request_queue.hh):
 * that layer protects the *service* from queue overrun; this layer
 * protects *tenants from each other* before a byte of work is done.
 *
 * Each client id owns a token bucket (ratePerSec, burst). A request
 * that finds the bucket empty is shed with ShedReason::QuotaExceeded
 * — the "serve.net.quota_rejected" counters — before it touches a
 * shard, so one chatty tenant cannot starve the rest. Per-client
 * overrides let operators carve explicit quotas; unknown clients get
 * the default quota, and the client table is bounded (LRU eviction)
 * so a churn of client ids cannot grow memory without bound.
 *
 * Two priority lanes ride on top: Priority traffic is admitted
 * straight to its shard once its client quota passes, while Normal
 * traffic additionally draws from a shared normal-lane bucket. Under
 * overload the normal lane therefore sheds first, and the lane
 * counters (serve.net.accepted.* / .shed.* / .quota_rejected.*)
 * make the fairness split auditable.
 *
 * Time is injectable: every admit() takes an explicit monotonic
 * nanosecond timestamp (callers pass steady_clock now), so tests
 * drive refill deterministically without sleeping.
 */

#ifndef HETEROMAP_NET_ADMISSION_HH
#define HETEROMAP_NET_ADMISSION_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "util/telemetry.hh"

namespace heteromap {
namespace net {

/** Admission lanes (wire flag kFlagPriority selects Priority). */
enum class Lane : uint8_t {
    Normal = 0,
    Priority = 1,
};
inline constexpr std::size_t kNumLanes = 2;

/** What the admission layer decided for one request. */
enum class AdmissionDecision {
    Admitted,      //!< pass through to shard routing
    QuotaRejected, //!< the client's token bucket was empty
    LaneShed,      //!< the shared normal-lane bucket was empty
};

struct AdmissionOptions {
    /** Default per-client sustained quota, requests/second. */
    double clientRatePerSec = 1000.0;

    /** Default per-client burst (bucket capacity), requests. */
    double clientBurst = 100.0;

    /**
     * Shared normal-lane throttle, requests/second; <= 0 disables
     * it (the lane then sheds only at the shard queues). Priority
     * traffic never draws from this bucket.
     */
    double normalLaneRatePerSec = 0.0;

    /** Normal-lane burst, requests. */
    double normalLaneBurst = 200.0;

    /** Client-table bound; least-recently-seen beyond it evicts. */
    std::size_t maxTrackedClients = 65536;
};

/** Thread-safe token-bucket admission, two lanes. */
class NetAdmission
{
  public:
    explicit NetAdmission(AdmissionOptions options = {});

    /**
     * Decide one request from @p client_id on @p lane at monotonic
     * time @p now_ns. Decisions consume a token only when admitted.
     */
    AdmissionDecision admit(uint64_t client_id, Lane lane,
                            int64_t now_ns);

    /**
     * Carve an explicit quota for @p client_id (replaces the
     * default-quota bucket; the bucket starts full at @p burst).
     */
    void setClientQuota(uint64_t client_id, double rate_per_sec,
                        double burst);

    /** @name Monotonic per-lane accounting. @{ */
    uint64_t accepted(Lane lane) const;
    uint64_t quotaRejected(Lane lane) const;
    uint64_t laneShed(Lane lane) const;
    /** @} */

    /** Distinct client ids currently tracked (bounded). */
    std::size_t trackedClients() const;

  private:
    struct Bucket {
        double tokens = 0.0;
        double ratePerSec = 0.0;
        double burst = 0.0;
        int64_t lastRefillNs = 0;
        bool pinned = false; //!< explicit quota: exempt from LRU
    };

    struct ClientEntry {
        Bucket bucket;
        std::list<uint64_t>::iterator lruIt;
    };

    /** Refill @p bucket up to its burst for the elapsed time. */
    static void refill(Bucket &bucket, int64_t now_ns);

    /** Take one token if available. */
    static bool tryTake(Bucket &bucket, int64_t now_ns);

    Bucket &clientBucket(uint64_t client_id, int64_t now_ns);

    AdmissionOptions options_;

    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, ClientEntry> clients_;
    std::list<uint64_t> lru_; //!< front = most recently seen
    Bucket normal_lane_;

    uint64_t accepted_[kNumLanes] = {0, 0};
    uint64_t quota_rejected_[kNumLanes] = {0, 0};
    uint64_t lane_shed_[kNumLanes] = {0, 0};

    /** Reports the per-lane counts above to the metrics registry. */
    telemetry::ScopedCounterSource metrics_;
};

} // namespace net
} // namespace heteromap

#endif // HETEROMAP_NET_ADMISSION_HH
