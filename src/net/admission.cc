/**
 * @file
 * Token-bucket admission implementation. One mutex guards the client
 * table, the lane bucket, and the counters (the registry reads them
 * through a counter source at snapshot time) — admission runs once per
 * request on the event-loop thread, so the serialized section is a
 * handful of arithmetic ops, not a throughput concern next to the
 * syscall that delivered the frame.
 */

#include "net/admission.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace heteromap {
namespace net {

NetAdmission::NetAdmission(AdmissionOptions options)
    : options_(options), metrics_([this] {
          return telemetry::CounterReadings{
              {"serve.net.accepted.normal", accepted(Lane::Normal)},
              {"serve.net.accepted.priority", accepted(Lane::Priority)},
              {"serve.net.quota_rejected.normal",
               quotaRejected(Lane::Normal)},
              {"serve.net.quota_rejected.priority",
               quotaRejected(Lane::Priority)},
              {"serve.net.shed.normal", laneShed(Lane::Normal)},
              {"serve.net.shed.priority", laneShed(Lane::Priority)},
          };
      })
{
    options_.clientRatePerSec = std::max(0.0, options_.clientRatePerSec);
    options_.clientBurst = std::max(1.0, options_.clientBurst);
    options_.maxTrackedClients =
        std::max<std::size_t>(1, options_.maxTrackedClients);
    normal_lane_.ratePerSec = options_.normalLaneRatePerSec;
    normal_lane_.burst = std::max(1.0, options_.normalLaneBurst);
    normal_lane_.tokens = normal_lane_.burst;
}

void
NetAdmission::refill(Bucket &bucket, int64_t now_ns)
{
    if (now_ns <= bucket.lastRefillNs) {
        bucket.lastRefillNs = std::max(bucket.lastRefillNs, now_ns);
        return;
    }
    const double elapsed_s =
        static_cast<double>(now_ns - bucket.lastRefillNs) * 1e-9;
    bucket.tokens = std::min(bucket.burst,
                             bucket.tokens +
                                 elapsed_s * bucket.ratePerSec);
    bucket.lastRefillNs = now_ns;
}

bool
NetAdmission::tryTake(Bucket &bucket, int64_t now_ns)
{
    refill(bucket, now_ns);
    if (bucket.tokens < 1.0)
        return false;
    bucket.tokens -= 1.0;
    return true;
}

NetAdmission::Bucket &
NetAdmission::clientBucket(uint64_t client_id, int64_t now_ns)
{
    auto it = clients_.find(client_id);
    if (it != clients_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        return it->second.bucket;
    }
    // Evict the least-recently-seen default-quota client beyond the
    // bound; pinned (explicit-quota) clients are never evicted, so
    // an id churn cannot silently drop an operator-set quota.
    while (clients_.size() >= options_.maxTrackedClients &&
           !lru_.empty()) {
        bool evicted = false;
        for (auto lit = lru_.rbegin(); lit != lru_.rend(); ++lit) {
            auto victim = clients_.find(*lit);
            if (victim != clients_.end() &&
                !victim->second.bucket.pinned) {
                lru_.erase(victim->second.lruIt);
                clients_.erase(victim);
                evicted = true;
                break;
            }
        }
        if (!evicted)
            break; // every tracked client is pinned
    }
    lru_.push_front(client_id);
    ClientEntry entry;
    entry.bucket.ratePerSec = options_.clientRatePerSec;
    entry.bucket.burst = options_.clientBurst;
    entry.bucket.tokens = options_.clientBurst;
    entry.bucket.lastRefillNs = now_ns;
    entry.lruIt = lru_.begin();
    return clients_.emplace(client_id, std::move(entry))
        .first->second.bucket;
}

AdmissionDecision
NetAdmission::admit(uint64_t client_id, Lane lane, int64_t now_ns)
{
    const std::size_t lane_ix = static_cast<std::size_t>(lane);
    std::lock_guard<std::mutex> lock(mutex_);
    Bucket &bucket = clientBucket(client_id, now_ns);
    if (!tryTake(bucket, now_ns)) {
        ++quota_rejected_[lane_ix];
        return AdmissionDecision::QuotaRejected;
    }
    if (lane == Lane::Normal && normal_lane_.ratePerSec > 0.0 &&
        !tryTake(normal_lane_, now_ns)) {
        ++lane_shed_[lane_ix];
        return AdmissionDecision::LaneShed;
    }
    ++accepted_[lane_ix];
    return AdmissionDecision::Admitted;
}

void
NetAdmission::setClientQuota(uint64_t client_id, double rate_per_sec,
                             double burst)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Bucket &bucket = clientBucket(client_id, 0);
    bucket.ratePerSec = std::max(0.0, rate_per_sec);
    bucket.burst = std::max(1.0, burst);
    bucket.tokens = bucket.burst;
    bucket.pinned = true;
}

uint64_t
NetAdmission::accepted(Lane lane) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return accepted_[static_cast<std::size_t>(lane)];
}

uint64_t
NetAdmission::quotaRejected(Lane lane) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quota_rejected_[static_cast<std::size_t>(lane)];
}

uint64_t
NetAdmission::laneShed(Lane lane) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lane_shed_[static_cast<std::size_t>(lane)];
}

std::size_t
NetAdmission::trackedClients() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return clients_.size();
}

} // namespace net
} // namespace heteromap
