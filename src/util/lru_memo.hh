/**
 * @file
 * BoundedLruMemo: the one thread-safe, bounded LRU memo table behind
 * every graph-keyed cache (graph/stats_cache.hh for GraphStats,
 * workloads/profile_cache.hh for executed WorkloadProfiles).
 *
 * Discipline: the lock covers only the table. A miss computes its
 * value outside the lock, so one slow computation never serializes
 * lookups of other keys; two racing misses on one key both compute,
 * and the first insert wins — callers guarantee the computation is
 * deterministic, so the loser's value is identical and dropped.
 * Values are copied out under the lock: keep them cheap to copy
 * (plain structs, or a shared_ptr to something larger).
 */

#ifndef HETEROMAP_UTIL_LRU_MEMO_HH
#define HETEROMAP_UTIL_LRU_MEMO_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace heteromap {

template <typename Key, typename Value, typename Hash>
class BoundedLruMemo
{
  public:
    /**
     * @param capacity       Entry bound (> 0); LRU evicts beyond it.
     * @param metrics_prefix When non-null, the hit/miss/eviction
     *        counters are the shared telemetry-registry counters
     *        "<prefix>.hits" / ".misses" / ".evictions", so a
     *        /metrics-style snapshot and the accessors below read
     *        the *same* atomics. When null the counters are owned
     *        by this table and unregistered.
     */
    explicit BoundedLruMemo(std::size_t capacity,
                            const char *metrics_prefix = nullptr)
        : capacity_(capacity),
          hits_(counterFor(metrics_prefix, ".hits", ownedHits_)),
          misses_(counterFor(metrics_prefix, ".misses", ownedMisses_)),
          evictions_(counterFor(metrics_prefix, ".evictions",
                                ownedEvictions_))
    {
        HM_ASSERT(capacity > 0, "LRU memo needs a positive capacity");
    }

    /**
     * The cached value for @p key (a hit refreshes its LRU slot),
     * or compute() run outside the lock and inserted.
     */
    template <typename Compute>
    Value
    getOrCompute(const Key &key, Compute &&compute)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (auto found = index_.find(key); found != index_.end()) {
                hits_->add(1);
                lru_.splice(lru_.begin(), lru_, found->second);
                return found->second->second;
            }
            misses_->add(1);
        }

        Value value = compute();

        std::lock_guard<std::mutex> lock(mutex_);
        if (auto found = index_.find(key); found != index_.end()) {
            // A racing miss inserted first; keep its entry.
            lru_.splice(lru_.begin(), lru_, found->second);
            return found->second->second;
        }
        lru_.emplace_front(key, value);
        index_.emplace(key, lru_.begin());
        while (lru_.size() > capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
            evictions_->add(1);
        }
        return value;
    }

    /** Probe without computing (does not touch LRU order). */
    std::optional<Value>
    peek(const Key &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto found = index_.find(key);
        if (found == index_.end())
            return std::nullopt;
        return found->second->second;
    }

    /** Drop every entry (counters survive). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index_.clear();
        lru_.clear();
    }

    std::size_t capacity() const { return capacity_; }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return lru_.size();
    }

    /** @name Counters (monotonic over the table's lifetime). @{ */
    uint64_t hits() const { return hits_->value(); }
    uint64_t misses() const { return misses_->value(); }
    uint64_t evictions() const { return evictions_->value(); }
    /** @} */

  private:
    using LruList = std::list<std::pair<Key, Value>>;

    static telemetry::Counter *
    counterFor(const char *prefix, const char *suffix,
               telemetry::Counter &owned)
    {
        return prefix != nullptr
            ? &telemetry::registry().counter(std::string(prefix) + suffix)
            : &owned;
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    LruList lru_; //!< front = most recent
    std::unordered_map<Key, typename LruList::iterator, Hash> index_;

    /** Backing store when no metrics prefix registers the counters. */
    telemetry::Counter ownedHits_, ownedMisses_, ownedEvictions_;
    telemetry::Counter *hits_;
    telemetry::Counter *misses_;
    telemetry::Counter *evictions_;
};

} // namespace heteromap

#endif // HETEROMAP_UTIL_LRU_MEMO_HH
