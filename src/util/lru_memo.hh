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
 * (plain structs, or a shared_ptr to something larger). The table
 * owns its hit/miss/eviction counters.
 */

#ifndef HETEROMAP_UTIL_LRU_MEMO_HH
#define HETEROMAP_UTIL_LRU_MEMO_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace heteromap {

template <typename Key, typename Value, typename Hash>
class BoundedLruMemo
{
  public:
    /** @param capacity Entry bound (> 0); LRU evicts beyond it. */
    explicit BoundedLruMemo(std::size_t capacity) : capacity_(capacity)
    {
        HM_ASSERT(capacity > 0, "LRU memo needs a positive capacity");
    }

    /**
     * The cached value for @p key (a hit refreshes its LRU slot),
     * or compute() run outside the lock and inserted. When @p hit is
     * non-null it receives whether this lookup counted as a hit; a
     * miss that finds a racing miss's entry stays a miss.
     */
    template <typename Compute>
    Value
    getOrCompute(const Key &key, Compute &&compute, bool *hit = nullptr)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto found = index_.find(key);
            if (hit != nullptr)
                *hit = found != index_.end();
            if (found != index_.end()) {
                hits_.add(1);
                lru_.splice(lru_.begin(), lru_, found->second);
                return found->second->second;
            }
            misses_.add(1);
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
            evictions_.add(1);
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
    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    uint64_t evictions() const { return evictions_.value(); }
    /** @} */

  private:
    using LruList = std::list<std::pair<Key, Value>>;

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    LruList lru_; //!< front = most recent
    std::unordered_map<Key, typename LruList::iterator, Hash> index_;
    telemetry::Counter hits_, misses_, evictions_;
};

} // namespace heteromap

#endif // HETEROMAP_UTIL_LRU_MEMO_HH
