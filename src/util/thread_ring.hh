/**
 * @file
 * ThreadRingCollector: the per-thread rings behind trace spans
 * (util/trace.hh) and the flight recorder (util/flight_recorder.hh).
 *
 * A thread's first push adopts a fixed-capacity ring behind a mutex
 * that only the drainer contends, so a push takes one uncontended
 * lock. A full ring overwrites its oldest record and counts the drop
 * under that same lock. An exiting thread retires its ring's records
 * and counts into the collector, so a collector must outlive every
 * thread that pushes to it: keep each one in a leaked singleton.
 */

#ifndef HETEROMAP_UTIL_THREAD_RING_HH
#define HETEROMAP_UTIL_THREAD_RING_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/telemetry.hh"

namespace heteromap {
namespace telemetry {

/** Per-thread rings of T, drained in order of T's @p Timestamp. */
template <typename T, uint64_t T::*Timestamp>
class ThreadRingCollector
{
  public:
    /**
     * @param capacity       Records a ring keeps (at least 1).
     * @param dropped_metric When non-null, a registry counter source
     *                       reports dropped() under this name.
     */
    explicit ThreadRingCollector(std::size_t capacity,
                                 const char *dropped_metric = nullptr)
        : capacity_(std::max<std::size_t>(1, capacity))
    {
        if (dropped_metric != nullptr) {
            registry().addCounterSource([this, dropped_metric] {
                return CounterReadings{{dropped_metric, dropped()}};
            });
        }
    }

    /** Append @p record to the calling thread's ring. */
    void
    push(const T &record)
    {
        Ring &ring = localRing();
        std::lock_guard<std::mutex> lock(ring.mutex);
        ++ring.pushed;
        if (ring.records.size() <
            capacity_.load(std::memory_order_relaxed)) {
            ring.records.push_back(record);
            return;
        }
        ring.records[ring.next] = record;
        ring.next = (ring.next + 1) % ring.records.size();
        ++ring.dropped;
    }

    /** The calling thread's ring id: 1, 2, ... in adoption order. */
    uint32_t threadId() { return localRing().id; }

    /** Take every buffered record, live and retired, by timestamp. */
    std::vector<T>
    drain()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<T> out = std::move(retired_.records);
        retired_.records.clear();
        for (const auto &ring : live_) {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            ring->takeLocked(out);
        }
        std::stable_sort(out.begin(), out.end(),
                         [](const T &a, const T &b) {
                             return a.*Timestamp < b.*Timestamp;
                         });
        return out;
    }

    /**
     * Discard every buffered record, free ring storage, and keep
     * @p capacity records per ring from now on. Counts survive.
     */
    void
    clear(std::size_t capacity)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        capacity_.store(std::max<std::size_t>(1, capacity),
                        std::memory_order_relaxed);
        retired_.records = {};
        for (const auto &ring : live_) {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            ring->records = {};
            ring->next = 0;
        }
    }

    /** @name Lifetime totals over every thread. @{ */
    uint64_t pushed() const { return total(&Ring::pushed); }
    uint64_t dropped() const { return total(&Ring::dropped); }
    /** @} */

  private:
    struct Ring {
        std::mutex mutex;
        std::vector<T> records;
        std::size_t next = 0; //!< the oldest record once full
        uint64_t pushed = 0;
        uint64_t dropped = 0;
        uint32_t id = 0;

        /** Move the records, oldest first, to the end of @p out. */
        void
        takeLocked(std::vector<T> &out)
        {
            const auto oldest = records.begin() + long(next);
            out.insert(out.end(), oldest, records.end());
            out.insert(out.end(), records.begin(), oldest);
            records.clear();
            next = 0;
        }
    };

    /** The calling thread's rings, retired into their owners at exit. */
    struct ThreadRings {
        std::vector<std::pair<ThreadRingCollector *, Ring *>> rings;

        ~ThreadRings()
        {
            for (const auto &[owner, ring] : rings)
                owner->retire(ring);
        }
    };

    Ring &
    localRing()
    {
        thread_local ThreadRings mine;
        for (const auto &[owner, ring] : mine.rings) {
            if (owner == this)
                return *ring;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        live_.push_back(std::make_unique<Ring>());
        live_.back()->id = nextId_++;
        mine.rings.emplace_back(this, live_.back().get());
        return *live_.back();
    }

    void
    retire(Ring *ring)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            ring->takeLocked(retired_.records);
            retired_.pushed += ring->pushed;
            retired_.dropped += ring->dropped;
        }
        live_.erase(std::find_if(
            live_.begin(), live_.end(),
            [ring](const auto &owned) { return owned.get() == ring; }));
    }

    uint64_t
    total(uint64_t Ring::*count) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        uint64_t sum = retired_.*count;
        for (const auto &ring : live_) {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            sum += (*ring).*count;
        }
        return sum;
    }

    std::atomic<std::size_t> capacity_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Ring>> live_;
    Ring retired_; //!< exited threads' records and counts
    uint32_t nextId_ = 1;
};

} // namespace telemetry
} // namespace heteromap

#endif // HETEROMAP_UTIL_THREAD_RING_HH
