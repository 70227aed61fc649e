/**
 * @file
 * Memoized workload execution: a thread-safe, bounded LRU cache of
 * the WorkloadProfile a workload records on a graph, so the online
 * path (HeteroMap::featurizeAndDeploy) builds a case without re-running
 * the instrumented graph algorithm (core/oracle.hh assembleCase).
 *
 * Key: the workload's shared_ptr identity plus the graph's content
 * fingerprint (Graph::fingerprint()) and edge-weight hash
 * (Graph::weightsHash()) — the fingerprint alone leaves out weight
 * values, which workloads read. Each entry pins its workload
 * shared_ptr, so a freed workload's address can never be reused by a
 * different workload while the entry lives. Names are not keys:
 * distinct workloads may share one (SyntheticWorkload::name() keeps
 * only 16 seed bits). Measurement parameters (sweeps, seed) are not
 * part of the key — the profile depends only on the workload and the
 * graph it executes on. Only the profile is cached, not the
 * WorkloadOutput the run also produces.
 *
 * Same discipline as GraphStatsCache (util/lru_memo.hh): a miss runs
 * the workload outside the lock, and racing misses converge on one
 * entry — the executor is deterministic, so they record identical
 * profiles.
 */

#ifndef HETEROMAP_WORKLOADS_PROFILE_CACHE_HH
#define HETEROMAP_WORKLOADS_PROFILE_CACHE_HH

#include <cstdint>
#include <memory>

#include "util/lru_memo.hh"
#include "workloads/workload.hh"

namespace heteromap {

/** Bounded, thread-safe LRU memo cache for executed profiles. */
class ProfileCache
{
  public:
    /** Default entry bound: each service's cache and the global one. */
    static constexpr std::size_t kDefaultCapacity = 64;

    /** @param capacity Entry bound (LRU evicts beyond it). */
    explicit ProfileCache(std::size_t capacity = kDefaultCapacity);

    /**
     * The profile @p workload records on @p graph: cached, or
     * executed (outside the lock) and cached.
     */
    std::shared_ptr<const WorkloadProfile>
    profile(const std::shared_ptr<const Workload> &workload,
            const Graph &graph);

    void clear() { memo_.clear(); }

    std::size_t capacity() const { return memo_.capacity(); }

    /** @name Counters (monotonic over the cache lifetime). @{ */
    uint64_t hits() const { return memo_.hits(); }
    uint64_t misses() const { return memo_.misses(); }
    uint64_t evictions() const { return memo_.evictions(); }
    std::size_t size() const { return memo_.size(); }
    /** @} */

  private:
    struct Key {
        std::shared_ptr<const Workload> workload; //!< pinned identity
        GraphFingerprint fingerprint;
        uint64_t weightsHash = 0;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash {
        std::size_t operator()(const Key &key) const;
    };

    BoundedLruMemo<Key, std::shared_ptr<const WorkloadProfile>, KeyHash>
        memo_;
};

/** The process-wide cache HeteroMap::predict featurizes through. */
ProfileCache &globalProfileCache();

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_PROFILE_CACHE_HH
