/**
 * @file
 * Memoized GraphStats: a thread-safe, bounded LRU cache keyed by the
 * graph's content fingerprint (Graph::fingerprint(), computed once
 * when the graph is built), so repeat deployments of a known graph
 * skip measurement (the dominant online cost for large inputs)
 * entirely. Two Graph objects holding the same CSR arrays hit the
 * same entry; see graph/graph.hh for the fingerprint scheme and its
 * collision semantics.
 *
 * Measurement parameters (sweeps, seed) are part of the cache key:
 * the same graph measured at different diameter-probe budgets yields
 * different stats and must not share an entry.
 */

#ifndef HETEROMAP_GRAPH_STATS_CACHE_HH
#define HETEROMAP_GRAPH_STATS_CACHE_HH

#include <cstdint>
#include <optional>

#include "graph/props.hh"
#include "util/lru_memo.hh"

namespace heteromap {

/** Bounded, thread-safe LRU memo cache for measureGraph results. */
class GraphStatsCache
{
  public:
    /**
     * Full key: structure plus measurement parameters. Two requests
     * with equal keys measure to identical stats, so the serving
     * batcher coalesces on it too (serve::BatchKey).
     */
    struct Key {
        GraphFingerprint fingerprint;
        unsigned sweeps = 0;
        uint64_t seed = 0;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash {
        std::size_t operator()(const Key &key) const;
    };

    /**
     * Key @p graph under @p options. threads and statsBlock are not
     * part of it: every thread count and blocking factor measures
     * identical stats.
     */
    static Key makeKey(const Graph &graph, const MeasureOptions &options);

    /** Default entry bound for the global cache. */
    static constexpr std::size_t kDefaultCapacity = 64;

    /** @param capacity Entry bound (LRU evicts beyond it). */
    explicit GraphStatsCache(std::size_t capacity = kDefaultCapacity);

    /**
     * Memoized measureGraph: return the cached stats for @p graph's
     * fingerprint on a hit, otherwise measure under @p options and
     * cache the result. Safe to call concurrently; a miss measures
     * outside the lock (two racing misses on one graph both measure
     * — the results are identical by the determinism contract, and
     * one insert wins). When @p hit is non-null it receives whether
     * the lookup counted as a hit.
     */
    GraphStats measure(const Graph &graph,
                       const MeasureOptions &options = {},
                       bool *hit = nullptr);

    /** Cache probe without measuring (does not touch LRU order). */
    std::optional<GraphStats> peek(const Graph &graph,
                                   const MeasureOptions &options = {}) const;

    /** Drop every entry (counters survive). */
    void clear() { memo_.clear(); }

    std::size_t capacity() const { return memo_.capacity(); }

    /** @name Counters (monotonic over the cache lifetime). @{ */
    uint64_t hits() const { return memo_.hits(); }
    uint64_t misses() const { return memo_.misses(); }
    uint64_t evictions() const { return memo_.evictions(); }
    std::size_t size() const { return memo_.size(); }
    /** @} */

  private:
    BoundedLruMemo<Key, GraphStats, KeyHash> memo_;
};

/**
 * The process-wide cache every online path shares: HeteroMap's
 * predict entry point, the training sweep's corpus measurement, the
 * dataset registry, and the streaming-chunk example. Its counters
 * are the registry's "stats_cache.hits" / ".misses" / ".evictions".
 */
GraphStatsCache &globalStatsCache();

} // namespace heteromap

#endif // HETEROMAP_GRAPH_STATS_CACHE_HH
