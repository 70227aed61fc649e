/**
 * @file
 * GraphStats memo cache implementation.
 */

#include "graph/stats_cache.hh"

#include "util/checksum.hh"

namespace heteromap {

std::size_t
GraphStatsCache::KeyHash::operator()(const Key &key) const
{
    const uint64_t h = mix64(mixFingerprint(key.fingerprint) ^ key.sweeps);
    return static_cast<std::size_t>(mix64(h ^ key.seed));
}

GraphStatsCache::Key
GraphStatsCache::makeKey(const Graph &graph,
                         const MeasureOptions &options)
{
    return {graph.fingerprint(), options.sweeps, options.seed};
}

GraphStatsCache::GraphStatsCache(std::size_t capacity) : memo_(capacity) {}

GraphStats
GraphStatsCache::measure(const Graph &graph,
                         const MeasureOptions &options, bool *hit)
{
    // Measure outside the lock: the graph sweep is the expensive
    // part, and racing misses converge on identical stats anyway.
    return memo_.getOrCompute(
        makeKey(graph, options),
        [&] { return measureGraph(graph, options); }, hit);
}

std::optional<GraphStats>
GraphStatsCache::peek(const Graph &graph,
                      const MeasureOptions &options) const
{
    return memo_.peek(makeKey(graph, options));
}

GraphStatsCache &
globalStatsCache()
{
    // The global cache is the one whose counters back the
    // "stats_cache.*" registry metrics; private caches stay
    // unregistered so tests don't pollute the process snapshot.
    static GraphStatsCache cache;
    static telemetry::ScopedCounterSource source([] {
        return telemetry::CounterReadings{
            {"stats_cache.hits", cache.hits()},
            {"stats_cache.misses", cache.misses()},
            {"stats_cache.evictions", cache.evictions()},
        };
    });
    return cache;
}

} // namespace heteromap
