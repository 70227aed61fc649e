/**
 * @file
 * Graph property measurement implementation. The sweeps share the
 * traversal kernels of graph/frontier.hh and the fixed-chunk
 * reduction discipline that makes results thread-count-invariant.
 */

#include "graph/props.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "graph/frontier.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace heteromap {

std::string
GraphStats::toString() const
{
    std::ostringstream oss;
    oss << "V=" << numVertices << " E=" << numEdges
        << " maxDeg=" << maxDegree << " avgDeg=" << avgDegree
        << " dia=" << diameter;
    return oss.str();
}

std::vector<uint32_t>
bfsHops(const Graph &graph, VertexId source)
{
    HM_ASSERT(source < graph.numVertices(), "BFS source out of range");
    std::vector<uint32_t> hops(graph.numVertices(), UINT32_MAX);
    FrontierScratch scratch;
    scratch.prepare(graph.numVertices());
    scratch.clearVisited();
    // Serial and top-down only: the public contract follows out-arcs
    // and cannot assume the symmetry bottom-up steps require.
    flatBfs(graph, source, scratch, hops.data());
    return hops;
}

bool
hasSymmetricAdjacency(const Graph &graph)
{
    const VertexId num_vertices = graph.numVertices();
    if (num_vertices == 0)
        return true;
    const EdgeId *const offsets = graph.offsets().data();
    const VertexId *const nbrs = graph.rawNeighbors().data();
    // cursor[u] is the next unmatched slot of N(u). Sources v arrive
    // in ascending order, so on sorted symmetric lists each arc v->u
    // finds v exactly at u's cursor. Every match consumes a distinct
    // reverse slot, so matching all E arcs consumes all E slots and
    // pairs the arcs one-to-one with their reverses, sorted or not.
    // That is also why no closing sweep over the cursors is needed:
    // after E matches, every cursor already sits at its list end.
    std::vector<EdgeId> cursor(offsets, offsets + num_vertices);
    for (VertexId v = 0; v < num_vertices; ++v) {
        for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
            const VertexId u = nbrs[e];
            const EdgeId c = cursor[u];
            if (c == offsets[u + 1] || nbrs[c] != v)
                return false;
            cursor[u] = c + 1;
        }
    }
    return true;
}

namespace {

/**
 * Best of @p sweeps double sweeps, each BFS run by traverse(source).
 * Double sweep: farthest vertex from a random start, then the
 * eccentricity of that vertex, which is exact on trees and a tight
 * lower bound in general. The farthest vertex falls out of the
 * traversal itself (min id of the deepest level, the same vertex the
 * old O(V) argmax scan produced).
 */
template <typename Traverse>
uint64_t
doubleSweeps(const Graph &graph, unsigned sweeps, uint64_t seed,
             Traverse &&traverse)
{
    Rng rng(seed);
    uint64_t best = 0;
    for (unsigned i = 0; i < std::max(1u, sweeps); ++i) {
        auto start =
            static_cast<VertexId>(rng.nextBounded(graph.numVertices()));
        const BfsResult first = traverse(start);
        best = std::max<uint64_t>(best, traverse(first.farthest).depth);
    }
    return best;
}

uint64_t
diameterSweeps(const Graph &graph, unsigned sweeps, uint64_t seed,
               ThreadPool *pool, const GraphStats *stats = nullptr)
{
    if (graph.numVertices() < 2 || graph.numEdges() == 0)
        return 0;
    if (traversalNeverFansOut(graph)) {
        // No level would fan out, so run the serial probe: the same
        // depth and farthest vertex, without the bitmap and frontier
        // bookkeeping a fan-out needs.
        ProbeScratch scratch;
        return doubleSweeps(graph, sweeps, seed, [&](VertexId source) {
            return eccentricityProbe(graph, source, scratch);
        });
    }
    // Model-driven traversal selection: the degree stats measured
    // just before these sweeps pick the direction-switch thresholds
    // and frontier layout (see planTraversal). Thresholds steer only
    // the schedule — hop levels, depth, and farthest vertex are
    // byte-identical for every plan.
    TraversalPlan plan;
    if (stats != nullptr)
        plan = planTraversal(stats->numVertices, stats->numEdges,
                             stats->avgDegree, stats->degreeStddev);
    BfsOptions options;
    options.pool = pool;
    if (plan.useBottomUp) {
        // Bottom-up levels are only sound on symmetric adjacency;
        // check once (a serial O(V + E) early-exit pass) and amortize
        // it over the 2 * sweeps O(E) traversals it can accelerate.
        // When the plan rules bottom-up out (sparse road-like graphs),
        // the whole check is skipped.
        options.allowBottomUp = hasSymmetricAdjacency(graph);
        options.bottomUpEdgeDivisor = plan.bottomUpEdgeDivisor;
        options.topDownSizeDivisor = plan.topDownSizeDivisor;
        options.bitmapFrontier = plan.bitmapFrontier;
    }

    FrontierScratch scratch;
    return doubleSweeps(graph, sweeps, seed, [&](VertexId source) {
        scratch.clearVisited();
        return flatBfs(graph, source, scratch, nullptr, options);
    });
}

/** Default cache-blocking factor for the degree/stats sweep: 256
 *  vertices touch 257 offsets = ~2 KiB of the offsets array, well
 *  inside L1 alongside the accumulator lanes. */
constexpr std::size_t kDefaultStatsBlock = 256;

/** Exact integer partials of one vertex range's degree scan. */
struct DegreePartial {
    uint64_t sum = 0;
    uint64_t sumSq = 0;
    uint64_t max = 0;
};

/**
 * Scan degrees of [begin, end) straight off the CSR offsets array in
 * cache-sized blocks of four independent accumulator lanes. All
 * arithmetic is exact (uint64), so any blocking factor, lane count,
 * or combine order produces the identical partial.
 */
DegreePartial
scanDegrees(const EdgeId *__restrict offsets, std::size_t begin,
            std::size_t end, std::size_t block)
{
    DegreePartial total;
    uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    uint64_t q0 = 0, q1 = 0, q2 = 0, q3 = 0;
    uint64_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
    for (std::size_t base = begin; base < end; base += block) {
        const std::size_t stop = std::min(end, base + block);
        std::size_t i = base;
        for (; i + 4 <= stop; i += 4) {
            const uint64_t d0 = offsets[i + 1] - offsets[i];
            const uint64_t d1 = offsets[i + 2] - offsets[i + 1];
            const uint64_t d2 = offsets[i + 3] - offsets[i + 2];
            const uint64_t d3 = offsets[i + 4] - offsets[i + 3];
            s0 += d0; s1 += d1; s2 += d2; s3 += d3;
            q0 += d0 * d0; q1 += d1 * d1;
            q2 += d2 * d2; q3 += d3 * d3;
            m0 = std::max(m0, d0); m1 = std::max(m1, d1);
            m2 = std::max(m2, d2); m3 = std::max(m3, d3);
        }
        for (; i < stop; ++i) {
            const uint64_t d = offsets[i + 1] - offsets[i];
            s0 += d;
            q0 += d * d;
            m0 = std::max(m0, d);
        }
    }
    total.sum = s0 + s1 + s2 + s3;
    total.sumSq = q0 + q1 + q2 + q3;
    total.max = std::max(std::max(m0, m1), std::max(m2, m3));
    return total;
}

/**
 * Fused single pass over the CSR offsets: maximum degree plus the
 * exact integer degree moments (sum, sum of squares), reduced per
 * fixed chunk. Because every partial is an exact integer, the result
 * is byte-identical for any thread count AND any blocking factor —
 * the one floating-point step is the final variance expansion
 *
 *   var = sum(d^2) - 2*avg*sum(d) + n*avg^2
 *
 * evaluated once from the combined integers. A uniform-degree graph
 * still yields exactly 0.0: with avg = d exact, the three terms are
 * n*d^2, 2*n*d^2, n*d^2 and cancel exactly.
 */
void
degreeSweep(const Graph &graph, GraphStats &stats, ThreadPool *pool,
            std::size_t stats_block)
{
    const auto num_vertices =
        static_cast<std::size_t>(graph.numVertices());
    if (num_vertices == 0)
        return;
    const std::size_t block =
        stats_block == 0 ? kDefaultStatsBlock : stats_block;
    const EdgeId *const offsets = graph.offsets().data();

    const std::size_t chunks =
        (num_vertices + kFrontierChunk - 1) / kFrontierChunk;
    std::vector<DegreePartial> partials(chunks);

    forEachChunk(num_vertices,
                 num_vertices >= kParallelGrain ? pool : nullptr,
                 [&](std::size_t c, std::size_t begin, std::size_t end) {
                     partials[c] =
                         scanDegrees(offsets, begin, end, block);
                 });

    DegreePartial total;
    for (const DegreePartial &p : partials) {
        total.sum += p.sum;
        total.sumSq += p.sumSq;
        total.max = std::max(total.max, p.max);
    }
    stats.maxDegree = std::max(stats.maxDegree, total.max);
    const double n = static_cast<double>(num_vertices);
    const double avg = stats.avgDegree;
    const double var = static_cast<double>(total.sumSq) -
                       2.0 * avg * static_cast<double>(total.sum) +
                       n * avg * avg;
    stats.degreeStddev = std::sqrt(std::max(0.0, var) / n);
}

GraphStats
measureWith(const Graph &graph, const MeasureOptions &options,
            ThreadPool *pool)
{
    GraphStats stats;
    stats.numVertices = graph.numVertices();
    stats.numEdges = graph.numEdges();
    stats.avgDegree = graph.avgDegree();
    stats.footprintBytes = graph.footprintBytes();
    degreeSweep(graph, stats, pool, options.statsBlock);
    if (options.sweeps > 0)
        stats.diameter = diameterSweeps(graph, options.sweeps,
                                        options.seed, pool, &stats);
    return stats;
}

} // namespace

GraphStats
measureGraph(const Graph &graph, const MeasureOptions &options)
{
    // threads only picks the schedule; measureWith's output is
    // byte-identical for every resolution below.
    if (options.threads == 1)
        return measureWith(graph, options, nullptr);
    if (options.threads == 0) {
        ThreadPool &shared = ThreadPool::shared();
        if (shared.threadCount() <= 1)
            return measureWith(graph, options, nullptr);
        return measureWith(graph, options, &shared);
    }
    // The caller runs chunks too, so N threads is N - 1 pool workers.
    ThreadPool pool(options.threads - 1);
    return measureWith(graph, options, &pool);
}

GraphStats
measureGraph(const Graph &graph, unsigned sweeps, uint64_t seed)
{
    MeasureOptions options;
    options.sweeps = sweeps;
    options.seed = seed;
    return measureGraph(graph, options);
}

uint64_t
approximateDiameter(const Graph &graph, unsigned sweeps, uint64_t seed)
{
    ThreadPool &shared = ThreadPool::shared();
    if (shared.threadCount() <= 1)
        return diameterSweeps(graph, sweeps, seed, nullptr);
    return diameterSweeps(graph, sweeps, seed, &shared);
}

uint64_t
countComponents(const Graph &graph)
{
    FrontierScratch scratch;
    scratch.prepare(graph.numVertices());
    scratch.clearVisited();
    uint64_t components = 0;
    // Successive flood fills share one visited bitmap: flatBfs skips
    // nothing itself, the seed scan below simply never re-seeds a
    // vertex an earlier component already claimed.
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        if (scratch.isVisited(v))
            continue;
        ++components;
        flatBfs(graph, v, scratch, nullptr);
    }
    return components;
}

} // namespace heteromap
