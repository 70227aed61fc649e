/**
 * @file
 * Flat-frontier BFS implementation.
 */

#include "graph/frontier.hh"

#include <algorithm>
#include <atomic>
#include <bit>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace heteromap {

namespace {

/** Words needed for @p n one-bit slots. */
std::size_t
wordCount(std::size_t n)
{
    return (n + 63) / 64;
}

/**
 * Atomically claim bit @p v; @return true for the winning claimer.
 * Only pooled top-down levels need this; serial levels set bits with
 * a plain test-and-set. A relaxed load tests the bit first, so arcs
 * into already-visited vertices skip the locked read-modify-write; a
 * bit is never cleared during a level, so a set bit seen by the load
 * means the claim is lost.
 * Relaxed order suffices: levels are ordered by each level's
 * ThreadPool::parallelFor completion (release per finished chunk,
 * acquire by the caller), and within a level a claim only guards
 * first-discovery.
 */
bool
claimBit(std::vector<uint64_t> &bits, VertexId v)
{
    std::atomic_ref<uint64_t> word(bits[v >> 6]);
    const uint64_t mask = uint64_t{1} << (v & 63);
    if ((word.load(std::memory_order_relaxed) & mask) != 0)
        return false;
    return (word.fetch_or(mask, std::memory_order_relaxed) & mask) == 0;
}

bool
testBit(const std::vector<uint64_t> &bits, VertexId v)
{
    return (bits[v >> 6] >> (v & 63)) & 1u;
}

} // namespace

void
FrontierScratch::prepare(VertexId num_vertices)
{
    const std::size_t words = wordCount(num_vertices);
    visited.resize(words);
    curBits.resize(words);
    nextBits.resize(words);
    frontier.reserve(num_vertices);
    next.reserve(num_vertices);
}

void
FrontierScratch::clearVisited()
{
    std::fill(visited.begin(), visited.end(), 0);
}

void
forEachChunk(std::size_t count, ThreadPool *pool,
             const std::function<void(std::size_t, std::size_t,
                                      std::size_t)> &fn)
{
    if (count == 0)
        return;
    const std::size_t chunks = (count + kFrontierChunk - 1) / kFrontierChunk;
    if (pool == nullptr || chunks < 2) {
        for (std::size_t c = 0; c < chunks; ++c)
            fn(c, c * kFrontierChunk,
               std::min(count, (c + 1) * kFrontierChunk));
        return;
    }
    pool->parallelFor(chunks, [&](std::size_t c) {
        fn(c, c * kFrontierChunk,
           std::min(count, (c + 1) * kFrontierChunk));
    });
}

namespace {

/**
 * One top-down level: expand scratch.frontier into scratch.next.
 * Serial levels (no @p pool) append straight to scratch.next with a
 * plain bit test-and-set; pooled levels fill per-chunk discovery
 * buffers with claimBit and concatenate them in chunk order. Both
 * yield the same next frontier, in frontier-then-neighbor order.
 * @return sum of out-degrees of the next frontier (the bottom-up
 * switch signal; an integer sum, so reduction order is moot).
 */
uint64_t
topDownStep(const Graph &graph, FrontierScratch &scratch,
            uint32_t *hops, uint32_t next_level, ThreadPool *pool)
{
    scratch.next.clear();
    uint64_t next_edges = 0;
    if (pool == nullptr) {
        uint64_t *const visited = scratch.visited.data();
        for (VertexId v : scratch.frontier) {
            for (VertexId u : graph.neighbors(v)) {
                const uint64_t mask = uint64_t{1} << (u & 63);
                if ((visited[u >> 6] & mask) != 0)
                    continue;
                visited[u >> 6] |= mask;
                if (hops != nullptr)
                    hops[u] = next_level;
                scratch.next.push_back(u);
                next_edges += graph.degree(u);
            }
        }
        return next_edges;
    }

    const std::size_t chunks =
        (scratch.frontier.size() + kFrontierChunk - 1) / kFrontierChunk;
    if (scratch.chunkOut.size() < chunks)
        scratch.chunkOut.resize(chunks);

    forEachChunk(scratch.frontier.size(), pool,
                 [&](std::size_t c, std::size_t begin, std::size_t end) {
                     auto &out = scratch.chunkOut[c];
                     out.clear();
                     for (std::size_t i = begin; i < end; ++i) {
                         for (VertexId u :
                              graph.neighbors(scratch.frontier[i])) {
                             if (claimBit(scratch.visited, u)) {
                                 if (hops != nullptr)
                                     hops[u] = next_level;
                                 out.push_back(u);
                             }
                         }
                     }
                 });

    for (std::size_t c = 0; c < chunks; ++c) {
        for (VertexId u : scratch.chunkOut[c]) {
            scratch.next.push_back(u);
            next_edges += graph.degree(u);
        }
    }
    return next_edges;
}

/** Aggregates of one BFS level's next frontier. All three are
 *  order-free (integer sums, a min), so how the frontier is stored —
 *  flat array or bitmap — cannot change them. */
struct LevelStats {
    uint64_t edges = 0;        //!< sum of out-degrees
    uint64_t size = 0;         //!< vertex count
    VertexId minId = kInvalidVertex;
};

/** Rebuild the flat vertex array from a frontier bitmap (ascending
 *  vertex order), for levels that leave bitmap mode. */
void
materializeBits(const std::vector<uint64_t> &bits,
                std::vector<VertexId> &out)
{
    out.clear();
    for (std::size_t w = 0; w < bits.size(); ++w) {
        uint64_t word = bits[w];
        while (word != 0) {
            out.push_back(static_cast<VertexId>(
                w * 64 +
                static_cast<unsigned>(std::countr_zero(word))));
            word &= word - 1;
        }
    }
}

/**
 * One bottom-up level: every unvisited vertex joins the next frontier
 * when any of its (symmetric) neighbors sits in the current one.
 * Chunks own whole bitmap words, so visited/nextBits updates need no
 * atomics. Leaves the next frontier in scratch.nextBits; when
 * @p materialize is set it is also flattened into scratch.next in
 * ascending vertex order (bitmap-frontier runs skip that store and
 * keep consecutive bottom-up levels entirely in bit form).
 */
LevelStats
bottomUpStep(const Graph &graph, FrontierScratch &scratch,
             uint32_t *hops, uint32_t next_level, ThreadPool *pool,
             bool materialize)
{
    const VertexId num_vertices = graph.numVertices();
    std::fill(scratch.nextBits.begin(), scratch.nextBits.end(), 0);

    forEachChunk(
        num_vertices, pool,
        [&](std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t w = begin / 64; w * 64 < end; ++w) {
                uint64_t unvisited = ~scratch.visited[w];
                if (w == scratch.visited.size() - 1 &&
                    num_vertices % 64 != 0) {
                    // Mask the tail bits beyond the vertex range.
                    unvisited &=
                        (uint64_t{1} << (num_vertices % 64)) - 1;
                }
                while (unvisited != 0) {
                    const auto v = static_cast<VertexId>(
                        w * 64 +
                        static_cast<unsigned>(
                            std::countr_zero(unvisited)));
                    unvisited &= unvisited - 1;
                    for (VertexId u : graph.neighbors(v)) {
                        if (!testBit(scratch.curBits, u))
                            continue;
                        const uint64_t mask = uint64_t{1} << (v & 63);
                        scratch.visited[w] |= mask;
                        scratch.nextBits[w] |= mask;
                        if (hops != nullptr)
                            hops[v] = next_level;
                        break;
                    }
                }
            }
        });

    // Walk the next-frontier bits in ascending vertex order
    // (deterministic by construction) for the switch signals, and
    // flatten them only when the caller still wants the array.
    LevelStats out;
    scratch.next.clear();
    for (std::size_t w = 0; w < scratch.nextBits.size(); ++w) {
        uint64_t word = scratch.nextBits[w];
        while (word != 0) {
            const auto v = static_cast<VertexId>(
                w * 64 +
                static_cast<unsigned>(std::countr_zero(word)));
            word &= word - 1;
            if (materialize)
                scratch.next.push_back(v);
            if (out.size == 0)
                out.minId = v;
            ++out.size;
            out.edges += graph.degree(v);
        }
    }
    return out;
}

} // namespace

BfsResult
flatBfs(const Graph &graph, VertexId source, FrontierScratch &scratch,
        uint32_t *hops, const BfsOptions &options)
{
    const VertexId num_vertices = graph.numVertices();
    HM_ASSERT(source < num_vertices, "BFS source out of range");
    scratch.prepare(num_vertices);
    const bool claimed = claimBit(scratch.visited, source);
    HM_ASSERT(claimed, "flatBfs source already visited");
    if (hops != nullptr)
        hops[source] = 0;

    BfsResult result;
    result.farthest = source;
    result.reached = 1;

    scratch.frontier.assign(1, source);
    uint64_t frontier_edges = graph.degree(source);
    std::size_t frontier_size = 1;
    // In bitmap mode the current frontier lives in scratch.nextBits
    // (last level's output) instead of scratch.frontier.
    bool frontier_in_bits = false;
    bool bottom_up = false;
    uint32_t level = 0;

    while (frontier_size > 0) {
        // Direction choice depends only on deterministic counts, so
        // every thread count walks the identical level sequence.
        if (!bottom_up && options.allowBottomUp &&
            frontier_edges >
                graph.numEdges() / options.bottomUpEdgeDivisor) {
            bottom_up = true;
        } else if (bottom_up &&
                   frontier_size <
                       num_vertices / options.topDownSizeDivisor) {
            bottom_up = false;
        }

        // Fan out only when the level carries real work; thresholds
        // cannot affect results, only the schedule.
        const std::size_t work =
            bottom_up ? num_vertices : frontier_size + frontier_edges;
        ThreadPool *pool = work >= kParallelGrain ? options.pool : nullptr;

        VertexId min_id = kInvalidVertex;
        if (bottom_up) {
            if (frontier_in_bits) {
                // Previous level's bits become this level's frontier.
                std::swap(scratch.curBits, scratch.nextBits);
            } else {
                std::fill(scratch.curBits.begin(),
                          scratch.curBits.end(), 0);
                for (VertexId v : scratch.frontier)
                    scratch.curBits[v >> 6] |= uint64_t{1} << (v & 63);
            }
            const LevelStats next = bottomUpStep(
                graph, scratch, hops, level + 1, pool,
                /*materialize=*/!options.bitmapFrontier);
            frontier_edges = next.edges;
            frontier_size = next.size;
            min_id = next.minId;
            if (options.bitmapFrontier) {
                frontier_in_bits = true;
            } else {
                std::swap(scratch.frontier, scratch.next);
                frontier_in_bits = false;
            }
        } else {
            if (frontier_in_bits) {
                // Narrowed out of bitmap mode: rebuild the array once.
                materializeBits(scratch.nextBits, scratch.frontier);
                frontier_in_bits = false;
            }
            frontier_edges =
                topDownStep(graph, scratch, hops, level + 1, pool);
            std::swap(scratch.frontier, scratch.next);
            frontier_size = scratch.frontier.size();
            if (frontier_size > 0)
                min_id = *std::min_element(scratch.frontier.begin(),
                                           scratch.frontier.end());
        }

        if (frontier_size == 0)
            break;
        ++level;
        result.reached += frontier_size;
        result.farthest = min_id;
    }
    result.depth = level;
    return result;
}

BfsResult
eccentricityProbe(const Graph &graph, VertexId source,
                  ProbeScratch &scratch)
{
    const VertexId num_vertices = graph.numVertices();
    HM_ASSERT(source < num_vertices, "BFS source out of range");
    scratch.queue.resize(std::size_t{num_vertices} + 1);
    scratch.dist.assign(num_vertices, UINT32_MAX);
    VertexId *const queue = scratch.queue.data();
    uint32_t *const dist = scratch.dist.data();
    const EdgeId *const offsets = graph.offsets().data();
    const VertexId *const nbrs = graph.rawNeighbors().data();

    queue[0] = source;
    dist[source] = 0;
    std::size_t head = 0;
    std::size_t tail = 1;
    while (head < tail) {
        const VertexId v = queue[head++];
        const uint32_t next_level = dist[v] + 1;
        for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
            // Store unconditionally and advance the tail only for an
            // unreached vertex, so the unpredictable reached test is
            // data, not a branch. A reached u already sits at most
            // one level below v, so the min leaves it unchanged; a
            // ternary here compiles back into the branch.
            const VertexId u = nbrs[e];
            const uint32_t du = dist[u];
            queue[tail] = u;
            tail += du == UINT32_MAX;
            dist[u] = std::min(du, next_level);
        }
    }

    // FIFO order is level order, so the deepest level is the queue's
    // suffix; its minimum id is the farthest vertex.
    BfsResult result;
    result.reached = tail;
    result.depth = dist[queue[tail - 1]];
    result.farthest = queue[tail - 1];
    for (std::size_t i = tail - 1;
         i > 0 && dist[queue[i - 1]] == result.depth; --i)
        result.farthest = std::min(result.farthest, queue[i - 1]);
    return result;
}

TraversalPlan
planTraversal(uint64_t num_vertices, uint64_t num_edges,
              double avg_degree, double degree_stddev)
{
    TraversalPlan plan;
    if (num_vertices < 2 || num_edges == 0) {
        plan.useBottomUp = false;
        return plan;
    }
    // Road-network-like graphs (near-uniform low degree, long
    // diameter): frontiers never get wide enough for a bottom-up
    // level to beat top-down, so rule it out before anyone pays the
    // O(V + E) symmetry precheck it would require.
    if (avg_degree < 2.0) {
        plan.useBottomUp = false;
        return plan;
    }
    // Power-law / dense graphs: the frontier explodes within a few
    // levels. Switch bottom-up eagerly (smaller edge threshold), hold
    // it until the frontier is genuinely narrow again, and keep the
    // wide levels in bitmap form instead of re-materializing vertex
    // arrays.
    const double skew =
        degree_stddev / std::max(avg_degree, 1e-9);
    if (skew >= 1.0 || avg_degree >= 16.0) {
        plan.bottomUpEdgeDivisor = 20;
        plan.topDownSizeDivisor = 48;
        plan.bitmapFrontier = true;
    }
    return plan;
}

} // namespace heteromap
