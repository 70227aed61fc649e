/**
 * @file
 * Shared flat-frontier BFS machinery: swap-buffer frontiers over a
 * visited bitmap with an optional direction-optimizing (top-down /
 * bottom-up) switch and optional fan-out over a ThreadPool. Hop
 * distances, component flood fills and the diameter double sweeps of
 * graphs large enough to fan out run on this substrate. Graphs too
 * small to ever fan out take eccentricityProbe(), a serial FIFO
 * kernel that returns the same depth, farthest vertex and reach.
 *
 * Determinism contract: a traversal's observable outputs (hop levels,
 * farthest vertex, reached count) are byte-identical for any thread
 * count. Work is split into fixed-size chunks whose partial results
 * are combined in chunk-index order, so the schedule can vary but the
 * reduction order cannot; hop levels themselves are unique per vertex
 * in a level-synchronous BFS, and the "farthest" vertex is defined as
 * the minimum-id member of the deepest level — an order-free min.
 *
 * Visited-bit updates: a level that runs serially (no pool, or less
 * than kParallelGrain work) sets bits with a plain test-and-set. Only
 * pooled top-down levels claim bits atomically, and they test the bit
 * with a relaxed load before the fetch_or, so arcs into visited
 * vertices skip the locked read-modify-write. Bottom-up chunks own
 * whole bitmap words and need neither.
 */

#ifndef HETEROMAP_GRAPH_FRONTIER_HH
#define HETEROMAP_GRAPH_FRONTIER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.hh"

namespace heteromap {

class ThreadPool;

/**
 * Fixed chunk geometry for every parallel sweep. The chunk size is a
 * multiple of 64 so a bitmap word never straddles two chunks (letting
 * bottom-up steps touch their word range without atomics), and it is
 * a constant — never derived from the thread count — because the
 * chunk decomposition defines the deterministic reduction order.
 */
inline constexpr std::size_t kFrontierChunk = 2048;

/** Minimum per-level work (vertices or edges) worth fanning out. */
inline constexpr std::size_t kParallelGrain = 16384;

/** True when no flatBfs level over @p graph can carry kParallelGrain
 *  work (a level does at most V + E), so a pool would never be used.
 *  Such graphs take the serial eccentricityProbe for their diameter. */
inline bool
traversalNeverFansOut(const Graph &graph)
{
    return uint64_t{graph.numVertices()} + graph.numEdges() <
           kParallelGrain;
}

/** Default direction-switch thresholds (Beamer-style alpha/beta):
 *  go bottom-up when the frontier's out-edges exceed E / alpha, back
 *  top-down when the frontier shrinks below V / beta. */
inline constexpr uint64_t kBottomUpEdgeDivisor = 14;
inline constexpr uint64_t kTopDownSizeDivisor = 24;

/**
 * Run fn(chunk_index, begin, end) over [0, count) in kFrontierChunk
 * slices — on @p pool when given, inline otherwise. The caller must
 * make chunks independent; combining any per-chunk partials in chunk
 * order is what keeps results thread-count-invariant.
 */
void forEachChunk(std::size_t count, ThreadPool *pool,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)> &fn);

/**
 * Reusable traversal buffers. prepare() sizes them for a vertex
 * count (zero-filling only newly grown storage); clearVisited()
 * resets the visited bitmap so the same scratch can serve many BFS
 * runs without reallocating. flatBfs() deliberately does NOT clear
 * the bitmap itself: component counting seeds successive traversals
 * into the same bitmap to skip already-flooded regions.
 */
struct FrontierScratch {
    std::vector<uint64_t> visited;  //!< one bit per vertex
    std::vector<uint64_t> curBits;  //!< current frontier (bottom-up)
    std::vector<uint64_t> nextBits; //!< next frontier (bottom-up)
    std::vector<VertexId> frontier; //!< current frontier, flat array
    std::vector<VertexId> next;     //!< next frontier, flat array
    /** Per-chunk discovery buffers for pooled top-down steps. */
    std::vector<std::vector<VertexId>> chunkOut;

    /** Size buffers for @p num_vertices (keeps existing capacity). */
    void prepare(VertexId num_vertices);

    /** Zero the visited bitmap. */
    void clearVisited();

    /** @return true when @p v is marked visited. */
    bool
    isVisited(VertexId v) const
    {
        return (visited[v >> 6] >> (v & 63)) & 1u;
    }
};

/** Knobs for one flatBfs() run. */
struct BfsOptions {
    /**
     * Permit bottom-up levels. Only valid when the adjacency is
     * symmetric (u in N(v) iff v in N(u)): a bottom-up step asks
     * "does unvisited v have a parent in the frontier" by scanning
     * v's *out*-neighbors, which is its in-neighborhood only under
     * symmetry. Callers assert this (see hasSymmetricAdjacency).
     */
    bool allowBottomUp = false;

    /** Fan traversal levels over this pool (nullptr = serial). */
    ThreadPool *pool = nullptr;

    /**
     * Direction-switch thresholds. These (and bitmapFrontier) steer
     * only the traversal schedule, never the observable outputs: a
     * level-synchronous BFS assigns each vertex the same hop level in
     * either direction, and farthest/reached are order-free, so any
     * threshold choice is byte-identical to any other.
     */
    uint64_t bottomUpEdgeDivisor = kBottomUpEdgeDivisor;
    uint64_t topDownSizeDivisor = kTopDownSizeDivisor;

    /**
     * Keep wide frontiers as bitmaps between consecutive bottom-up
     * levels instead of materializing the flat vertex array each
     * level — the array is rebuilt only when the traversal narrows
     * back to top-down.
     */
    bool bitmapFrontier = false;
};

/**
 * Measured-property-driven traversal policy (after the density /
 * degree-distribution selection of arXiv:1708.01159): graph shape
 * picks the direction-switch thresholds and the frontier layout
 * before the first level runs.
 */
struct TraversalPlan {
    /** False when bottom-up can never pay (sparse, high-diameter
     *  graphs whose frontiers stay narrow) — which also lets callers
     *  skip the O(V + E) symmetry precheck bottom-up requires. */
    bool useBottomUp = true;
    uint64_t bottomUpEdgeDivisor = kBottomUpEdgeDivisor;
    uint64_t topDownSizeDivisor = kTopDownSizeDivisor;
    bool bitmapFrontier = false;
};

/**
 * Derive a TraversalPlan from measured graph properties. Density
 * (average degree) below ~2 marks road-network-like graphs: disable
 * bottom-up outright. High degree skew (stddev >= avg) or dense
 * graphs mark power-law inputs: switch bottom-up eagerly, hold it
 * longer, and keep the wide frontiers in bitmap form.
 */
TraversalPlan planTraversal(uint64_t num_vertices, uint64_t num_edges,
                            double avg_degree, double degree_stddev);

/** Outputs of one flatBfs() run. */
struct BfsResult {
    /**
     * Minimum-id vertex of the deepest BFS level (the source itself
     * when nothing else is reachable) — the double-sweep diameter
     * probe's next start, tracked inside the traversal instead of by
     * an extra O(V) scan over the hop array.
     */
    VertexId farthest = kInvalidVertex;
    uint32_t depth = 0;    //!< eccentricity of the source (hop levels)
    uint64_t reached = 0;  //!< vertices visited by this run
};

/**
 * Level-synchronous BFS from @p source over out-arcs. Marks every
 * reached vertex in scratch.visited (which must be prepared, and
 * cleared unless the caller wants to flood around prior runs); the
 * source must not already be visited. When @p hops is non-null it
 * must point at numVertices() entries pre-filled with UINT32_MAX;
 * reached vertices get their hop level. Direction optimization
 * switches to bottom-up on wide frontiers when options.allowBottomUp
 * is set and back to top-down when the frontier narrows.
 */
BfsResult flatBfs(const Graph &graph, VertexId source,
                  FrontierScratch &scratch, uint32_t *hops,
                  const BfsOptions &options = {});

/** Reusable buffers for eccentricityProbe(). */
struct ProbeScratch {
    /** FIFO of reached vertices in BFS order. V + 1 slots: the
     *  branch-free append stores every scanned neighbor at the tail
     *  and advances only for fresh ones, so once all V vertices are
     *  queued, later stores land in slot V. */
    std::vector<VertexId> queue;
    std::vector<uint32_t> dist; //!< hop level, UINT32_MAX = unreached
};

/**
 * Serial BFS from @p source over out-arcs that reports only the
 * eccentricity outputs: depth, farthest (the minimum-id vertex of the
 * deepest level, which is the queue's suffix) and reached — the same
 * values flatBfs() returns for the source. One FIFO and a per-vertex
 * distance array, with no visited bitmap and no unpredictable branch
 * per arc. It never fans out, so it is the kernel for graphs whose
 * V + E stays below kParallelGrain, where no flatBfs level could
 * reach the pool either.
 */
BfsResult eccentricityProbe(const Graph &graph, VertexId source,
                            ProbeScratch &scratch);

} // namespace heteromap

#endif // HETEROMAP_GRAPH_FRONTIER_HH
