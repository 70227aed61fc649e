/**
 * @file
 * Structural graph properties: the measured counterparts of the
 * paper's I variables (vertex count, edge density, maximum degree,
 * diameter) plus auxiliary statistics the performance model consumes
 * (degree variance for divergence, component structure).
 *
 * Measurement runs on the flat-frontier substrate (graph/frontier.hh)
 * and is deterministic by contract: GraphStats is byte-identical for
 * any MeasureOptions::threads value, because every sweep reduces
 * fixed-size chunk partials in chunk-index order.
 */

#ifndef HETEROMAP_GRAPH_PROPS_HH
#define HETEROMAP_GRAPH_PROPS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hh"

namespace heteromap {

/**
 * Summary of an input graph. When describing one of the paper's real
 * datasets, these fields hold the *nominal* Table I values; when
 * measured from a proxy graph they hold exact (or BFS-approximated,
 * for the diameter) values.
 */
struct GraphStats {
    uint64_t numVertices = 0;
    uint64_t numEdges = 0;       //!< stored arcs
    uint64_t maxDegree = 0;
    double avgDegree = 0.0;
    uint64_t diameter = 0;       //!< hop diameter (approximate)
    double degreeStddev = 0.0;   //!< divergence proxy
    uint64_t footprintBytes = 0; //!< CSR bytes (for memory-size model)

    /** Pretty one-line summary. */
    std::string toString() const;
};

/** Knobs for one measureGraph() run. */
struct MeasureOptions {
    /** Double-sweep BFS probes for the diameter; 0 skips it. */
    unsigned sweeps = 4;

    /** Seed for the probe start vertices. */
    uint64_t seed = 1;

    /**
     * Sweep fan-out: 0 borrows the process-wide shared pool
     * (ThreadPool::shared()), 1 runs serial inline, N runs on the
     * calling thread plus a private (N - 1)-worker pool. Concurrent
     * measurements may all use 0: each sweep waits on its own
     * parallelFor completion, so they share the pool's workers
     * without serializing. The result is byte-identical for every
     * value — threads only change wall-clock time.
     */
    std::size_t threads = 0;

    /**
     * Cache-blocking factor (vertices per inner block) for the
     * degree/stats sweep; 0 picks the default. Any value is
     * byte-identical: the sweep accumulates exact integer partials
     * (degree sum, sum of squares, max), so the combine order is
     * free, and one floating-point finalization happens at the end.
     */
    std::size_t statsBlock = 0;
};

/**
 * Measure @p graph. The diameter is approximated with @p sweeps
 * double-sweep BFS probes (exact on trees/paths, a lower bound in
 * general, accurate in practice); pass sweeps = 0 to skip it.
 */
GraphStats measureGraph(const Graph &graph, unsigned sweeps = 4,
                        uint64_t seed = 1);

/** Measure @p graph under explicit options (see MeasureOptions). */
GraphStats measureGraph(const Graph &graph,
                        const MeasureOptions &options);

/**
 * Single-source hop distances by BFS. Unreachable vertices get
 * UINT32_MAX. Exposed for tests and workload references.
 */
std::vector<uint32_t> bfsHops(const Graph &graph, VertexId source);

/**
 * Approximate hop diameter via repeated double-sweep BFS from random
 * sources. Returns 0 for graphs with < 2 vertices.
 */
uint64_t approximateDiameter(const Graph &graph, unsigned sweeps,
                             uint64_t seed);

/** @return number of connected components (treating arcs as undirected). */
uint64_t countComponents(const Graph &graph);

/**
 * @return true when the adjacency is symmetric, counting multiplicity
 * (u appears in N(v) exactly as often as v appears in N(u)), the
 * precondition for bottom-up BFS levels.
 *
 * Cost: one serial early-exit pass, O(V + E) time and one EdgeId of
 * scratch per vertex. Sources are visited in ascending order, and
 * each arc v->u must find v at a per-vertex cursor into N(u), which
 * then advances. Matching all E arcs this way consumes all E list
 * slots, so no closing sweep over the cursors is needed.
 *
 * Assumes sorted adjacency lists (the GraphBuilder invariant). With
 * sorted lists the result is exact; an unsorted list can only yield a
 * false negative. A multigraph whose parallel arcs are not mirrored
 * (u->v twice, v->u once) reports false. Either false negative only
 * disables the bottom-up fast path: hop levels and GraphStats never
 * depend on it.
 */
bool hasSymmetricAdjacency(const Graph &graph);

} // namespace heteromap

#endif // HETEROMAP_GRAPH_PROPS_HH
