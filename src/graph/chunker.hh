/**
 * @file
 * Streaming graph chunker, our substitute for the Stinger framework
 * the paper uses (Sec. II): graphs larger than an accelerator's main
 * memory are split into vertex-range chunks whose induced subgraphs
 * fit in a byte budget, then streamed and processed one at a time.
 */

#ifndef HETEROMAP_GRAPH_CHUNKER_HH
#define HETEROMAP_GRAPH_CHUNKER_HH

#include <cstdint>
#include <vector>

#include "graph/graph.hh"

namespace heteromap {

/**
 * One streamed chunk: the induced subgraph over a contiguous vertex
 * range [firstVertex, firstVertex + localToGlobal.size()), with edges
 * whose *source* lies in the range. Targets outside the range are
 * remapped to local "halo" vertices so algorithms can run unmodified;
 * haloBegin marks where halo vertices start in the local id space.
 */
struct GraphChunk {
    Graph subgraph;
    VertexId firstVertex = 0;
    VertexId haloBegin = 0;                 //!< local ids >= this are halo
    std::vector<VertexId> localToGlobal;    //!< local id -> global id
};

/**
 * Splits a graph into memory-budgeted chunks. Chunk boundaries are
 * chosen greedily so each chunk's CSR footprint (including halo
 * remapping tables) stays within the budget, mirroring how Stinger
 * extracts temporal chunks for accelerator-resident processing.
 */
class GraphChunker
{
  public:
    /**
     * @param graph        Graph to stream (kept by reference).
     * @param budget_bytes Per-chunk memory budget; fatal if any single
     *                     vertex's adjacency alone exceeds it.
     */
    GraphChunker(const Graph &graph, uint64_t budget_bytes);

    /** @return number of chunks the graph was split into. */
    std::size_t numChunks() const { return boundaries_.size() - 1; }

    /** Materialize chunk @p index (0-based). */
    GraphChunk chunk(std::size_t index) const;

    /** @return the vertex boundaries [b0=0, b1, ..., bn=V]. */
    const std::vector<VertexId> &boundaries() const { return boundaries_; }

  private:
    const Graph &graph_;
    uint64_t budgetBytes_;
    std::vector<VertexId> boundaries_;
};

} // namespace heteromap

#endif // HETEROMAP_GRAPH_CHUNKER_HH
