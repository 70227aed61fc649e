/**
 * @file
 * GraphChunker implementation.
 */

#include "graph/chunker.hh"

#include <unordered_map>

#include "graph/builder.hh"
#include "util/logging.hh"

namespace heteromap {

namespace {

/** Approximate CSR bytes for a vertex range with its out-edges. */
uint64_t
rangeBytes(uint64_t vertices, uint64_t edges)
{
    // offsets + neighbors + weights + halo remap table headroom.
    return vertices * (sizeof(EdgeId) + sizeof(VertexId)) +
           edges * (sizeof(VertexId) + sizeof(float) + sizeof(VertexId));
}

} // namespace

GraphChunker::GraphChunker(const Graph &graph, uint64_t budget_bytes)
    : graph_(graph), budgetBytes_(budget_bytes)
{
    HM_ASSERT(budget_bytes > 0, "chunk budget must be positive");
    boundaries_.push_back(0);
    uint64_t vertices = 0;
    uint64_t edges = 0;
    for (VertexId v = 0; v < graph_.numVertices(); ++v) {
        uint64_t v_edges = graph_.degree(v);
        if (rangeBytes(1, v_edges) > budgetBytes_) {
            HM_FATAL("vertex ", v, " with degree ", v_edges,
                     " cannot fit in a ", budgetBytes_, "-byte chunk");
        }
        if (vertices > 0 &&
            rangeBytes(vertices + 1, edges + v_edges) > budgetBytes_) {
            boundaries_.push_back(v);
            vertices = 0;
            edges = 0;
        }
        ++vertices;
        edges += v_edges;
    }
    boundaries_.push_back(graph_.numVertices());
}

GraphChunk
GraphChunker::chunk(std::size_t index) const
{
    HM_ASSERT(index + 1 < boundaries_.size(), "chunk index ", index,
              " out of range");
    const VertexId lo = boundaries_[index];
    const VertexId hi = boundaries_[index + 1];
    const VertexId range = hi - lo;

    GraphChunk result;
    result.firstVertex = lo;
    result.haloBegin = range;
    result.localToGlobal.reserve(range);
    for (VertexId v = lo; v < hi; ++v)
        result.localToGlobal.push_back(v);

    // Discover halo vertices (targets outside [lo, hi)).
    std::unordered_map<VertexId, VertexId> halo;
    for (VertexId v = lo; v < hi; ++v) {
        for (VertexId u : graph_.neighbors(v)) {
            if (u < lo || u >= hi) {
                auto [it, inserted] = halo.try_emplace(
                    u, static_cast<VertexId>(range + halo.size()));
                if (inserted)
                    result.localToGlobal.push_back(u);
                (void)it;
            }
        }
    }

    GraphBuilder builder(
        static_cast<VertexId>(result.localToGlobal.size()));
    for (VertexId v = lo; v < hi; ++v) {
        auto nbrs = graph_.neighbors(v);
        auto wts = graph_.edgeWeights(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            VertexId u = nbrs[i];
            VertexId local_u =
                (u >= lo && u < hi) ? (u - lo) : halo.at(u);
            float w = wts.empty() ? 1.0f : wts[i];
            builder.addEdge(v - lo, local_u, w);
        }
    }
    result.subgraph = builder.build();
    return result;
}

} // namespace heteromap
