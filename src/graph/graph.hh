/**
 * @file
 * Immutable compressed-sparse-row (CSR) graph. This is the input
 * substrate every workload, generator, and feature extractor operates
 * on. Graphs are directed at the storage level; undirected graphs are
 * stored symmetrized (both arcs present).
 *
 * Every Graph carries its content fingerprint, computed once at
 * construction: a cheap structural identity that the stats and
 * profile caches, the serving batcher, shard routing, and audit
 * records all read instead of re-hashing the CSR arrays per request.
 * The fingerprint hashes the vertex and edge counts, the byte
 * footprint, and every element of the offset and neighbor arrays —
 * one O(V + E) pass, the same order as building the CSR. It is
 * content-based, not identity-based: two Graph objects holding the
 * same CSR arrays — a copy, or the same chunk re-cut from a stream —
 * agree, and graphs that differ in any one arc differ (up to 64-bit
 * hash collisions). Edge weight values are not in the fingerprint
 * (only their count, through the footprint), so shard routing and
 * the stats cache — whose measurement never reads weights — treat
 * weight twins as one graph. Weights are hashed separately, every
 * element, into weightsHash(): the profile cache and the serving
 * batcher key on it too, because workloads read weights (SSSP-Delta
 * picks its bucket width from them).
 */

#ifndef HETEROMAP_GRAPH_GRAPH_HH
#define HETEROMAP_GRAPH_GRAPH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace heteromap {

/** Vertex identifier; dense in [0, numVertices). */
using VertexId = uint32_t;

/** Edge index into the CSR arrays. */
using EdgeId = uint64_t;

/** Sentinel for "no vertex". */
inline constexpr VertexId kInvalidVertex = UINT32_MAX;

/** Content fingerprint of a graph's CSR structure. */
struct GraphFingerprint {
    uint64_t numVertices = 0;
    uint64_t numEdges = 0;
    uint64_t footprintBytes = 0;
    uint64_t offsetsHash = 0;
    uint64_t neighborsHash = 0;

    bool operator==(const GraphFingerprint &) const = default;
};

/**
 * Mix a fingerprint's five fields into one 64-bit hash — the compact
 * graph identity used for shard routing and stamped into
 * flight-recorder audit records.
 */
uint64_t mixFingerprint(const GraphFingerprint &fingerprint);

/**
 * CSR graph with optional per-edge float weights.
 *
 * Construction goes through GraphBuilder (graph/builder.hh); the
 * invariants (sorted offsets, neighbor bounds, weight arity) are
 * validated there and assumed here.
 */
class Graph
{
  public:
    /** Build an empty graph. */
    Graph();

    /**
     * Adopt prebuilt CSR arrays. @p offsets must have size V+1 with
     * offsets[0] == 0 and offsets[V] == neighbors.size(); @p weights
     * is either empty (unweighted) or the same size as @p neighbors.
     */
    Graph(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors,
          std::vector<float> weights = {});

    /** @return number of vertices. */
    VertexId
    numVertices() const
    {
        return offsets_.empty()
            ? 0 : static_cast<VertexId>(offsets_.size() - 1);
    }

    /** @return number of stored (directed) arcs. */
    EdgeId numEdges() const { return neighbors_.size(); }

    /** @return out-degree of @p v. */
    EdgeId
    degree(VertexId v) const
    {
        return offsets_[v + 1] - offsets_[v];
    }

    /** @return first CSR index of @p v's adjacency list. */
    EdgeId edgeBegin(VertexId v) const { return offsets_[v]; }

    /** @return one-past-last CSR index of @p v's adjacency list. */
    EdgeId edgeEnd(VertexId v) const { return offsets_[v + 1]; }

    /** @return neighbor list of @p v as a read-only span. */
    std::span<const VertexId>
    neighbors(VertexId v) const
    {
        return {neighbors_.data() + offsets_[v],
                static_cast<std::size_t>(degree(v))};
    }

    /** @return destination vertex of CSR edge @p e. */
    VertexId edgeTarget(EdgeId e) const { return neighbors_[e]; }

    /** @return true when per-edge weights are stored. */
    bool hasWeights() const { return !weights_.empty(); }

    /** @return weight of CSR edge @p e (1.0 when unweighted). */
    float
    edgeWeight(EdgeId e) const
    {
        return weights_.empty() ? 1.0f : weights_[e];
    }

    /** @return weights of @p v's adjacency list (empty if unweighted). */
    std::span<const float>
    edgeWeights(VertexId v) const
    {
        if (weights_.empty())
            return {};
        return {weights_.data() + offsets_[v],
                static_cast<std::size_t>(degree(v))};
    }

    /** @return approximate resident size in bytes (CSR arrays only). */
    uint64_t footprintBytes() const;

    /** @return maximum out-degree over all vertices (0 for empty). */
    EdgeId maxDegree() const;

    /** @return average out-degree (0 for empty). */
    double avgDegree() const;

    /** Raw offset array (size V+1). */
    const std::vector<EdgeId> &offsets() const { return offsets_; }

    /** Raw neighbor array (size E). */
    const std::vector<VertexId> &rawNeighbors() const { return neighbors_; }

    /**
     * Content fingerprint (see the file comment), fixed at
     * construction. A moved-from Graph keeps its old value; like any
     * moved-from object it may only be assigned to or destroyed.
     */
    const GraphFingerprint &fingerprint() const { return fingerprint_; }

    /**
     * Hash of every edge-weight bit pattern (see the file comment),
     * fixed at construction; one constant for every unweighted
     * graph.
     */
    uint64_t weightsHash() const { return weightsHash_; }

  private:
    std::vector<EdgeId> offsets_;
    std::vector<VertexId> neighbors_;
    std::vector<float> weights_;
    GraphFingerprint fingerprint_;
    uint64_t weightsHash_ = 0;

    GraphFingerprint computeFingerprint() const;
};

} // namespace heteromap

#endif // HETEROMAP_GRAPH_GRAPH_HH
