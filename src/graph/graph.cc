/**
 * @file
 * CSR graph implementation.
 */

#include "graph/graph.hh"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "util/checksum.hh"
#include "util/logging.hh"

namespace heteromap {

namespace {

/** hashElements() seed of the edge-weight hash (Graph::weightsHash). */
constexpr uint64_t kWeightsSeed = 0x3e16b75ull;

/** An element's hash input: integers by value, floats by bit pattern. */
template <typename T>
uint64_t
elementBits(T value)
{
    if constexpr (std::is_same_v<T, float>)
        return std::bit_cast<uint32_t>(value);
    else
        return static_cast<uint64_t>(value);
}

/**
 * Order-sensitive hash over every element of @p data, then the last
 * one again (the trailing mix of the earlier strided scheme, kept so
 * arrays it covered exactly keep their hash). @p seed decorrelates
 * the arrays' hashes so their combined bits are independent.
 */
template <typename T>
uint64_t
hashElements(const std::vector<T> &data, uint64_t seed)
{
    const std::size_t count = data.size();
    uint64_t h = mix64(seed ^ count);
    if (count == 0)
        return h;
    for (const T &value : data)
        h = mix64(h ^ elementBits(value));
    return mix64(h ^ elementBits(data[count - 1]));
}

} // namespace

uint64_t
mixFingerprint(const GraphFingerprint &fingerprint)
{
    uint64_t h = mix64(fingerprint.numVertices);
    h = mix64(h ^ fingerprint.numEdges);
    h = mix64(h ^ fingerprint.footprintBytes);
    h = mix64(h ^ fingerprint.offsetsHash);
    return mix64(h ^ fingerprint.neighborsHash);
}

Graph::Graph()
{
    fingerprint_ = computeFingerprint();
    weightsHash_ = hashElements(weights_, kWeightsSeed);
}

Graph::Graph(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors,
             std::vector<float> weights)
    : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)),
      weights_(std::move(weights))
{
    HM_ASSERT(!offsets_.empty(), "CSR offsets must contain at least [0]");
    HM_ASSERT(offsets_.front() == 0, "CSR offsets must start at 0");
    HM_ASSERT(offsets_.back() == neighbors_.size(),
              "CSR offsets must end at the edge count");
    HM_ASSERT(weights_.empty() || weights_.size() == neighbors_.size(),
              "weight array arity mismatch");
    fingerprint_ = computeFingerprint();
    weightsHash_ = hashElements(weights_, kWeightsSeed);
}

GraphFingerprint
Graph::computeFingerprint() const
{
    GraphFingerprint fp;
    fp.numVertices = numVertices();
    fp.numEdges = numEdges();
    fp.footprintBytes = footprintBytes();
    fp.offsetsHash = hashElements(offsets_, 0x0ff5e75ull);
    fp.neighborsHash = hashElements(neighbors_, 0xad7ace2ull);
    return fp;
}

uint64_t
Graph::footprintBytes() const
{
    return offsets_.size() * sizeof(EdgeId) +
           neighbors_.size() * sizeof(VertexId) +
           weights_.size() * sizeof(float);
}

EdgeId
Graph::maxDegree() const
{
    EdgeId best = 0;
    for (VertexId v = 0; v < numVertices(); ++v)
        best = std::max(best, degree(v));
    return best;
}

double
Graph::avgDegree() const
{
    if (numVertices() == 0)
        return 0.0;
    return static_cast<double>(numEdges()) /
           static_cast<double>(numVertices());
}

} // namespace heteromap
