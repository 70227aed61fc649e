/**
 * @file
 * Consistent-hash shard router: maps graph fingerprints onto
 * PredictionService shards so that a given graph always lands on the
 * same shard — its GraphStatsCache entry and micro-batcher stay hot —
 * and so that changing the shard count moves only ~1/(N+1) of the
 * keys instead of reshuffling everything (classic hash ring with
 * virtual nodes; modulo routing would remap nearly every key).
 *
 * The ring is deterministic: points derive from (shard index,
 * replica index) through a fixed 64-bit mixer, so every process —
 * server, tests, an offline capacity planner — builds the identical
 * ring for a given (shards, vnodes) pair. Routing keys are the
 * mixFingerprint() of the graph's structural fingerprint
 * (Graph::fingerprint(), graph/graph.hh), re-mixed once more to
 * decorrelate from the ring-point hashes.
 */

#ifndef HETEROMAP_NET_SHARD_ROUTER_HH
#define HETEROMAP_NET_SHARD_ROUTER_HH

#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/checksum.hh"

namespace heteromap {
namespace net {

/** Deterministic consistent-hash ring over shard indices. */
class ShardRouter
{
  public:
    /** Ring points per shard; more = smoother key balance. */
    static constexpr std::size_t kDefaultVnodes = 64;

    /**
     * @param shards Shard count (>= 1).
     * @param vnodes Virtual nodes per shard (>= 1).
     */
    explicit ShardRouter(std::size_t shards,
                         std::size_t vnodes = kDefaultVnodes);

    /** Shard owning @p key (e.g. mixFingerprint of a graph). */
    std::size_t route(uint64_t key) const;

    std::size_t shards() const { return shards_; }
    std::size_t vnodes() const { return vnodes_; }

    /** Ring size (shards * vnodes, minus point-hash collisions). */
    std::size_t points() const { return ring_.size(); }

  private:
    struct Point {
        uint64_t hash;
        uint32_t shard;
    };

    std::size_t shards_;
    std::size_t vnodes_;
    std::vector<Point> ring_; //!< sorted by hash
};

} // namespace net
} // namespace heteromap

#endif // HETEROMAP_NET_SHARD_ROUTER_HH
