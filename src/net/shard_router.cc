/**
 * @file
 * Consistent-hash ring implementation. Build is O(S * V log(S * V))
 * once at server start; route is one binary search.
 */

#include "net/shard_router.hh"

#include <algorithm>

#include "util/logging.hh"

namespace heteromap {
namespace net {

ShardRouter::ShardRouter(std::size_t shards, std::size_t vnodes)
    : shards_(shards), vnodes_(vnodes)
{
    HM_ASSERT(shards >= 1, "ShardRouter needs >= 1 shard");
    HM_ASSERT(vnodes >= 1, "ShardRouter needs >= 1 vnode per shard");
    ring_.reserve(shards * vnodes);
    for (std::size_t shard = 0; shard < shards; ++shard) {
        // Per-shard stream: mix the shard id once, then derive each
        // replica point from it. Two different (shard, replica)
        // pairs colliding on a point hash is astronomically rare;
        // ties are broken toward the lower shard by the sort below,
        // deterministically.
        const uint64_t shard_base = mix64(0x5ca1ab1eULL + shard);
        for (std::size_t replica = 0; replica < vnodes; ++replica) {
            const uint64_t hash =
                mix64(shard_base ^ mix64(0xfeedULL + replica));
            ring_.push_back({hash, static_cast<uint32_t>(shard)});
        }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const Point &a, const Point &b) {
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.shard < b.shard;
              });
}

std::size_t
ShardRouter::route(uint64_t key) const
{
    const uint64_t hash = mix64(key);
    // First ring point at or after the key's hash, wrapping to the
    // ring's first point past the top.
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), hash,
        [](const Point &point, uint64_t value) {
            return point.hash < value;
        });
    if (it == ring_.end())
        it = ring_.begin();
    return it->shard;
}

} // namespace net
} // namespace heteromap
