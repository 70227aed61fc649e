/**
 * @file
 * Workload-profile memo cache implementation.
 */

#include "workloads/profile_cache.hh"

#include "util/checksum.hh"

namespace heteromap {

std::size_t
ProfileCache::KeyHash::operator()(const Key &key) const
{
    const auto address = reinterpret_cast<uintptr_t>(key.workload.get());
    const uint64_t h =
        mix64(mixFingerprint(key.fingerprint) ^ key.weightsHash);
    return static_cast<std::size_t>(mix64(h ^ address));
}

ProfileCache::ProfileCache(std::size_t capacity) : memo_(capacity) {}

std::shared_ptr<const WorkloadProfile>
ProfileCache::profile(const std::shared_ptr<const Workload> &workload,
                      const Graph &graph)
{
    HM_ASSERT(workload != nullptr, "profile cache needs a workload");
    const Key key{workload, graph.fingerprint(), graph.weightsHash()};
    return memo_.getOrCompute(key, [&] {
        return std::make_shared<const WorkloadProfile>(
            workload->runProfiled(graph).second);
    });
}

ProfileCache &
globalProfileCache()
{
    static ProfileCache cache;
    return cache;
}

} // namespace heteromap
