#include "schedule.hh"

#include <cmath>

#include "graph/generators.hh"
#include "util/rng.hh"

namespace servebench {

using heteromap::Rng;

namespace {

constexpr uint8_t kPR = 0, kPRDP = 1, kBFS = 2, kCONN = 3, kSSSP = 4;

/** Graphs in the churn catalogue: 256 per shard, against 2 x 64
 *  stats-cache entries per shard. */
constexpr uint32_t kChurnGraphs = 512;

/** Heavy requests in the mixed mix, per 100. */
constexpr uint64_t kHeavyPerHundred = 1;

/** Closed-loop sequence length: at 8k req/s it lasts over 30 s
 *  before it wraps around. */
constexpr std::size_t kClosedLength = 1u << 18;

/** Warm-up length floor, requests. */
constexpr std::size_t kWarmupRequests = 512;

/** Measure seeds of heavy requests: fresh per request. */
constexpr uint64_t kHeavySeedBase = 1000000;
constexpr uint64_t kWarmupHeavySeedBase = 9000000;

std::vector<GraphSpec>
hotCatalogue()
{
    using F = GraphSpec::Family;
    return {{"mesh-1", F::Mesh, 1024, 1},
            {"mesh-2", F::Mesh, 1024, 2},
            {"pa-7", F::PrefAttach, 1024, 7},
            {"road-3", F::RoadGrid, 1024, 3}};
}

/** Uniform light request over the hot graphs and @p workloads. */
Request
lightRequest(Rng &rng, const std::vector<uint8_t> &workloads,
             double supervised_share)
{
    Request request;
    request.graph = static_cast<uint32_t>(rng.nextBounded(4));
    request.workload = workloads[rng.nextBounded(workloads.size())];
    request.supervised =
        supervised_share > 0.0 && rng.nextBool(supervised_share);
    return request;
}

/** Every distinct foreground request of a hot-catalogue mix,
 *  repeated up to the warm-up floor. */
std::vector<Request>
hotWarmup(const std::vector<uint8_t> &workloads, bool with_supervised)
{
    std::vector<Request> distinct;
    for (uint32_t graph = 0; graph < 4; ++graph) {
        for (uint8_t workload : workloads) {
            distinct.push_back({graph, workload, false, false, 0});
            if (with_supervised)
                distinct.push_back({graph, workload, true, false, 0});
        }
    }
    std::vector<Request> warmup;
    while (warmup.size() < kWarmupRequests)
        warmup.insert(warmup.end(), distinct.begin(), distinct.end());
    return warmup;
}

} // namespace

const char *
mixName(Mix mix)
{
    switch (mix) {
      case Mix::Hot: return "hot";
      case Mix::Churn: return "churn";
      case Mix::Mixed: return "mixed";
      case Mix::Trickle: return "trickle";
    }
    return "unknown";
}

std::optional<Mix>
mixFromName(std::string_view name)
{
    for (Mix mix : {Mix::Hot, Mix::Churn, Mix::Mixed, Mix::Trickle}) {
        if (name == mixName(mix))
            return mix;
    }
    return std::nullopt;
}

heteromap::Graph
buildGraph(const GraphSpec &spec)
{
    switch (spec.family) {
      case GraphSpec::Family::Mesh:
        return heteromap::generateMesh(spec.vertices, 4, spec.seed);
      case GraphSpec::Family::PrefAttach:
        return heteromap::generatePreferentialAttachment(
            spec.vertices, 4, spec.seed);
      case GraphSpec::Family::RoadGrid: {
        const auto side = static_cast<uint32_t>(
            std::lround(std::sqrt(static_cast<double>(spec.vertices))));
        return heteromap::generateRoadGrid(side, side, spec.seed);
      }
    }
    return heteromap::generatePath(2);
}

std::vector<GraphSpec>
catalogueFor(Mix mix)
{
    using F = GraphSpec::Family;
    switch (mix) {
      case Mix::Hot:
      case Mix::Trickle:
        return hotCatalogue();
      case Mix::Mixed: {
        auto catalogue = hotCatalogue();
        // Large enough that one cold measurement plus featurize is
        // well over 20x a light request's service time.
        catalogue.push_back({"heavy-mesh", F::Mesh, 16384, 11});
        return catalogue;
      }
      case Mix::Churn: {
        std::vector<GraphSpec> catalogue;
        const F families[] = {F::Mesh, F::PrefAttach, F::RoadGrid};
        for (uint32_t i = 0; i < kChurnGraphs; ++i) {
            catalogue.push_back({"churn-" + std::to_string(i),
                                 families[i % 3], 1024, 100 + i});
        }
        return catalogue;
      }
    }
    return {};
}

heteromap::net::WireRequest
toWire(const Request &request,
       const std::vector<std::string> &graph_names)
{
    heteromap::net::WireRequest wire;
    wire.clientId = 1;
    wire.supervised = request.supervised;
    wire.seed = request.measureSeed;
    wire.workload = kWorkloadNames[request.workload];
    wire.graph = graph_names[request.graph];
    return wire;
}

Schedule
makeSchedule(Mix mix, uint64_t seed, double seconds)
{
    Schedule schedule;
    schedule.mix = mix;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(mix));
    const std::vector<uint8_t> light = {kBFS, kCONN, kSSSP};

    switch (mix) {
      case Mix::Hot: {
        const std::vector<uint8_t> workloads = {kPR, kPRDP};
        schedule.warmup = hotWarmup(workloads, false);
        for (std::size_t i = 0; i < kClosedLength; ++i)
            schedule.timed.push_back(lightRequest(rng, workloads, 0.0));
        break;
      }
      case Mix::Churn: {
        // One seeded permutation, cycled: a graph recurs only after
        // all kChurnGraphs others have been requested.
        std::vector<uint32_t> order(kChurnGraphs);
        for (uint32_t i = 0; i < kChurnGraphs; ++i)
            order[i] = i;
        rng.shuffle(order);
        for (uint32_t i = 0; i < kChurnGraphs; ++i) {
            schedule.warmup.push_back(
                {order[i], light[i % light.size()], false, false, 0});
        }
        for (std::size_t i = 0; i < kClosedLength; ++i) {
            Request request;
            request.graph = order[i % kChurnGraphs];
            request.workload = light[rng.nextBounded(light.size())];
            schedule.timed.push_back(request);
        }
        break;
      }
      case Mix::Mixed: {
        const uint32_t heavy_graph = 4;
        schedule.warmup = hotWarmup(light, true);
        for (uint64_t k = 0; k < 4; ++k) {
            schedule.warmup.push_back({heavy_graph, kBFS, false, true,
                                       kWarmupHeavySeedBase + k});
        }
        for (std::size_t i = 0; i < kClosedLength; ++i) {
            if (rng.nextBounded(100) < kHeavyPerHundred) {
                schedule.timed.push_back({heavy_graph, kBFS, false, true,
                                          kHeavySeedBase + i});
            } else {
                schedule.timed.push_back(lightRequest(rng, light, 0.25));
            }
        }
        break;
      }
      case Mix::Trickle: {
        schedule.openLoop = true;
        schedule.ratePerSec = 500.0;
        schedule.warmup = hotWarmup(light, true);
        const auto count = static_cast<std::size_t>(
            std::llround(schedule.ratePerSec * seconds));
        for (std::size_t i = 0; i < count; ++i)
            schedule.timed.push_back(lightRequest(rng, light, 0.25));

        // Poisson arrivals conditioned on `count` of them in the
        // window: exponential gaps, rescaled so gap count + 1 ends
        // exactly at the window's end.
        Rng arrivals(rng.next());
        std::vector<double> cumulative;
        double total = 0.0;
        for (std::size_t i = 0; i <= count; ++i) {
            total += -std::log(1.0 - arrivals.nextDouble());
            cumulative.push_back(total);
        }
        const double window_ns = seconds * 1e9;
        for (std::size_t i = 0; i < count; ++i) {
            schedule.dueNs.push_back(static_cast<int64_t>(
                cumulative[i] / total * window_ns));
        }
        break;
      }
    }
    return schedule;
}

} // namespace servebench
