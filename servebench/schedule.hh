/**
 * @file
 * Traffic mixes of the serving benchmark: the graph catalogue each
 * mix registers with the server, and the request sequence plus
 * arrival schedule it replays. Everything here is a pure function of
 * (mix, seed, seconds) and is generated before any timing starts.
 */

#ifndef SERVEBENCH_SCHEDULE_HH
#define SERVEBENCH_SCHEDULE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hh"
#include "net/wire.hh"

namespace servebench {

/** The four traffic mixes (see BENCHMARK.json for why each exists). */
enum class Mix { Hot, Churn, Mixed, Trickle };

const char *mixName(Mix mix);
std::optional<Mix> mixFromName(std::string_view name);

/** Benchmarks the mixes draw from, by registry name. */
inline constexpr const char *kWorkloadNames[] = {"PR", "PR-DP", "BFS",
                                                 "CONN", "SSSP-Delta"};

/** One catalogue graph: a generator family, its size and seed. */
struct GraphSpec {
    enum class Family { Mesh, PrefAttach, RoadGrid };
    std::string name;
    Family family = Family::Mesh;
    uint32_t vertices = 1024; //!< road grids are square
    uint64_t seed = 1;
};

/** Build the graph @p spec describes (deterministic). */
heteromap::Graph buildGraph(const GraphSpec &spec);

/**
 * Catalogue the server registers for @p mix, in index order. The
 * mixed mix's heavy graph is the last entry.
 */
std::vector<GraphSpec> catalogueFor(Mix mix);

/** One request as the driver sends it. */
struct Request {
    uint32_t graph = 0;    //!< catalogue index
    uint8_t workload = 0;  //!< index into kWorkloadNames
    bool supervised = false;
    bool heavy = false;    //!< mixed's background class
    uint64_t measureSeed = 0; //!< MeasureOptions::seed; 0 = default

    bool operator==(const Request &) const = default;
};

/** Wire form of @p request; views point into @p graph_names. */
heteromap::net::WireRequest
toWire(const Request &request,
       const std::vector<std::string> &graph_names);

/** What the driver replays for one (mix, seed, seconds). */
struct Schedule {
    Mix mix = Mix::Hot;
    bool openLoop = false;
    double ratePerSec = 0.0; //!< open loop: offered rate

    /** Closed-loop warm-up: every distinct request, repeated. */
    std::vector<Request> warmup;

    /**
     * Timed sequence. Closed loops send it in order and wrap around
     * if a run outlasts it; open loops send entry i at dueNs[i].
     */
    std::vector<Request> timed;

    /** Open loop: due times, ns after the window opens, ascending. */
    std::vector<int64_t> dueNs;
};

/** Requests a closed loop keeps in flight: at most 8, so queueing
 *  inside the server stays short and latency stays steady. */
inline constexpr std::size_t kOutstanding = 8;

/** Generate the schedule of @p mix for @p seed and a window of
 *  @p seconds (which sizes open-loop schedules only). Same
 *  arguments, same schedule. */
Schedule makeSchedule(Mix mix, uint64_t seed, double seconds);

} // namespace servebench

#endif // SERVEBENCH_SCHEDULE_HH
