/**
 * @file
 * Single-threaded replay of a request sample through each serving
 * layer's public function, in the order the server calls them:
 * decode -> NetAdmission::admit -> makeBatchKey (fingerprint) ->
 * ShardRouter::route -> GraphStatsCache::measure -> makeCase ->
 * HeteroMap::deployBatch or Supervisor::deploy -> encodeResponse.
 *
 * Also the output check's reference: the deployment
 * HeteroMap::deploy gives for one (workload, graph, measure seed).
 */

#ifndef SERVEBENCH_REPLAY_HH
#define SERVEBENCH_REPLAY_HH

#include <memory>
#include <string>
#include <vector>

#include "core/heteromap.hh"
#include "driver.hh"
#include "schedule.hh"

namespace servebench {

/** The graphs a set-up registered, by catalogue index. */
struct Catalogue {
    std::vector<std::string> names;
    std::vector<std::shared_ptr<const heteromap::Graph>> graphs;
};

/** Per-request stage times of one replay, one entry per request. */
struct ReplayTimes {
    std::vector<double> codecUs;   //!< server decode + response encode
    std::vector<double> admitUs;
    std::vector<double> fingerprintUs; //!< makeBatchKey
    std::vector<double> routeUs;
    std::vector<double> measureHitUs;
    std::vector<double> measureMissMs;
    std::vector<double> featurizeMs;
    std::vector<double> inferUs;       //!< deployBatch of one case
    std::vector<double> supervisedUs;  //!< Supervisor::deploy
};

/** Replay @p sample; one span per stage call goes to @p trace. */
ReplayTimes replayLayers(const std::vector<Request> &sample,
                         const Catalogue &catalogue,
                         const heteromap::HeteroMap &framework,
                         SpanLog *trace);

/** What the output check compares, as it travels on the wire. */
struct Expected {
    uint8_t accelerator = 0;
    uint32_t threads = 0;
    double predictedSeconds = 0.0;
};

/** Reference deployment of @p request (supervision aside). */
Expected expectedFor(const Request &request, const Catalogue &catalogue,
                     const heteromap::HeteroMap &framework);

/** True when @p outcome's response carries exactly @p expected. */
bool matches(const Outcome &outcome, const Expected &expected);

} // namespace servebench

#endif // SERVEBENCH_REPLAY_HH
