#include "replay.hh"

#include <cstring>

#include "core/oracle.hh"
#include "core/supervisor.hh"
#include "graph/props.hh"
#include "graph/stats_cache.hh"
#include "net/admission.hh"
#include "net/server.hh"
#include "net/shard_router.hh"
#include "serve/request_queue.hh"
#include "workloads/registry.hh"

namespace servebench {

namespace net = heteromap::net;
namespace serve = heteromap::serve;
using heteromap::BenchmarkCase;
using heteromap::GraphStats;
using heteromap::MeasureOptions;

namespace {

/** Replay spans sit on their own track, after the connections. */
constexpr uint32_t kReplayTid = 100;

/** Replay span ids start here, clear of the driver's request ids. */
constexpr uint64_t kReplayIdBase = 1ull << 40;

MeasureOptions
measureOf(const Request &request)
{
    MeasureOptions options;
    if (request.measureSeed > 0)
        options.seed = request.measureSeed;
    return options;
}

/** Times one stage call and records it as a span. */
class Stage
{
  public:
    Stage(SpanLog *trace, uint64_t id) : trace_(trace), id_(id) {}

    template <typename F>
    double
    us(const char *name, F &&call)
    {
        const int64_t start = nowNs();
        call();
        const int64_t end = nowNs();
        if (trace_ != nullptr)
            trace_->push(name, id_, start, end - start, kReplayTid);
        return static_cast<double>(end - start) * 1e-3;
    }

  private:
    SpanLog *trace_;
    uint64_t id_;
};

} // namespace

ReplayTimes
replayLayers(const std::vector<Request> &sample,
             const Catalogue &catalogue,
             const heteromap::HeteroMap &framework, SpanLog *trace)
{
    // Same knobs as the server under test: default router, quotas
    // that never reject, default-capacity stats caches.
    net::AdmissionOptions admission_options;
    admission_options.clientRatePerSec = 1e9;
    admission_options.clientBurst = 1e9;
    net::NetAdmission admission(admission_options);
    net::ShardRouter router(2);
    heteromap::GraphStatsCache warm_cache;
    heteromap::GraphStatsCache cold_cache;
    heteromap::Supervisor supervisor(framework);

    std::vector<std::shared_ptr<const heteromap::Workload>> workloads;
    for (const char *name : kWorkloadNames)
        workloads.push_back(heteromap::makeWorkload(name));

    ReplayTimes times;
    std::string frame;
    std::string response_frame;
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const Request &request = sample[i];
        Stage stage(trace, kReplayIdBase + i);
        const auto &graph = catalogue.graphs[request.graph];
        const MeasureOptions options = measureOf(request);

        frame.clear();
        net::encodeRequest(kReplayIdBase + i,
                           toWire(request, catalogue.names), frame);
        bool decoded = false;
        const double decode_us = stage.us("replay.decode", [&] {
            auto header = net::decodeHeader(frame);
            decoded = header.ok() &&
                      net::decodeRequest(std::string_view(frame).substr(
                                             net::kHeaderBytes))
                          .ok();
        });
        if (!decoded)
            continue;

        times.admitUs.push_back(stage.us("replay.admit", [&] {
            admission.admit(1, net::Lane::Normal, nowNs());
        }));

        serve::ServeRequest serve_request;
        serve_request.workload = workloads[request.workload];
        serve_request.graph = graph;
        serve_request.inputName = catalogue.names[request.graph];
        serve_request.measure = options;
        serve::BatchKey key;
        times.fingerprintUs.push_back(stage.us("replay.fingerprint", [&] {
            key = serve::makeBatchKey(serve_request);
        }));
        times.routeUs.push_back(stage.us("replay.route", [&] {
            router.route(heteromap::mixFingerprint(key.fingerprint));
        }));

        GraphStats stats;
        cold_cache.clear();
        times.measureMissMs.push_back(
            stage.us("replay.measure_miss",
                     [&] { stats = cold_cache.measure(*graph, options); }) *
            1e-3);
        if (!warm_cache.peek(*graph, options))
            warm_cache.measure(*graph, options);
        times.measureHitUs.push_back(stage.us("replay.measure_hit", [&] {
            stats = warm_cache.measure(*graph, options);
        }));

        BenchmarkCase bench;
        times.featurizeMs.push_back(
            stage.us("replay.featurize",
                     [&] {
                         bench = heteromap::makeCase(
                             *serve_request.workload, *graph,
                             serve_request.inputName, stats);
                     }) *
            1e-3);

        std::vector<heteromap::Deployment> deployments;
        times.inferUs.push_back(stage.us("replay.infer", [&] {
            deployments = framework.deployBatch(
                std::span<const BenchmarkCase>(&bench, 1));
        }));
        times.supervisedUs.push_back(stage.us(
            "replay.supervised", [&] { supervisor.deploy(bench); }));

        serve::ServeResponse response;
        response.status = serve::ServeStatus::Ok;
        response.deployment = deployments.front();
        response.batchSize = 1;
        const double encode_us = stage.us("replay.encode", [&] {
            response_frame.clear();
            net::encodeResponse(kReplayIdBase + i, net::toWire(response),
                                response_frame);
        });
        times.codecUs.push_back(decode_us + encode_us);
    }
    return times;
}

Expected
expectedFor(const Request &request, const Catalogue &catalogue,
            const heteromap::HeteroMap &framework)
{
    const auto workload =
        heteromap::makeWorkload(kWorkloadNames[request.workload]);
    const heteromap::Graph &graph = *catalogue.graphs[request.graph];
    // Serial sweeps: callers fan out over requests instead, and the
    // stats are byte-identical for any thread count.
    MeasureOptions options = measureOf(request);
    options.threads = 1;
    const GraphStats stats = heteromap::measureGraph(graph, options);
    const heteromap::Deployment deployment = framework.deploy(
        heteromap::makeCase(*workload, graph,
                            catalogue.names[request.graph], stats));
    Expected expected;
    expected.accelerator =
        static_cast<uint8_t>(deployment.config.accelerator);
    expected.threads = deployment.config.activeThreads();
    expected.predictedSeconds = deployment.report.seconds;
    return expected;
}

bool
matches(const Outcome &outcome, const Expected &expected)
{
    // Seconds travel as IEEE-754 bits: compare them bit for bit.
    return outcome.response.accelerator == expected.accelerator &&
           outcome.response.threads == expected.threads &&
           std::memcmp(&outcome.response.predictedSeconds,
                       &expected.predictedSeconds, sizeof(double)) == 0;
}

} // namespace servebench
