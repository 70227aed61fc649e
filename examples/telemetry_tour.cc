/**
 * @file
 * Telemetry tour: a predict + supervised-deploy run that produces
 * (a) a metrics-registry snapshot whose predict-stage histograms sum
 * to the reported overheadMs, and (b) a Chrome trace_event JSON file
 * loadable in about:tracing / Perfetto.
 *
 * The tour is also the executable acceptance check for the telemetry
 * layer: it validates its own trace export with the format validator
 * and verifies the stage accounting, exiting nonzero on any
 * violation (it runs under CTest as TelemetryTourEmitsValidTrace).
 *
 * Run: ./telemetry_tour [--telemetry-out trace.json]
 */

#include <cmath>
#include <fstream>
#include <iostream>

#include "core/heteromap.hh"
#include "core/supervisor.hh"
#include "graph/generators.hh"
#include "graph/stats_cache.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/trace.hh"
#include "workloads/registry.hh"

using namespace heteromap;

namespace {

int
fail(const std::string &why)
{
    std::cerr << "telemetry_tour: FAILED: " << why << "\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogVerbose(false);
    std::string out_path =
        telemetry::consumeTelemetryOutFlag(argc, argv);
    if (out_path.empty())
        out_path = "telemetry_tour_trace.json";

    if (!telemetry::enabled()) {
        // An OFF build has nothing to tour; succeed vacuously so the
        // CTest entry stays green in every configuration.
        std::cout << "telemetry_tour: built with "
                     "HETEROMAP_TELEMETRY=OFF, nothing to record\n";
        return 0;
    }

    // Start from a clean slate so the numbers below are this run's.
    telemetry::registry().reset();
    telemetry::clearTrace();

    // --- The online path: predict twice (cold, then cache-warm). ---
    Graph graph = generateRmat(/*scale=*/12, /*edge_factor=*/10.0,
                               /*seed=*/42);
    std::shared_ptr<const Workload> workload = makeWorkload("PR");
    Oracle oracle;
    HeteroMap framework(primaryPair(),
                        makePredictor(PredictorKind::DecisionTree),
                        oracle);

    Deployment cold = framework.predict(workload, graph, "rmat12");
    Deployment warm = framework.predict(workload, graph, "rmat12");
    const double total_overhead_ms = cold.overheadMs + warm.overheadMs;

    std::cout << "cold predict overhead: " << cold.overheadMs
              << " ms\nwarm predict overhead: " << warm.overheadMs
              << " ms (graph stats served from cache)\n\n";

    // --- Check: stage histograms partition overheadMs exactly. ---
    {
        telemetry::MetricsSnapshot snap =
            telemetry::registry().snapshot();
        double stage_sum_ms = 0.0;
        for (const char *stage :
             {"predict.stage.measure_ms", "predict.stage.featurize_ms",
              "predict.stage.infer_ms"}) {
            auto found = snap.histograms.find(stage);
            if (found == snap.histograms.end())
                return fail(std::string("missing stage histogram ") +
                            stage);
            if (found->second.count != 2)
                return fail(std::string(stage) +
                            " did not record both predicts");
            stage_sum_ms += found->second.sum;
        }
        const double drift =
            std::abs(stage_sum_ms - total_overhead_ms) /
            total_overhead_ms;
        std::cout << "stage sum " << stage_sum_ms << " ms vs overhead "
                  << total_overhead_ms << " ms (drift "
                  << drift * 100.0 << "%)\n";
        if (drift > 0.01)
            return fail("stage sums drift more than 1% from "
                        "overheadMs");
    }

    // --- A supervised deployment rides on the same telemetry. ---
    GraphStats stats = globalStatsCache().measure(graph);
    BenchmarkCase bench = makeCase(*workload, graph, "rmat12", stats);
    Supervisor supervisor(framework);
    DeploymentOutcome outcome = supervisor.deploy(bench);
    if (!outcome.completed)
        return fail("supervised deployment did not complete");

    // --- The metrics table every bench can now print. ---
    telemetry::MetricsSnapshot snap = telemetry::registry().snapshot();
    std::cout << "\nmetrics snapshot:\n" << snap.toText() << "\n";
    if (snap.counters.at("predict.calls") != 2 ||
        snap.counters.at("supervisor.deployments") != 1)
        return fail("unexpected call counters in the snapshot");
    if (snap.counters.at("stats_cache.hits") == 0)
        return fail("warm predict did not hit the stats cache");

    // --- Export, validate, and write the Chrome trace. ---
    const std::string json = telemetry::combinedTelemetryJson();
    std::string error;
    std::size_t num_events = 0;
    if (!telemetry::validateChromeTrace(json, &error, &num_events))
        return fail("trace validation: " + error);

    std::vector<telemetry::ParsedTraceEvent> events =
        telemetry::parseChromeTrace(json, &error);
    auto count_named = [&](const std::string &name) {
        std::size_t n = 0;
        for (const auto &event : events)
            n += event.name == name ? 1 : 0;
        return n;
    };
    if (count_named("predict") != 2 ||
        count_named("predict.infer_batch") != 2 || // 2 predicts
        count_named("predict.infer") != 1 ||       // supervisor
        count_named("supervise.deploy") != 1)
        return fail("exported trace lacks the expected spans");

    std::ofstream file(out_path);
    file << json << "\n";
    if (!file.good())
        return fail("cannot write " + out_path);

    std::cout << "wrote " << num_events << " trace events to "
              << out_path
              << " (load it in about:tracing or ui.perfetto.dev)\n"
              << "telemetry_tour: all checks passed\n";
    return 0;
}
