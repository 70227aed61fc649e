/**
 * @file
 * Graph-measurement substrate benchmark: serial vs parallel
 * measureGraph, the serial cold cost split into the symmetry check
 * and the sweeps (naming the diameter kernel each input takes), cold vs cached (memoized) repeat measurement, and
 * the end-to-end online predictor overhead with and without a warm
 * stats cache. The 1,024-vertex mesh/PA/road inputs are the size of
 * the graphs a serving stats-cache miss measures. Companion to
 * bench_predictor_overhead: that one times inference alone; this one
 * times the property-collection side that used to dominate the
 * online path for large inputs.
 *
 * Run: ./bench_graph_measurement
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/heteromap.hh"
#include "graph/frontier.hh"
#include "graph/generators.hh"
#include "graph/stats_cache.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"
#include "workloads/registry.hh"

using namespace heteromap;

namespace {

/** Median-of-reps wall time of fn(), in milliseconds. */
template <typename Fn>
double
timeMs(int reps, Fn &&fn)
{
    std::vector<double> samples;
    samples.reserve(reps);
    Timer timer;
    for (int i = 0; i < reps; ++i) {
        timer.start();
        fn();
        samples.push_back(timer.elapsedMillis());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    telemetry::TelemetryFileWriter telemetry_out(
        telemetry::consumeTelemetryOutFlag(argc, argv));
    setLogVerbose(false);

    struct Input {
        std::string name;
        Graph graph;
    };
    const Input inputs[] = {
        {"rmat-16 (social)", generateRmat(16, 16.0, 31)},
        {"uniform-200k", generateUniformRandom(200000, 1600000, 33)},
        {"road-512x256 (high dia)", generateRoadGrid(512, 256, 35)},
        {"dense-er-1k", generateDenseEr(1000, 0.5, 37)},
        {"mesh-1k", generateMesh(1024, 4, 100)},
        {"pa-1k", generatePreferentialAttachment(1024, 4, 101)},
        {"road-32x32", generateRoadGrid(32, 32, 102)},
    };

    std::cout << "graph measurement substrate ("
              << ThreadPool::defaultThreadCount()
              << " hardware threads)\n\n";

    TextTable table({"input", "#V", "#E", "kernel", "serial ms",
                     "sym ms", "sweeps ms", "parallel ms", "speedup", "cached ms",
                     "cold/cached"});
    double worst_ratio = -1.0;
    for (const Input &input : inputs) {
        MeasureOptions serial;
        serial.threads = 1;
        MeasureOptions parallel; // threads = 0: shared pool
        // Sub-millisecond inputs need more reps for a stable median.
        const int reps = input.graph.numEdges() < 100000 ? 101 : 5;

        const double serial_ms =
            timeMs(reps, [&] { measureGraph(input.graph, serial); });
        const double parallel_ms =
            timeMs(reps, [&] { measureGraph(input.graph, parallel); });

        // Serial cold split: graphs too small to fan out take the
        // serial probe and never check symmetry; larger ones run
        // flatBfs and check it only when the traversal plan allows
        // bottom-up levels. The rest is the degree sweep plus the
        // BFS double sweeps.
        const bool probe = traversalNeverFansOut(input.graph);
        const GraphStats shape = measureGraph(input.graph, 0, 1);
        const bool checks_symmetry =
            !probe && planTraversal(shape.numVertices, shape.numEdges,
                                    shape.avgDegree, shape.degreeStddev)
                          .useBottomUp;
        const double sym_ms =
            checks_symmetry
                ? timeMs(reps,
                         [&] { hasSymmetricAdjacency(input.graph); })
                : 0.0;

        // Cold vs cached through a private cache (the global one may
        // already know these graphs).
        GraphStatsCache cache(8);
        const double cold_ms =
            timeMs(1, [&] { cache.measure(input.graph); });
        const double cached_ms = timeMs(
            64, [&] { cache.measure(input.graph); });
        const double ratio = cold_ms / std::max(cached_ms, 1e-9);
        if (worst_ratio < 0.0 || ratio < worst_ratio)
            worst_ratio = ratio;

        GraphStats stats = cache.measure(input.graph);
        table.addRow({
            input.name,
            formatCount(stats.numVertices),
            formatCount(stats.numEdges),
            probe ? "probe" : "flatBfs",
            formatNumber(serial_ms, 3),
            checks_symmetry ? formatNumber(sym_ms, 4) : "skipped",
            formatNumber(std::max(serial_ms - sym_ms, 0.0), 4),
            formatNumber(parallel_ms, 3),
            formatNumber(serial_ms / std::max(parallel_ms, 1e-9), 2),
            formatNumber(cached_ms, 5),
            formatNumber(ratio, 0) + "x",
        });
    }
    table.print(std::cout);
    std::cout << "\nworst cold/cached ratio: "
              << formatNumber(worst_ratio, 0)
              << "x (acceptance floor: 100x)\n\n";

    // Degree/stats sweep in isolation (sweeps = 0 skips the BFS
    // probes): blocked (default 256-vertex blocks, four accumulator
    // lanes) vs degenerate block=1, which approximates the old
    // straight-line loop. Serial, so the delta is the kernel's alone.
    TextTable sweep_table({"input", "block=1 ms", "blocked ms",
                           "speedup"});
    for (const Input &input : inputs) {
        MeasureOptions scalarish;
        scalarish.sweeps = 0;
        scalarish.threads = 1;
        scalarish.statsBlock = 1;
        MeasureOptions blocked = scalarish;
        blocked.statsBlock = 0; // default blocking

        const double scalar_ms =
            timeMs(9, [&] { measureGraph(input.graph, scalarish); });
        const double blocked_ms =
            timeMs(9, [&] { measureGraph(input.graph, blocked); });
        sweep_table.addRow({
            input.name,
            formatNumber(scalar_ms, 4),
            formatNumber(blocked_ms, 4),
            formatNumber(scalar_ms / std::max(blocked_ms, 1e-9), 2),
        });
    }
    std::cout << "degree/stats sweep, blocked vs block=1 (serial, "
                 "sweeps=0):\n";
    sweep_table.print(std::cout);
    std::cout << "\n";

    // End-to-end online path: HeteroMap::predict measures and
    // featurizes through the global caches, so the first deployment
    // of a graph pays the sweeps and the workload run, and every
    // repeat deployment only pays inference.
    Oracle oracle;
    HeteroMap framework(primaryPair(),
                        makePredictor(PredictorKind::DecisionTree),
                        oracle);
    std::shared_ptr<const Workload> workload = makeWorkload("PR");
    Graph online = generateRmat(15, 12.0, 41);

    Deployment cold = framework.predict(workload, online, "rmat15");
    Deployment warm = framework.predict(workload, online, "rmat15");
    std::cout << "online predict overhead (measurement + inference):\n"
              << "  cold graph: " << formatNumber(cold.overheadMs, 3)
              << " ms\n"
              << "  warm graph: " << formatNumber(warm.overheadMs, 3)
              << " ms (" << formatNumber(
                     cold.overheadMs /
                         std::max(warm.overheadMs, 1e-9), 0)
              << "x less framework overhead)\n";
    return 0;
}
