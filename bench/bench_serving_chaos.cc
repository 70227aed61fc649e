/**
 * @file
 * Serving chaos soak: replays mixed traffic (batched, supervised,
 * retried through RetryingClient) against a PredictionService while
 * a seeded ChaosPolicy injects worker stalls, batch crashes (one of
 * them lethal, exercising the watchdog restart), admission delays,
 * and supervised-lane hangs — and, mid-soak, a corrupted model load
 * that must roll back before a clean reload hot-swaps the epoch.
 *
 * Three phases: a clean baseline, the fault window, and a recovery
 * window after disarming. The soak *asserts* its invariants and
 * exits nonzero on any violation:
 *
 *   - zero broken promises: every submitted request gets a terminal
 *     response, whatever the chaos did;
 *   - bounded error rate: error responses <= crash fires x maxBatch
 *     (errors come only from injected batch crashes);
 *   - per-client monotone model epochs across the mid-soak
 *     corrupted-then-rolled-back-then-reloaded model swap;
 *   - the degradation ladder walks back to Normal and the recovery
 *     p99 lands within 2x the baseline (or +5 ms, whichever is
 *     looser — CI boxes are noisy).
 *
 * Forensics ride the soak (telemetry-ON builds): the flight
 * recorder is armed and every chaos crash / ladder escalation past
 * BypassSupervised writes a "<prefix>postmortem-<seq>.jsonl" dump,
 * each line of which must parse as JSON; a fourth phase replays
 * uniform control traffic and then swaps in a corpus the model
 * never trained on (a Kronecker / R-MAT graph plus a long-diameter
 * road grid), asserting the drift monitor's PSI crosses its alert
 * threshold for the shifted corpus and not for the control. A
 * --statusz-out snapshot closes the run.
 *
 * Run: ./bench_serving_chaos [--requests N] [--workers W]
 *                            [--clients C] [--seed S]
 *                            [--postmortem-prefix P]
 *                            [--statusz-out out.json]
 *                            [--telemetry-out out.json]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/fault_model.hh"
#include "arch/presets.hh"
#include "core/experiment.hh"
#include "graph/generators.hh"
#include "graph/stats_cache.hh"
#include "model/feature_baseline.hh"
#include "serve/model_registry.hh"
#include "serve/prediction_service.hh"
#include "serve/retrying_client.hh"
#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/telemetry.hh"
#include "util/timer.hh"
#include "util/trace.hh"
#include "workloads/registry.hh"

using namespace heteromap;
using namespace heteromap::serve;

namespace {

struct SoakOptions {
    std::size_t requests = 150; //!< per phase
    std::size_t workers = 2;
    std::size_t clients = 3;
    uint64_t seed = 7;
    //! Postmortem dump prefix (the service appends
    //! "postmortem-<seq>.jsonl"); dumps stay on disk for CI upload.
    std::string postmortemPrefix = "bench_serving_chaos_";
    std::string statuszOut; //!< empty: no statusz snapshot file
};

SoakOptions
parseArgs(int argc, char **argv)
{
    SoakOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "bench_serving_chaos: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--requests")
            options.requests = std::strtoull(next(), nullptr, 10);
        else if (arg == "--workers")
            options.workers = std::strtoull(next(), nullptr, 10);
        else if (arg == "--clients")
            options.clients = std::strtoull(next(), nullptr, 10);
        else if (arg == "--seed")
            options.seed = std::strtoull(next(), nullptr, 10);
        else if (arg == "--postmortem-prefix")
            options.postmortemPrefix = next();
        else if (arg == "--statusz-out")
            options.statuszOut = next();
        else {
            std::cerr << "bench_serving_chaos: unknown flag " << arg
                      << "\n";
            std::exit(2);
        }
    }
    options.requests = std::max<std::size_t>(30, options.requests);
    options.clients = std::max<std::size_t>(1, options.clients);
    return options;
}

/** Aggregated outcome of one traffic phase. */
struct PhaseStats {
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t shed = 0;
    uint64_t closed = 0;
    uint64_t brokenPromises = 0;
    uint64_t epochViolations = 0;

    uint64_t
    responses() const
    {
        return ok + errors + shed + closed;
    }
};

int violations = 0;

void
check(bool condition, const std::string &what)
{
    if (condition) {
        std::cout << "  [ok] " << what << "\n";
    } else {
        std::cerr << "  [VIOLATION] " << what << "\n";
        ++violations;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setLogVerbose(false);
    telemetry::TelemetryFileWriter telemetry_writer(
        telemetry::consumeTelemetryOutFlag(argc, argv));
    const SoakOptions soak = parseArgs(argc, argv);

    Oracle oracle;
    AcceleratorPair pair = pinnedPair(primaryPair());
    ModelRegistry registry(pair, oracle);

    forensics::armFlightRecorder();

    std::vector<std::shared_ptr<const Workload>> workloads;
    workloads.emplace_back(makeWorkload("PR"));
    workloads.emplace_back(makeWorkload("BFS"));
    const std::vector<std::shared_ptr<const Graph>> graphs = {
        std::make_shared<const Graph>(generateMesh(1024, 4, 1)),
        std::make_shared<const Graph>(
            generatePreferentialAttachment(1024, 4, 7)),
    };
    const std::vector<std::string> graph_names = {"mesh", "social"};

    // The published model carries a feature baseline over the soak's
    // own catalogue so the drift monitor scores live windows; the
    // mid-soak save/load round-trips it through the v3 envelope.
    // Each case is weighted to roughly a drift window's mass — a
    // 4-sample baseline against 64-sample windows would report pure
    // Laplace-smoothing noise as PSI.
    auto baseline_features = std::make_shared<FeatureBaseline>();
    for (const auto &workload : workloads) {
        for (std::size_t g = 0; g < graphs.size(); ++g) {
            const GraphStats stats =
                globalStatsCache().measure(*graphs[g]);
            const FeatureVector features =
                makeCase(*workload, *graphs[g], graph_names[g], stats)
                    .features;
            for (int r = 0; r < 10; ++r)
                baseline_features->add(features);
        }
    }
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree),
                     baseline_features);

    // Snapshot the model to disk: the mid-soak reload reads it back.
    const std::string model_path = "bench_serving_chaos_model.tmp";
    if (!registry.saveActive(model_path).ok()) {
        std::cerr << "bench_serving_chaos: saveActive failed\n";
        return 1;
    }

    auto chaos = std::make_shared<ChaosPolicy>(soak.seed);
    registry.setChaosPolicy(chaos);

    ServiceOptions options;
    options.workers = soak.workers;
    options.maxBatch = 4;
    options.chaos = chaos;
    options.watchdog.pollMs = 2.0;
    options.watchdog.stuckAfterMs = 200.0;
    options.watchdog.recoverAfterMs = 30.0;
    options.postmortemPrefix = soak.postmortemPrefix;
    // Small drift windows so the monitor closes (and scores) windows
    // within a default-length soak.
    options.drift.windowSize = 64;
    PredictionService service(registry, options);

    RetryOptions retry;
    retry.maxAttempts = 4;
    retry.initialBackoffMs = 0.5;
    retry.maxBackoffMs = 8.0;
    retry.breakerThreshold = 8;
    retry.breakerOpenMs = 20.0;
    retry.seed = soak.seed ^ 0xc11e47ULL;
    RetryingClient client(service, retry);

    // Closed-loop traffic: each client keeps one request in flight
    // and checks the monotone-epoch contract on its own stream.
    // Latencies go into the caller's histogram (lock-free record(),
    // so clients write it directly); the phase-4 drift scenario
    // swaps in its own graph corpus.
    auto runPhase = [&](std::size_t count,
                        telemetry::Histogram &latency,
                        const std::vector<std::shared_ptr<const Graph>>
                            &phase_graphs,
                        const std::vector<std::string> &phase_names) {
        PhaseStats stats;
        std::vector<std::thread> threads;
        std::vector<PhaseStats> per_client(soak.clients);
        for (std::size_t c = 0; c < soak.clients; ++c) {
            threads.emplace_back([&, c] {
                PhaseStats &mine = per_client[c];
                uint64_t last_epoch = 0;
                for (std::size_t i = c; i < count;
                     i += soak.clients) {
                    ServeRequest request;
                    request.workload =
                        workloads[i % workloads.size()];
                    request.graph =
                        phase_graphs[(i / 2) % phase_graphs.size()];
                    request.inputName =
                        phase_names[(i / 2) % phase_names.size()];
                    request.supervised = (i % 7 == 0);
                    try {
                        ClientResult result =
                            client.call(std::move(request));
                        const ServeResponse &response =
                            result.response;
                        switch (response.status) {
                          case ServeStatus::Ok:
                            ++mine.ok;
                            latency.record(response.queueMs +
                                           response.serviceMs);
                            if (response.modelEpoch < last_epoch)
                                ++mine.epochViolations;
                            last_epoch = response.modelEpoch;
                            break;
                          case ServeStatus::Error:
                            ++mine.errors;
                            break;
                          case ServeStatus::Shed:
                            ++mine.shed;
                            break;
                          case ServeStatus::Closed:
                            ++mine.closed;
                            break;
                        }
                    } catch (const std::exception &) {
                        // A future that never became ready (or blew
                        // up in get()) is exactly the "broken
                        // promise" the soak exists to rule out.
                        ++mine.brokenPromises;
                    }
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
        for (const PhaseStats &mine : per_client) {
            stats.ok += mine.ok;
            stats.errors += mine.errors;
            stats.shed += mine.shed;
            stats.closed += mine.closed;
            stats.brokenPromises += mine.brokenPromises;
            stats.epochViolations += mine.epochViolations;
        }
        return stats;
    };

    // Per-phase latency histograms (Histogram is non-copyable, so
    // they live here and runPhase records into them by reference).
    telemetry::Histogram baseline_hist, faulted_hist, recovery_hist;
    telemetry::Histogram control_hist, shifted_hist;

    /* ---------------- Phase 1: clean baseline ---------------- */
    std::cout << "phase 1: baseline (" << soak.requests
              << " requests)\n";
    const PhaseStats baseline =
        runPhase(soak.requests, baseline_hist, graphs, graph_names);
    const double baseline_p99 =
        baseline_hist.snapshot().percentile(0.99);

    /* ---------------- Phase 2: fault window ------------------ */
    std::cout << "phase 2: fault window (" << soak.requests
              << " requests, chaos armed)\n";
    {
        ChaosSpec stall;
        stall.point = ChaosPoint::WorkerStall;
        stall.probability = 0.25;
        stall.delayMs = 6.0;
        chaos->arm(stall);

        ChaosSpec crash;
        crash.point = ChaosPoint::WorkerCrashBatch;
        crash.probability = 0.08;
        chaos->arm(crash);

        // One guaranteed lethal crash early in the window: the
        // watchdog must restart the dead worker mid-soak.
        ChaosSpec lethal;
        lethal.point = ChaosPoint::WorkerCrashBatch;
        lethal.probability = 1.0;
        lethal.lethal = true;
        lethal.startVisit = 3;
        lethal.endVisit = 4;
        chaos->arm(lethal);

        ChaosSpec admission;
        admission.point = ChaosPoint::AdmissionDelay;
        admission.probability = 0.1;
        admission.delayMs = 1.5;
        chaos->arm(admission);

        ChaosSpec hang;
        hang.point = ChaosPoint::SupervisorHang;
        hang.probability = 0.5;
        hang.delayMs = 8.0;
        chaos->arm(hang);

        // And the persistence fault: the next loadFrom() sees one
        // flipped bit.
        ChaosSpec corrupt;
        corrupt.point = ChaosPoint::ModelLoadCorrupt;
        corrupt.probability = 1.0;
        corrupt.endVisit = 1;
        chaos->arm(corrupt);
    }

    const uint64_t epoch_before_swap = registry.epoch();
    PhaseStats faulted;
    {
        std::thread traffic([&] {
            faulted = runPhase(soak.requests, faulted_hist, graphs,
                               graph_names);
        });

        // Mid-soak model events, while the fault traffic runs: a
        // corrupted load that must roll back, then a clean reload
        // that must land as a monotone epoch bump.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        const bool corrupt_load_failed =
            !registry.loadFrom(model_path).ok();
        const bool clean_load_ok =
            registry.loadFrom(model_path).ok();
        traffic.join();

        check(corrupt_load_failed,
              "corrupted model load was detected and rolled back");
        check(clean_load_ok, "clean model reload hot-swapped");
    }
    chaos->disarm();

    /* ---------------- Phase 3: recovery ---------------------- */
    std::cout << "phase 3: recovery (" << soak.requests
              << " requests, chaos disarmed)\n";
    {
        // Let the ladder walk back before measuring.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (service.degradationLevel() !=
                   DegradationLevel::Normal &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
    const PhaseStats recovery =
        runPhase(soak.requests, recovery_hist, graphs, graph_names);
    const double recovery_p99 =
        recovery_hist.snapshot().percentile(0.99);

    /* ---------------- Phase 4: drift scenario ----------------- */
    // Control: one more round of the uniform training-corpus traffic
    // — the drift monitor must stay quiet. Shift: a corpus the
    // baseline never saw, a Kronecker (R-MAT) graph plus a
    // long-diameter road grid. At bench scale the paper's
    // literature-maxima normalization (graph/datasets.cc: 134M
    // vertices, 3M max degree) flattens the size and degree I-vars
    // of *any* toy graph to the same grid point, so the corpus swap
    // is carried by the diameter dimension: the 64x64 grid's
    // ~126-hop diameter lands at I4 = 0.3 where every training
    // graph sat at 0.0 — exactly the feature-space movement the
    // monitor exists to flag.
    std::cout << "phase 4: drift control + corpus shift (2 x "
              << soak.requests << " requests)\n";
    const PhaseStats control =
        runPhase(soak.requests, control_hist, graphs, graph_names);
    const DriftScores control_scores = service.driftScores();

    const std::vector<std::shared_ptr<const Graph>> shifted_graphs = {
        std::make_shared<const Graph>(
            generateRmat(12, 8.0, soak.seed ^ 0x5eedULL)),
        std::make_shared<const Graph>(
            generateRoadGrid(64, 64, soak.seed ^ 0xbeefULL)),
    };
    const std::vector<std::string> shifted_names = {"rmat",
                                                    "longgrid"};
    const PhaseStats shifted = runPhase(soak.requests, shifted_hist,
                                        shifted_graphs, shifted_names);
    const DriftScores shifted_scores = service.driftScores();

    service.close();
    std::remove(model_path.c_str());

    /* ---------------- Report + invariants -------------------- */
    const uint64_t crash_fires =
        chaos->fires(ChaosPoint::WorkerCrashBatch);
    TextTable table({"metric", "baseline", "faulted", "recovery"});
    auto row = [&](const char *name, uint64_t a, uint64_t b,
                   uint64_t c) {
        table.addRow({name, std::to_string(a), std::to_string(b),
                      std::to_string(c)});
    };
    row("ok", baseline.ok, faulted.ok, recovery.ok);
    row("errors", baseline.errors, faulted.errors, recovery.errors);
    row("shed", baseline.shed, faulted.shed, recovery.shed);
    table.addRow(
        {"p99 (ms)", formatNumber(baseline_p99, 3),
         formatNumber(faulted_hist.snapshot().percentile(0.99), 3),
         formatNumber(recovery_p99, 3)});
    table.print(std::cout);

    std::cout << "chaos fires:";
    for (std::size_t p = 0; p < kNumChaosPoints; ++p) {
        const auto point = static_cast<ChaosPoint>(p);
        std::cout << " " << chaosPointName(point) << "="
                  << chaos->fires(point);
    }
    std::cout << "\nworker restarts=" << service.workerRestarts()
              << " stalls=" << service.workerStalls()
              << " batch failures=" << service.batchFailures()
              << " fallback served=" << service.fallbackServed()
              << " model load failures=" << registry.loadFailures()
              << "\nflight records appended="
              << forensics::auditRecordsAppended()
              << " dropped=" << forensics::auditRecordsDropped()
              << " postmortems=" << service.postmortems()
              << "\ndrift: control psi="
              << formatNumber(control_scores.psi, 4)
              << " shifted psi=" << formatNumber(shifted_scores.psi, 4)
              << " windows=" << shifted_scores.windows
              << " alerts=" << shifted_scores.alerts << "\n";

    std::cout << "invariants:\n";
    const uint64_t total_requests = 5 * soak.requests;
    check(baseline.responses() + faulted.responses() +
                  recovery.responses() + control.responses() +
                  shifted.responses() ==
              total_requests,
          "every request got a terminal response");
    check(baseline.brokenPromises + faulted.brokenPromises +
                  recovery.brokenPromises + control.brokenPromises +
                  shifted.brokenPromises ==
              0,
          "zero broken promises");
    check(baseline.errors == 0 && recovery.errors == 0 &&
              control.errors == 0 && shifted.errors == 0,
          "errors confined to the fault window");
    check(faulted.errors <= crash_fires * options.maxBatch,
          "error rate bounded by crash fires x maxBatch");
    check(baseline.epochViolations + faulted.epochViolations +
                  recovery.epochViolations ==
              0,
          "per-client model epochs stayed monotone");
    check(registry.loadFailures() == 1,
          "exactly the corrupted load failed");
    check(registry.epoch() == epoch_before_swap + 1,
          "rollback kept the epoch; the clean reload bumped it once");
    check(crash_fires >= 1, "the crash fault actually fired");
    check(service.workerRestarts() >= 1,
          "the lethal crash exercised a watchdog restart");
    // Both lines carry their measured values, so a failing run
    // names its cause.
    const DegradationLevel final_level = service.degradationLevel();
    check(final_level == DegradationLevel::Normal,
          std::string("degradation ladder recovered to Normal (final "
                      "level ") +
              degradationLevelName(final_level) + ")");
    const double recovery_bound =
        std::max(2.0 * baseline_p99, baseline_p99 + 5.0);
    check(recovery_p99 <= recovery_bound,
          "recovery p99 within 2x baseline (or +5 ms) (recovery " +
              formatNumber(recovery_p99, 3) + " ms, baseline " +
              formatNumber(baseline_p99, 3) + " ms, bound " +
              formatNumber(recovery_bound, 3) + " ms)");

    // Forensics invariants only bite in telemetry-ON builds: with
    // telemetry compiled out the recorder and drift monitor are
    // no-ops by design.
    if (telemetry::enabled()) {
        check(service.postmortems() >= 1,
              "the lethal chaos crash produced a postmortem dump");
        uint64_t postmortem_lines = 0;
        bool postmortem_parse_ok = true;
        for (uint64_t seq = 0; seq < service.postmortems(); ++seq) {
            const std::string path = soak.postmortemPrefix +
                                     "postmortem-" +
                                     std::to_string(seq) + ".jsonl";
            std::ifstream dump(path);
            if (!dump.is_open()) {
                std::cerr << "  missing postmortem dump: " << path
                          << "\n";
                postmortem_parse_ok = false;
                continue;
            }
            std::string line;
            while (std::getline(dump, line)) {
                if (line.empty())
                    continue;
                ++postmortem_lines;
                std::string error;
                if (!telemetry::validateJson(line, &error)) {
                    std::cerr << "  bad JSONL in " << path << ": "
                              << error << "\n";
                    postmortem_parse_ok = false;
                }
            }
        }
        check(postmortem_parse_ok && postmortem_lines > 0,
              "every postmortem dump line parses as JSON");
        check(control_scores.hasBaseline,
              "drift monitor armed with the published baseline");
        check(control_scores.windows > 0 &&
                  control_scores.psi < options.drift.psiAlert,
              "uniform control corpus stayed under the PSI alert "
              "threshold");
        check(shifted_scores.windows > control_scores.windows &&
                  shifted_scores.psi >= options.drift.psiAlert,
              "R-MAT corpus shift pushed PSI past the alert "
              "threshold");
        check(shifted_scores.alerts > control_scores.alerts,
              "the corpus shift raised a drift alert");
    }

    if (!soak.statuszOut.empty()) {
        std::ofstream out(soak.statuszOut,
                          std::ios::binary | std::ios::trunc);
        if (out.is_open()) {
            out << statuszJson(service.statusz()) << "\n";
            std::cout << "statusz snapshot written to "
                      << soak.statuszOut << "\n";
        } else {
            check(false, "statusz snapshot file is writable");
        }
    }

    if (violations > 0) {
        std::cerr << "bench_serving_chaos: " << violations
                  << " invariant violation(s)\n";
        return 1;
    }
    std::cout << "bench_serving_chaos: all invariants held\n";
    return 0;
}
