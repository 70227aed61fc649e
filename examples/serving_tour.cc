/**
 * @file
 * Serving tour: the end-to-end acceptance check for the serving
 * subsystem (src/serve/), run under CTest as ServeTourHotSwap.
 *
 * Phase A (Block admission): two closed-loop clients drive a
 * two-worker PredictionService while the main thread retrains a
 * learner in the background — distilling the Sec. IV decision-tree
 * heuristic into the Adaptive.Library baseline — and hot-swaps it
 * into the ModelRegistry mid-traffic. The tour asserts that the swap
 * is observable purely through the model epoch stamped into the
 * responses (1 before, 2 after, never anything else, monotone per
 * client) and that backpressure dropped nothing: every submitted
 * request completed Ok.
 *
 * Phase B (Reject admission): a burst floods a single-worker,
 * capacity-1 service and the tour asserts the load shedding is
 * accounted exactly — Ok responses + Shed responses = submissions,
 * and (when telemetry is compiled in) the "serve.shed" counter moved
 * by precisely the number of Shed responses.
 *
 * Run: ./serving_tour [--telemetry-out serving_tour.json]
 */

#include <atomic>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "arch/presets.hh"
#include "core/experiment.hh"
#include "features/ivars.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "serve/model_registry.hh"
#include "serve/prediction_service.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "workloads/registry.hh"

using namespace heteromap;
using namespace heteromap::serve;

namespace {

int
fail(const std::string &why)
{
    std::cerr << "serving_tour: FAILED: " << why << "\n";
    return 1;
}

/**
 * A retraining corpus without a tuner sweep: label every
 * (workload, input) feature vector with the decision-tree heuristic's
 * own output, so the swapped-in learner imitates the heuristic.
 */
TrainingSet
distillationCorpus()
{
    auto teacher = makePredictor(PredictorKind::DecisionTree);
    TrainingSet corpus;
    for (const auto &name : workloadNames()) {
        auto workload = makeWorkload(name);
        for (const char *input : {"CA", "CO", "LJ"}) {
            TrainingSample sample;
            sample.x.b = workload->bVariables();
            sample.x.i = extractIVariables(datasetByShortName(input));
            sample.y = teacher->predict(sample.x);
            corpus.push_back(std::move(sample));
        }
    }
    return corpus;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogVerbose(false);
    telemetry::TelemetryFileWriter telemetry_writer(
        telemetry::consumeTelemetryOutFlag(argc, argv));

    Oracle oracle;
    AcceleratorPair pair = pinnedPair(primaryPair());
    ModelRegistry registry(pair, oracle);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));

    auto pagerank =
        std::shared_ptr<const Workload>(makeWorkload("PR"));
    auto bfs = std::shared_ptr<const Workload>(makeWorkload("BFS"));
    auto mesh = std::make_shared<const Graph>(generateMesh(512, 4, 1));
    auto social = std::make_shared<const Graph>(
        generatePreferentialAttachment(512, 4, 7));

    // --- Phase A: hot-swap under closed-loop traffic (Block). -----
    ServiceOptions options;
    options.workers = 2;
    options.admission = AdmissionPolicy::Block;
    PredictionService service(registry, options);
    if (service.workers() != 2)
        return fail("expected 2 serving workers");

    constexpr int kClients = 2;
    constexpr int kMinRequestsEach = 4;
    constexpr int kMaxRequestsEach = 20000; // runaway guard
    std::atomic<uint64_t> phase_a_responses{0};
    std::atomic<bool> client_failed{false};
    std::mutex epochs_mutex;
    std::vector<uint64_t> epochs_seen;

    auto client = [&](int which) {
        uint64_t last_epoch = 0;
        for (int i = 0; i < kMaxRequestsEach; ++i) {
            ServeRequest request;
            request.workload = (which == 0) ? pagerank : bfs;
            request.graph = (i % 2 == 0) ? mesh : social;
            request.inputName = (i % 2 == 0) ? "mesh" : "social";
            ServeResponse response =
                service.submit(std::move(request)).get();
            phase_a_responses.fetch_add(1);
            if (response.status != ServeStatus::Ok ||
                response.modelEpoch < last_epoch) {
                client_failed.store(true);
                return;
            }
            last_epoch = response.modelEpoch;
            {
                std::lock_guard<std::mutex> lock(epochs_mutex);
                epochs_seen.push_back(response.modelEpoch);
            }
            // Run until the hot-swap is observed (and a little past
            // it), so the swap demonstrably lands mid-traffic.
            if (response.modelEpoch >= 2 && i + 1 >= kMinRequestsEach)
                return;
        }
        client_failed.store(true); // never saw the swap
    };

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(client, c);

    // Let traffic establish itself on epoch 1...
    while (phase_a_responses.load() <
               static_cast<uint64_t>(kClients * kMinRequestsEach) &&
           !client_failed.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // ...then retrain in the background and swap, no restart, no
    // pause: in-flight batches finish on the model they pinned.
    const uint64_t new_epoch = registry.publishTrained(
        PredictorKind::AdaptiveLibrary, distillationCorpus());

    for (auto &thread : clients)
        thread.join();
    service.close();

    if (client_failed.load())
        return fail("a client saw a drop, a non-Ok response, or a "
                    "backwards epoch");
    if (new_epoch != 2)
        return fail("expected the retrain to publish epoch 2");
    bool saw_old = false, saw_new = false;
    for (uint64_t epoch : epochs_seen) {
        if (epoch == 1)
            saw_old = true;
        else if (epoch == 2)
            saw_new = true;
        else
            return fail("response stamped with an impossible epoch");
    }
    if (!saw_old || !saw_new)
        return fail("the hot-swap was not observable in the "
                    "response epochs");
    if (service.shed() != 0)
        return fail("Block admission shed a request");
    if (service.completed() != service.submitted())
        return fail("a request went unanswered under Block "
                    "admission");

    std::cout << "phase A: " << service.completed() << " requests, "
              << registry.current()->predictorName
              << " hot-swapped in at epoch " << new_epoch
              << " mid-traffic, 0 dropped\n";

    // --- Phase B: exact shed accounting under Reject. -------------
    const uint64_t shed_counter_before =
        telemetry::registry().snapshot().counters["serve.shed"];

    ServiceOptions reject_options;
    reject_options.workers = 1;
    reject_options.queueCapacity = 1;
    reject_options.maxBatch = 1;
    reject_options.admission = AdmissionPolicy::Reject;
    PredictionService overloaded(registry, reject_options);

    constexpr int kBurst = 64;
    std::vector<std::future<ServeResponse>> futures;
    futures.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
        ServeRequest request;
        request.workload = pagerank;
        request.graph = mesh;
        request.inputName = "mesh";
        futures.push_back(overloaded.submit(std::move(request)));
    }

    uint64_t ok = 0, shed = 0;
    for (auto &future : futures) {
        ServeResponse response = future.get();
        if (response.status == ServeStatus::Ok)
            ++ok;
        else if (response.status == ServeStatus::Shed &&
                 response.shedReason == ShedReason::QueueFull)
            ++shed;
        else
            return fail("unexpected response status in the burst");
    }
    overloaded.close();

    const uint64_t shed_counter_delta =
        telemetry::registry().snapshot().counters["serve.shed"] -
        shed_counter_before;
    if (ok + shed != kBurst)
        return fail("burst responses do not add up");
    if (shed == 0)
        return fail("the burst should overload a capacity-1 queue");
    if (overloaded.shed() != shed)
        return fail("service shed() disagrees with the responses");
    // OFF builds never record serve.shed; the service counters
    // above and below are checked in both.
    if (telemetry::enabled() && shed_counter_delta != shed)
        return fail("serve.shed counter is not exact: moved by " +
                    std::to_string(shed_counter_delta) + " for " +
                    std::to_string(shed) + " shed responses");
    if (overloaded.completed() != ok)
        return fail("completed() disagrees with the Ok responses");

    std::cout << "phase B: burst of " << kBurst << " -> " << ok
              << " served, " << shed << " shed";
    if (telemetry::enabled())
        std::cout << ", serve.shed moved by exactly "
                  << shed_counter_delta;
    std::cout << "\n";
    std::cout << "serving_tour: OK\n";
    return 0;
}
