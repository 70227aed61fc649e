/**
 * @file
 * Tests for the serving subsystem: the bounded admission-controlled
 * RequestQueue, the hot-swappable ModelRegistry, and the batching
 * PredictionService (queue semantics, batching equivalence, shed
 * accounting, zero drops under backpressure, concurrent hot-swap),
 * plus the workload-profile cache and the per-graph fingerprint the
 * serving path keys on.
 * Every suite name contains "Serve" so `tools/check_tsan.sh -R Serve`
 * runs exactly this file under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/presets.hh"
#include "core/experiment.hh"
#include "graph/generators.hh"
#include "serve/model_registry.hh"
#include "serve/prediction_service.hh"
#include "serve/request_queue.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "workloads/profile_cache.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

namespace heteromap {
namespace serve {
namespace {

std::shared_ptr<const Workload>
sharedWorkload(const char *name)
{
    return std::shared_ptr<const Workload>(makeWorkload(name));
}

std::shared_ptr<const Graph>
sharedGraph(Graph graph)
{
    return std::make_shared<const Graph>(std::move(graph));
}

/** @p name's value in a registry snapshot (0 when absent). */
uint64_t
registryCounter(const std::string &name)
{
    const telemetry::MetricsSnapshot snap =
        telemetry::registry().snapshot();
    auto found = snap.counters.find(name);
    return found == snap.counters.end() ? 0 : found->second;
}

ServeRequest
makeRequest(std::shared_ptr<const Workload> workload,
            std::shared_ptr<const Graph> graph, const char *input)
{
    ServeRequest request;
    request.workload = std::move(workload);
    request.graph = std::move(graph);
    request.inputName = input;
    return request;
}

PendingRequest
makePending(const std::shared_ptr<const Workload> &workload,
            const std::shared_ptr<const Graph> &graph, uint64_t id)
{
    PendingRequest pending;
    pending.request = makeRequest(workload, graph, "queued");
    pending.id = id;
    pending.key = makeBatchKey(pending.request);
    pending.enqueued = std::chrono::steady_clock::now();
    return pending;
}

/* ------------------------------------------------------------------ */
/* RequestQueue                                                       */
/* ------------------------------------------------------------------ */

class ServeQueueTest : public ::testing::Test
{
  protected:
    std::shared_ptr<const Workload> workload_ = sharedWorkload("PR");
    std::shared_ptr<const Graph> mesh_ =
        sharedGraph(generateMesh(128, 4, 1));
    std::shared_ptr<const Graph> star_ =
        sharedGraph(generateStar(64));
};

TEST_F(ServeQueueTest, PopsInFifoOrder)
{
    RequestQueue queue(8);
    for (uint64_t id = 1; id <= 3; ++id) {
        PendingRequest pending = makePending(workload_, mesh_, id);
        EXPECT_EQ(queue.push(pending, AdmissionPolicy::Reject),
                  RequestQueue::PushResult::Admitted);
    }
    EXPECT_EQ(queue.size(), 3u);

    PendingRequest out;
    for (uint64_t id = 1; id <= 3; ++id) {
        ASSERT_TRUE(queue.pop(out));
        EXPECT_EQ(out.id, id);
    }
    EXPECT_EQ(queue.size(), 0u);
}

TEST_F(ServeQueueTest, RejectPolicyShedsWhenFull)
{
    RequestQueue queue(2);
    PendingRequest a = makePending(workload_, mesh_, 1);
    PendingRequest b = makePending(workload_, mesh_, 2);
    PendingRequest c = makePending(workload_, mesh_, 3);
    EXPECT_EQ(queue.push(a, AdmissionPolicy::Reject),
              RequestQueue::PushResult::Admitted);
    EXPECT_EQ(queue.push(b, AdmissionPolicy::Reject),
              RequestQueue::PushResult::Admitted);
    EXPECT_EQ(queue.push(c, AdmissionPolicy::Reject),
              RequestQueue::PushResult::Full);
    // Rejected requests are NOT consumed: the caller still owns the
    // promise and can respond Shed.
    EXPECT_EQ(c.id, 3u);
    c.promise.set_value(ServeResponse{});
}

TEST_F(ServeQueueTest, BlockPolicyWaitsForSpace)
{
    RequestQueue queue(1);
    PendingRequest first = makePending(workload_, mesh_, 1);
    ASSERT_EQ(queue.push(first, AdmissionPolicy::Block),
              RequestQueue::PushResult::Admitted);

    std::atomic<bool> admitted{false};
    std::thread pusher([&] {
        PendingRequest second = makePending(workload_, mesh_, 2);
        EXPECT_EQ(queue.push(second, AdmissionPolicy::Block),
                  RequestQueue::PushResult::Admitted);
        admitted.store(true);
    });

    // The pusher stays blocked until a pop makes room.
    PendingRequest out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 1u);
    pusher.join();
    EXPECT_TRUE(admitted.load());
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 2u);
}

TEST_F(ServeQueueTest, CloseWakesBlockedPushers)
{
    RequestQueue queue(1);
    PendingRequest first = makePending(workload_, mesh_, 1);
    ASSERT_EQ(queue.push(first, AdmissionPolicy::Block),
              RequestQueue::PushResult::Admitted);

    std::thread pusher([&] {
        PendingRequest second = makePending(workload_, mesh_, 2);
        EXPECT_EQ(queue.push(second, AdmissionPolicy::Block),
                  RequestQueue::PushResult::Closed);
    });
    // Give the pusher a moment to block, then close under it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.close();
    pusher.join();

    // Already-admitted work still drains after close.
    PendingRequest out;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 1u);
    EXPECT_FALSE(queue.pop(out));
}

TEST_F(ServeQueueTest, PopMatchingExtractsOnlyTheKey)
{
    RequestQueue queue(8);
    // Interleave two fingerprints: mesh at ids 1/3/5, star at 2/4.
    for (uint64_t id = 1; id <= 5; ++id) {
        PendingRequest pending = makePending(
            workload_, (id % 2 == 1) ? mesh_ : star_, id);
        ASSERT_EQ(queue.push(pending, AdmissionPolicy::Reject),
                  RequestQueue::PushResult::Admitted);
    }

    const BatchKey mesh_key =
        makeBatchKey(makeRequest(workload_, mesh_, "queued"));
    std::vector<PendingRequest> batch;
    const std::size_t n = queue.popMatchingUntil(
        mesh_key, 8, std::chrono::steady_clock::now(), batch);
    EXPECT_EQ(n, 3u);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].id, 1u);
    EXPECT_EQ(batch[1].id, 3u);
    EXPECT_EQ(batch[2].id, 5u);

    // The non-matching requests kept their order.
    PendingRequest out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 2u);
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 4u);
}

TEST_F(ServeQueueTest, PopMatchingHonoursMaxCount)
{
    RequestQueue queue(8);
    for (uint64_t id = 1; id <= 4; ++id) {
        PendingRequest pending = makePending(workload_, mesh_, id);
        ASSERT_EQ(queue.push(pending, AdmissionPolicy::Reject),
                  RequestQueue::PushResult::Admitted);
    }
    const BatchKey key =
        makeBatchKey(makeRequest(workload_, mesh_, "queued"));
    std::vector<PendingRequest> batch;
    EXPECT_EQ(queue.popMatchingUntil(
                  key, 2, std::chrono::steady_clock::now(), batch),
              2u);
    EXPECT_EQ(queue.size(), 2u);
}

TEST_F(ServeQueueTest, CloseRacingPopMatchingReleasesTheWaiter)
{
    // A batch gatherer lingering for more matches must observe
    // close() promptly and return what it has — close racing the
    // in-flight popMatchingUntil must not strand it until the full
    // linger deadline, and whatever it extracted is still valid.
    for (int round = 0; round < 20; ++round) {
        RequestQueue queue(8);
        PendingRequest first = makePending(workload_, mesh_, 1);
        ASSERT_EQ(queue.push(first, AdmissionPolicy::Reject),
                  RequestQueue::PushResult::Admitted);

        std::vector<PendingRequest> batch;
        std::thread gatherer([&] {
            const BatchKey key =
                makeBatchKey(makeRequest(workload_, mesh_, "queued"));
            // Far deadline: only close() can release this early.
            queue.popMatchingUntil(
                key, 8,
                std::chrono::steady_clock::now() +
                    std::chrono::seconds(30),
                batch);
        });
        std::thread closer([&] { queue.close(); });
        gatherer.join();
        closer.join();

        // The single queued request was extracted exactly once —
        // by the gatherer or still poppable — never both, never
        // neither.
        PendingRequest out;
        const bool popped = queue.pop(out);
        EXPECT_EQ(batch.size() + (popped ? 1 : 0), 1u);
        EXPECT_FALSE(queue.pop(out));
    }
}

TEST_F(ServeQueueTest, CloseReleasesEveryBlockedPusher)
{
    // Several pushers blocked on a full queue all observe Closed;
    // none is silently consumed and every promise stays with its
    // caller, usable exactly once.
    RequestQueue queue(1);
    PendingRequest head = makePending(workload_, mesh_, 1);
    ASSERT_EQ(queue.push(head, AdmissionPolicy::Block),
              RequestQueue::PushResult::Admitted);

    constexpr int kPushers = 4;
    std::atomic<int> closed_seen{0};
    std::vector<std::thread> pushers;
    pushers.reserve(kPushers);
    for (int p = 0; p < kPushers; ++p) {
        pushers.emplace_back([&, p] {
            PendingRequest pending =
                makePending(workload_, mesh_, 10 + p);
            const auto outcome =
                queue.push(pending, AdmissionPolicy::Block);
            EXPECT_EQ(outcome, RequestQueue::PushResult::Closed);
            closed_seen.fetch_add(1);
            // The caller keeps the promise: fulfilling it here must
            // not throw (it was never consumed by the queue).
            ServeResponse response;
            response.status = ServeStatus::Closed;
            pending.promise.set_value(std::move(response));
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.close();
    for (auto &pusher : pushers)
        pusher.join();

    EXPECT_EQ(closed_seen.load(), kPushers);
    PendingRequest out;
    EXPECT_TRUE(queue.pop(out)); // the admitted head still drains
    EXPECT_EQ(out.id, 1u);
    EXPECT_FALSE(queue.pop(out));
}

/* ------------------------------------------------------------------ */
/* ModelRegistry                                                      */
/* ------------------------------------------------------------------ */

class ServeRegistryTest : public ::testing::Test
{
  protected:
    Oracle oracle_;
    AcceleratorPair pair_ = pinnedPair(primaryPair());
};

TEST_F(ServeRegistryTest, EmptyBeforeFirstPublish)
{
    ModelRegistry registry(pair_, oracle_);
    EXPECT_EQ(registry.current(), nullptr);
    EXPECT_EQ(registry.epoch(), 0u);
}

TEST_F(ServeRegistryTest, PublishBumpsEpochMonotonically)
{
    ModelRegistry registry(pair_, oracle_);
    EXPECT_EQ(registry.publish(
                  PredictorKind::DecisionTree,
                  makePredictor(PredictorKind::DecisionTree)),
              1u);
    EXPECT_EQ(registry.publish(
                  PredictorKind::DecisionTree,
                  makePredictor(PredictorKind::DecisionTree)),
              2u);
    auto snapshot = registry.current();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->epoch, 2u);
    EXPECT_EQ(snapshot->kind, PredictorKind::DecisionTree);
    EXPECT_NE(snapshot->framework, nullptr);
}

TEST_F(ServeRegistryTest, LoadHotSwapsFromAStream)
{
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));

    std::ostringstream out;
    auto tree = makePredictor(PredictorKind::DecisionTree);
    savePredictor(*tree, PredictorKind::DecisionTree, out);
    std::istringstream in(out.str());
    Result<uint64_t> epoch =
        registry.load(PredictorKind::DecisionTree, in);
    ASSERT_TRUE(epoch.ok()) << epoch.error().toString();
    EXPECT_EQ(epoch.value(), 2u);
    EXPECT_EQ(registry.current()->predictorName, tree->name());
}

TEST_F(ServeRegistryTest, CorruptStreamRollsBackToLastGood)
{
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    const auto before = registry.current();

    std::ostringstream out;
    auto tree = makePredictor(PredictorKind::DecisionTree);
    savePredictor(*tree, PredictorKind::DecisionTree, out);
    std::string text = out.str();
    text[text.size() - 1] ^= 0x04; // flip one payload bit

    std::istringstream in(text);
    Result<uint64_t> epoch =
        registry.load(PredictorKind::DecisionTree, in);
    ASSERT_FALSE(epoch.ok());
    EXPECT_EQ(registry.loadFailures(), 1u);
    // Implicit rollback: the active snapshot and epoch never moved.
    EXPECT_EQ(registry.current(), before);
    EXPECT_EQ(registry.epoch(), 1u);
}

TEST_F(ServeRegistryTest, SaveActiveLoadFromRoundTripsAtomically)
{
    const std::string path =
        testing::TempDir() + "hm_registry_model.bin";
    std::remove(path.c_str());

    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    Result<uint64_t> saved = registry.saveActive(path);
    ASSERT_TRUE(saved.ok()) << saved.error().toString();
    EXPECT_EQ(saved.value(), 1u);

    // A fresh registry restores the model (and its kind) from disk.
    ModelRegistry other(pair_, oracle_);
    other.publish(PredictorKind::LinearRegression,
                  makePredictor(PredictorKind::LinearRegression));
    Result<uint64_t> loaded = other.loadFrom(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(loaded.value(), 2u);
    EXPECT_EQ(other.current()->kind, PredictorKind::DecisionTree);

    // No temp-file debris survives the rename.
    std::ifstream tmp_probe(path + ".tmp");
    EXPECT_FALSE(tmp_probe.is_open());
    std::remove(path.c_str());
}

TEST_F(ServeRegistryTest, SaveActiveWithoutAModelIsRecoverable)
{
    ModelRegistry registry(pair_, oracle_);
    Result<uint64_t> saved =
        registry.saveActive(testing::TempDir() + "hm_never.bin");
    ASSERT_FALSE(saved.ok());
    EXPECT_EQ(saved.error().code, ErrorCode::Unavailable);
}

TEST_F(ServeRegistryTest, ChaosCorruptedFileLoadRollsBack)
{
    const std::string path =
        testing::TempDir() + "hm_registry_chaos.bin";
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    ASSERT_TRUE(registry.saveActive(path).ok());

    auto chaos = std::make_shared<ChaosPolicy>(11);
    ChaosSpec spec;
    spec.point = ChaosPoint::ModelLoadCorrupt;
    spec.probability = 1.0;
    spec.endVisit = 1; // corrupt exactly the first load
    chaos->arm(spec);
    registry.setChaosPolicy(chaos);

    Result<uint64_t> first = registry.loadFrom(path);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(registry.loadFailures(), 1u);
    EXPECT_EQ(registry.epoch(), 1u); // rollback kept the epoch

    // The window has passed; the same file now loads cleanly and
    // the epoch resumes its monotone climb.
    Result<uint64_t> second = registry.loadFrom(path);
    ASSERT_TRUE(second.ok()) << second.error().toString();
    EXPECT_EQ(second.value(), 2u);
    EXPECT_EQ(chaos->fires(ChaosPoint::ModelLoadCorrupt), 1u);
    std::remove(path.c_str());
}

TEST_F(ServeRegistryTest, SnapshotPinsTheModelAcrossAPublish)
{
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    auto pinned = registry.current();
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    // The reader's snapshot is untouched by the swap.
    EXPECT_EQ(pinned->epoch, 1u);
    EXPECT_NE(pinned->framework, nullptr);
    EXPECT_EQ(registry.current()->epoch, 2u);
}

TEST_F(ServeRegistryTest, ConcurrentPublishAndReadIsSafe)
{
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        uint64_t last = 0;
        while (!stop.load()) {
            auto snapshot = registry.current();
            ASSERT_NE(snapshot, nullptr);
            // Never torn: the bundle is consistent and the epoch
            // only moves forward.
            ASSERT_NE(snapshot->framework, nullptr);
            ASSERT_GE(snapshot->epoch, last);
            last = snapshot->epoch;
        }
    });
    for (int i = 0; i < 50; ++i) {
        registry.publish(PredictorKind::DecisionTree,
                         makePredictor(PredictorKind::DecisionTree));
    }
    stop.store(true);
    reader.join();
    EXPECT_EQ(registry.epoch(), 51u);
}

/* ------------------------------------------------------------------ */
/* PredictionService                                                  */
/* ------------------------------------------------------------------ */

class ServeServiceTest : public ::testing::Test
{
  protected:
    ServeServiceTest()
    {
        setLogVerbose(false);
        registry_.publish(PredictorKind::DecisionTree,
                          makePredictor(PredictorKind::DecisionTree));
    }

    Oracle oracle_;
    AcceleratorPair pair_ = pinnedPair(primaryPair());
    ModelRegistry registry_{pair_, oracle_};

    std::shared_ptr<const Workload> pagerank_ = sharedWorkload("PR");
    std::shared_ptr<const Workload> bfs_ = sharedWorkload("BFS");
    std::shared_ptr<const Graph> mesh_ =
        sharedGraph(generateMesh(256, 4, 1));
    std::shared_ptr<const Graph> star_ =
        sharedGraph(generateStar(128));
};

TEST_F(ServeServiceTest, ServesConcurrentRequestsToCompletion)
{
    ServiceOptions options;
    options.workers = 2;
    PredictionService service(registry_, options);
    EXPECT_EQ(service.workers(), 2u);

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(service.submit(makeRequest(
            pagerank_, (i % 2 == 0) ? mesh_ : star_, "mesh")));
    }
    for (auto &future : futures) {
        ServeResponse response = future.get();
        EXPECT_EQ(response.status, ServeStatus::Ok);
        EXPECT_EQ(response.modelEpoch, 1u);
        EXPECT_GE(response.batchSize, 1u);
    }
    service.close();
    EXPECT_EQ(service.submitted(), 8u);
    EXPECT_EQ(service.completed(), 8u);
    EXPECT_EQ(service.shed(), 0u);
}

TEST_F(ServeServiceTest, BatchedResponsesMatchUnbatched)
{
    // Unbatched reference: every request measured + featurized +
    // inferred on its own.
    std::vector<ServeResponse> reference;
    {
        ServiceOptions options;
        options.workers = 1;
        options.maxBatch = 1;
        PredictionService service(registry_, options);
        for (const auto &workload : {pagerank_, bfs_}) {
            for (const auto &graph : {mesh_, star_}) {
                reference.push_back(
                    service
                        .submit(makeRequest(workload, graph, "g"))
                        .get());
            }
        }
    }

    // Batched run over the same requests.
    std::vector<ServeResponse> batched;
    {
        ServiceOptions options;
        options.workers = 1;
        options.maxBatch = 8;
        options.maxBatchDelayMs = 50.0;
        PredictionService service(registry_, options);
        std::vector<std::future<ServeResponse>> futures;
        for (const auto &workload : {pagerank_, bfs_})
            for (const auto &graph : {mesh_, star_})
                futures.push_back(
                    service.submit(makeRequest(workload, graph, "g")));
        for (auto &future : futures)
            batched.push_back(future.get());
    }

    ASSERT_EQ(reference.size(), batched.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const ServeResponse &a = reference[i];
        const ServeResponse &b = batched[i];
        EXPECT_EQ(a.status, ServeStatus::Ok);
        EXPECT_EQ(b.status, ServeStatus::Ok);
        // Byte-identical prediction and modelled execution: batching
        // is an amortization, never an approximation.
        EXPECT_EQ(a.deployment.config, b.deployment.config);
        EXPECT_EQ(0, std::memcmp(a.deployment.predicted.m.data(),
                                 b.deployment.predicted.m.data(),
                                 sizeof(double) *
                                     a.deployment.predicted.m.size()));
        EXPECT_EQ(a.deployment.report.seconds,
                  b.deployment.report.seconds);
        EXPECT_EQ(a.deployment.report.joules,
                  b.deployment.report.joules);
    }
}

TEST_F(ServeServiceTest, BlockModeNeverDropsARequest)
{
    ServiceOptions options;
    options.workers = 2;
    options.queueCapacity = 2; // force backpressure
    options.admission = AdmissionPolicy::Block;
    PredictionService service(registry_, options);

    constexpr int kThreads = 3;
    constexpr int kPerThread = 6;
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                ServeResponse response =
                    service
                        .submit(makeRequest(
                            pagerank_, (t + i) % 2 ? mesh_ : star_,
                            "g"))
                        .get();
                if (response.status == ServeStatus::Ok)
                    ok.fetch_add(1);
            }
        });
    }
    for (auto &client : clients)
        client.join();
    service.close();

    EXPECT_EQ(ok.load(), kThreads * kPerThread);
    EXPECT_EQ(service.submitted(),
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(service.completed(),
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(service.shed(), 0u);
}

TEST_F(ServeServiceTest, RejectModeAccountsShedsExactly)
{
    const uint64_t counter_before = registryCounter("serve.shed");

    ServiceOptions options;
    options.workers = 1;
    options.queueCapacity = 1;
    options.maxBatch = 1;
    options.admission = AdmissionPolicy::Reject;
    PredictionService service(registry_, options);

    constexpr int kBurst = 32;
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < kBurst; ++i)
        futures.push_back(
            service.submit(makeRequest(pagerank_, mesh_, "g")));

    uint64_t ok = 0, shed = 0;
    for (auto &future : futures) {
        ServeResponse response = future.get();
        if (response.status == ServeStatus::Ok) {
            ++ok;
        } else {
            ASSERT_EQ(response.status, ServeStatus::Shed);
            EXPECT_EQ(response.shedReason, ShedReason::QueueFull);
            ++shed;
        }
    }
    service.close();

    // The burst outruns a single worker whose service time is a
    // real measurement + featurize: some requests must shed.
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(ok + shed, static_cast<uint64_t>(kBurst));
    EXPECT_EQ(service.shed(), shed);
    EXPECT_EQ(service.completed(), ok);
    EXPECT_EQ(service.submitted(), static_cast<uint64_t>(kBurst));
    // serve.shed accounts every shed request exactly (OFF builds
    // never record it; the service counters above hold in both).
    if (telemetry::enabled()) {
        EXPECT_EQ(registryCounter("serve.shed") - counter_before, shed);
    }
}

TEST_F(ServeServiceTest, ExpiredDeadlineIsShedAtDequeue)
{
    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 1;
    PredictionService service(registry_, options);

    // Four un-deadlined requests keep the single worker busy for
    // several real measurements...
    std::vector<std::future<ServeResponse>> head;
    for (int i = 0; i < 4; ++i)
        head.push_back(
            service.submit(makeRequest(pagerank_, mesh_, "g")));

    // ...so this one, parked behind them with a microscopic budget,
    // has long expired when a worker finally reaches it.
    ServeRequest hurried = makeRequest(bfs_, star_, "g");
    hurried.deadlineMs = 0.001;
    ServeResponse response = service.submit(hurried).get();
    EXPECT_EQ(response.status, ServeStatus::Shed);
    EXPECT_EQ(response.shedReason, ShedReason::DeadlineExpired);

    for (auto &future : head)
        EXPECT_EQ(future.get().status, ServeStatus::Ok);
    service.close();
    EXPECT_EQ(service.shed(), 1u);
    EXPECT_EQ(service.completed(), 4u);
    // Shed before its measurement: only the mesh ever missed.
    EXPECT_EQ(service.statsMisses(), 1u);
}

TEST_F(ServeServiceTest, HotSwapLandsMidTrafficWithoutDrops)
{
    ServiceOptions options;
    options.workers = 2;
    PredictionService service(registry_, options);

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(
            service.submit(makeRequest(pagerank_, mesh_, "g")));

    // Swap while traffic is in flight; every in-flight request is
    // answered by one epoch or the other...
    registry_.publish(PredictorKind::DecisionTree,
                      makePredictor(PredictorKind::DecisionTree));
    for (auto &future : futures) {
        ServeResponse response = future.get();
        EXPECT_EQ(response.status, ServeStatus::Ok);
        EXPECT_GE(response.modelEpoch, 1u);
        EXPECT_LE(response.modelEpoch, 2u);
    }

    // ...and later requests observe the new epoch.
    ServeResponse after =
        service.submit(makeRequest(pagerank_, star_, "g")).get();
    EXPECT_EQ(after.status, ServeStatus::Ok);
    EXPECT_EQ(after.modelEpoch, 2u);
    service.close();
    EXPECT_EQ(service.shed(), 0u);
    EXPECT_EQ(service.completed(), 7u);
}

TEST_F(ServeServiceTest, ConcurrentHotSwapIsTornFree)
{
    ServiceOptions options;
    options.workers = 2;
    PredictionService service(registry_, options);

    std::thread publisher([&] {
        for (int i = 0; i < 10; ++i) {
            registry_.publish(
                PredictorKind::DecisionTree,
                makePredictor(PredictorKind::DecisionTree));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    });

    for (int i = 0; i < 12; ++i) {
        ServeResponse response =
            service
                .submit(makeRequest(pagerank_,
                                    i % 2 ? mesh_ : star_, "g"))
                .get();
        ASSERT_EQ(response.status, ServeStatus::Ok);
        ASSERT_GE(response.modelEpoch, 1u);
        ASSERT_LE(response.modelEpoch, 11u);
    }
    publisher.join();
    service.close();
    EXPECT_EQ(registry_.epoch(), 11u);
    EXPECT_EQ(service.shed(), 0u);
}

TEST_F(ServeServiceTest, SupervisedLaneAttachesTheOutcome)
{
    PredictionService service(registry_);
    ServeRequest request = makeRequest(pagerank_, mesh_, "g");
    request.supervised = true;
    ServeResponse response = service.submit(request).get();
    EXPECT_EQ(response.status, ServeStatus::Ok);
    ASSERT_TRUE(response.outcome.has_value());
    EXPECT_TRUE(response.outcome->completed);
    // No faults injected: the initial attempt passes the check.
    EXPECT_TRUE(response.outcome->withinTolerance);
}

TEST_F(ServeServiceTest, StatsShardsAggregateIntoOneCounter)
{
    const uint64_t registry_hits_before =
        registryCounter("serve.stats_cache.hits");

    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 1; // one measurement per request
    PredictionService service(registry_, options);

    // Two distinct graphs -> two cold misses; every repeat is a hit.
    for (int i = 0; i < 6; ++i)
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    for (int i = 0; i < 2; ++i)
        service.submit(makeRequest(pagerank_, star_, "g")).get();
    service.close();

    EXPECT_EQ(service.statsMisses(), 2u);
    EXPECT_EQ(service.statsHits(), 6u);
    // The registry reports the same counters the accessors read
    // (OFF builds report nothing).
    if (telemetry::enabled()) {
        EXPECT_EQ(registryCounter("serve.stats_cache.hits") -
                      registry_hits_before,
                  service.statsHits());
    }
}

TEST_F(ServeServiceTest, StatsCacheHoldsItsWholeBound)
{
    const uint64_t evictions_before =
        registryCounter("serve.stats_cache.evictions");
    auto evictions = [&] {
        return registryCounter("serve.stats_cache.evictions") -
               evictions_before;
    };

    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 1; // one stats lookup per request
    PredictionService service(registry_, options);

    // 129 structurally distinct paths; the first 128 fill the
    // service's stats cache exactly.
    std::vector<std::shared_ptr<const Graph>> paths;
    for (VertexId n = 4; n < 4 + 129; ++n)
        paths.push_back(sharedGraph(generatePath(n)));
    auto serve = [&](std::size_t i) {
        EXPECT_EQ(service.submit(makeRequest(bfs_, paths[i], "path"))
                      .get()
                      .status,
                  ServeStatus::Ok);
    };

    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < 128; ++i)
            serve(i);
    }
    EXPECT_EQ(service.statsMisses(), 128u);
    EXPECT_EQ(service.statsHits(), 128u);
    if (telemetry::enabled()) {
        EXPECT_EQ(evictions(), 0u);
    }

    // The 129th graph evicts exactly the least recent entry: every
    // other graph still hits.
    serve(128);
    for (std::size_t i = 1; i < paths.size(); ++i)
        serve(i);
    service.close();
    EXPECT_EQ(service.statsMisses(), 129u);
    EXPECT_EQ(service.statsHits(), 256u);
    if (telemetry::enabled()) {
        EXPECT_EQ(evictions(), 1u);
    }
}

TEST_F(ServeServiceTest, CoResidentServicesCountOnlyTheirOwnWork)
{
    const uint64_t registry_misses_before =
        registryCounter("serve.stats_cache.misses");
    {
        // Default options: both services report to the same registry
        // names, yet each one's accessors and statusz count only the
        // work it served.
        PredictionService a(registry_);
        PredictionService b(registry_);
        ASSERT_EQ(a.submit(makeRequest(pagerank_, mesh_, "g")).get().status,
                  ServeStatus::Ok);
        ASSERT_EQ(b.submit(makeRequest(pagerank_, star_, "g")).get().status,
                  ServeStatus::Ok);
        a.close();
        b.close();

        for (const PredictionService *service : {&a, &b}) {
            EXPECT_EQ(service->statsMisses(), 1u);
            EXPECT_EQ(service->profileMisses(), 1u);
            EXPECT_EQ(service->completed(), 1u);
            EXPECT_EQ(service->statusz().statsMisses, 1u);
        }
        const ServiceStatus fleet =
            aggregateStatusz({a.statusz(), b.statusz()});
        EXPECT_EQ(fleet.statsMisses, 2u);
        EXPECT_EQ(fleet.completed, 2u);
        if (telemetry::enabled()) {
            EXPECT_EQ(registryCounter("serve.stats_cache.misses") -
                          registry_misses_before,
                      2u);
        }
    }
    // Destroyed services fold their final counts into the registry.
    if (telemetry::enabled()) {
        EXPECT_EQ(registryCounter("serve.stats_cache.misses") -
                      registry_misses_before,
                  2u);
    }
}

TEST_F(ServeServiceTest, CloseIsIdempotentAndRefusesLateWork)
{
    PredictionService service(registry_);
    ServeResponse warm =
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    EXPECT_EQ(warm.status, ServeStatus::Ok);

    service.close();
    service.close(); // idempotent

    ServeResponse late =
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    EXPECT_EQ(late.status, ServeStatus::Closed);
    EXPECT_EQ(service.completed(), 1u);
    EXPECT_EQ(service.shed(), 0u);
}

TEST_F(ServeServiceTest, WorkerExceptionFailsOnlyItsBatch)
{
    // Regression: an exception during measure/featurize/infer used
    // to escape the worker loop, killing the worker silently and
    // leaving its batch's futures broken. It must fail exactly that
    // batch — structured error, worker alive, gauge intact.
    auto chaos = std::make_shared<ChaosPolicy>(3);
    ChaosSpec spec;
    spec.point = ChaosPoint::WorkerStall;
    spec.probability = 1.0;
    spec.endVisit = 1; // the first batch only
    chaos->arm(spec);
    chaos->setHook(ChaosPoint::WorkerStall, [](const ChaosAction &) {
        throw std::runtime_error("featurize blew up");
    });

    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 1;
    options.chaos = chaos;
    options.watchdog.enabled = false; // isolate the exception path
    PredictionService service(registry_, options);

    ServeResponse failed =
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    EXPECT_EQ(failed.status, ServeStatus::Error);
    ASSERT_TRUE(failed.error.has_value());
    EXPECT_NE(failed.error->message.find("featurize blew up"),
              std::string::npos);
    EXPECT_NE(failed.error->toString().find("unavailable"),
              std::string::npos);

    // The worker survived and serves the next request normally.
    ServeResponse ok =
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    EXPECT_EQ(ok.status, ServeStatus::Ok);
    service.close();

    EXPECT_EQ(service.errorResponses(), 1u);
    EXPECT_EQ(service.batchFailures(), 1u);
    EXPECT_EQ(service.completed(), 1u);
    // The failed batch was popped like any other: the depth gauge
    // drains back to zero instead of leaking the crashed request.
    EXPECT_EQ(
        telemetry::registry().gauge("serve.queue_depth").value(),
        0.0);
}

TEST_F(ServeServiceTest, WorkerExceptionFailsWholeBatchPromises)
{
    // A batch of several coalesced requests crashes mid-serve: every
    // member gets a ready Error future — no promise is broken and
    // none is consumed twice.
    auto chaos = std::make_shared<ChaosPolicy>(5);
    ChaosSpec spec;
    spec.point = ChaosPoint::WorkerCrashBatch;
    spec.probability = 1.0;
    spec.endVisit = 1;
    chaos->arm(spec);

    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 8;
    options.maxBatchDelayMs = 50.0;
    options.chaos = chaos;
    options.watchdog.enabled = false;
    PredictionService service(registry_, options);

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(
            service.submit(makeRequest(pagerank_, mesh_, "g")));

    std::size_t errors = 0, oks = 0;
    for (auto &future : futures) {
        ServeResponse response = future.get();
        if (response.status == ServeStatus::Error) {
            ASSERT_TRUE(response.error.has_value());
            ++errors;
        } else {
            EXPECT_EQ(response.status, ServeStatus::Ok);
            ++oks;
        }
    }
    service.close();
    // At least the first-popped batch crashed; everything submitted
    // got a terminal answer.
    EXPECT_GE(errors, 1u);
    EXPECT_EQ(errors + oks, 4u);
    EXPECT_EQ(service.errorResponses(), errors);
}

TEST_F(ServeServiceTest, QueueWaitIsRecordedOncePerServedRequest)
{
    if (!telemetry::enabled())
        GTEST_SKIP() << "telemetry compiled out";
    const telemetry::Histogram &queue_wait =
        telemetry::registry().histogram("serve.queue_wait_ms");
    const uint64_t before = queue_wait.count();

    ServiceOptions options;
    options.workers = 2;
    PredictionService service(registry_, options);
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 12; ++i) {
        futures.push_back(service.submit(makeRequest(
            (i % 3 == 0) ? bfs_ : pagerank_,
            (i % 2 == 0) ? mesh_ : star_, "g")));
    }
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, ServeStatus::Ok);
    service.close();

    EXPECT_EQ(service.completed(), 12u);
    EXPECT_EQ(queue_wait.count() - before, service.completed());
}

/* ------------------------------------------------------------------ */
/* Workload-profile cache and per-graph fingerprints                  */
/* ------------------------------------------------------------------ */

/** Bitwise equality of two doubles (distinguishes -0.0, NaN bits). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameDoubles(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

bool
sameProfile(const WorkloadProfile &a, const WorkloadProfile &b)
{
    if (a.phases.size() != b.phases.size() || a.barriers != b.barriers ||
        a.iterations != b.iterations) {
        return false;
    }
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        const PhaseProfile &x = a.phases[i];
        const PhaseProfile &y = b.phases[i];
        if (x.name != y.name || x.kind != y.kind ||
            x.invocations != y.invocations ||
            x.workItems != y.workItems ||
            !sameBits(x.intOps, y.intOps) ||
            !sameBits(x.fpOps, y.fpOps) ||
            !sameBits(x.directAccesses, y.directAccesses) ||
            !sameBits(x.indirectAccesses, y.indirectAccesses) ||
            !sameBits(x.sharedReadBytes, y.sharedReadBytes) ||
            !sameBits(x.sharedWriteBytes, y.sharedWriteBytes) ||
            !sameBits(x.localBytes, y.localBytes) ||
            !sameBits(x.atomics, y.atomics) ||
            !sameBits(x.maxItemCost, y.maxItemCost) ||
            !sameDoubles(x.bucketCost, y.bucketCost)) {
            return false;
        }
    }
    return true;
}

bool
sameStats(const GraphStats &a, const GraphStats &b)
{
    return a.numVertices == b.numVertices && a.numEdges == b.numEdges &&
           a.maxDegree == b.maxDegree &&
           sameBits(a.avgDegree, b.avgDegree) &&
           a.diameter == b.diameter &&
           sameBits(a.degreeStddev, b.degreeStddev) &&
           a.footprintBytes == b.footprintBytes;
}

/** Every served field except the measured wall-clock overhead. */
bool
sameDeployment(const Deployment &a, const Deployment &b)
{
    return a.config == b.config &&
           std::memcmp(a.predicted.m.data(), b.predicted.m.data(),
                       sizeof(double) * a.predicted.m.size()) == 0 &&
           sameBits(a.report.seconds, b.report.seconds) &&
           sameBits(a.report.joules, b.report.joules) &&
           sameBits(a.report.watts, b.report.watts) &&
           sameBits(a.report.utilization, b.report.utilization) &&
           a.report.memoryChunks == b.report.memoryChunks &&
           sameBits(a.report.regionSeconds, b.report.regionSeconds) &&
           sameBits(a.report.barrierSeconds, b.report.barrierSeconds) &&
           a.report.toString() == b.report.toString();
}

TEST_F(ServeServiceTest, CachedCasesAndServedDeploymentsMatchUncached)
{
    ServiceOptions options;
    options.workers = 2;
    PredictionService service(registry_, options);
    ProfileCache cache(64);
    const HeteroMap &framework = *registry_.current()->framework;

    std::size_t checked = 0;
    for (auto &owned : allWorkloads()) {
        const std::shared_ptr<const Workload> workload(std::move(owned));
        for (const auto &graph : {mesh_, star_}) {
            const GraphStats stats = measureGraph(*graph);
            const BenchmarkCase uncached =
                makeCase(*workload, *graph, "g", stats);
            const Deployment expected = framework.deploy(uncached);

            // Twice: the first call misses and executes, the second
            // hits — both must give the uncached bytes.
            for (int pass = 0; pass < 2; ++pass) {
                const BenchmarkCase cached = assembleCase(
                    *workload, "g", *cache.profile(workload, *graph),
                    stats, stats);
                EXPECT_EQ(cached.workloadName, uncached.workloadName);
                EXPECT_EQ(cached.inputName, uncached.inputName);
                EXPECT_EQ(cached.features, uncached.features);
                EXPECT_TRUE(sameProfile(cached.profile, uncached.profile))
                    << workload->name();
                EXPECT_TRUE(sameStats(cached.shapeStats, uncached.shapeStats));
                EXPECT_TRUE(sameStats(cached.scaleStats, uncached.scaleStats));

                const ServeResponse served =
                    service.submit(makeRequest(workload, graph, "g")).get();
                ASSERT_EQ(served.status, ServeStatus::Ok);
                EXPECT_TRUE(sameDeployment(served.deployment, expected))
                    << workload->name() << " pass " << pass;
                EXPECT_TRUE(sameDeployment(
                    framework.predict(workload, *graph, "g"), expected))
                    << workload->name() << " predict pass " << pass;
                ++checked;
            }
        }
    }
    service.close();
    EXPECT_EQ(checked, 2 * 2 * allWorkloads().size());
    // The service executed each (workload, graph) once and then hit.
    EXPECT_EQ(service.profileMisses(), checked / 2);
    EXPECT_EQ(service.profileHits(), checked / 2);
}

TEST_F(ServeServiceTest, CollidingWorkloadNamesNeverShareAProfile)
{
    // SyntheticWorkload::name() keeps only the low 16 seed bits, so
    // these two differ in behaviour but not in name.
    BVariables b;
    b.b1 = 1.0; // all vertex division
    b.b6 = 0.5; // seeded coin flips: FP vs integer work,
    b.b8 = 0.5; // indirect vs direct access,
    b.b12 = 0.5; // and atomic updates
    b.b9 = b.b10 = b.b11 = 0.3;
    const std::shared_ptr<const Workload> low =
        std::make_shared<SyntheticWorkload>(b, 0x1);
    const std::shared_ptr<const Workload> high =
        std::make_shared<SyntheticWorkload>(b, 0x10001);
    ASSERT_EQ(low->name(), high->name());
    const WorkloadProfile low_profile = low->runProfiled(*mesh_).second;
    const WorkloadProfile high_profile = high->runProfiled(*mesh_).second;
    ASSERT_FALSE(sameProfile(low_profile, high_profile))
        << "seeds chosen to execute differently";

    ProfileCache cache(8);
    EXPECT_TRUE(sameProfile(*cache.profile(low, *mesh_), low_profile));
    EXPECT_TRUE(sameProfile(*cache.profile(high, *mesh_), high_profile));
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);

    // Served in one batch, each still gets its own deployment.
    const HeteroMap &framework = *registry_.current()->framework;
    const GraphStats stats = measureGraph(*mesh_);
    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 8;
    options.maxBatchDelayMs = 50.0;
    PredictionService service(registry_, options);
    // Warm the stats key first: only a head whose lookup hits lingers
    // for a mate, and a cold head measures mesh_ in microseconds.
    ASSERT_EQ(service.submit(makeRequest(low, mesh_, "g")).get().status,
              ServeStatus::Ok);
    auto low_future = service.submit(makeRequest(low, mesh_, "g"));
    auto high_future = service.submit(makeRequest(high, mesh_, "g"));
    const ServeResponse low_served = low_future.get();
    const ServeResponse high_served = high_future.get();
    service.close();
    EXPECT_EQ(high_served.batchSize, 2u) << "expected one shared batch";
    EXPECT_TRUE(sameDeployment(
        low_served.deployment,
        framework.deploy(makeCase(*low, *mesh_, "g", stats))));
    EXPECT_TRUE(sameDeployment(
        high_served.deployment,
        framework.deploy(makeCase(*high, *mesh_, "g", stats))));
    EXPECT_EQ(service.profileMisses(), 2u);
}

TEST_F(ServeServiceTest, WeightTwinsNeverShareAProfile)
{
    // Same CSR arrays, different weights: one fingerprint (one shard,
    // one stats entry), but SSSP-Delta picks its bucket width from
    // the weights, so the two graphs execute differently.
    const auto road = sharedGraph(generateRoadGrid(24, 24, 5));
    ASSERT_TRUE(road->hasWeights());
    const auto twin = sharedGraph(
        Graph(road->offsets(), road->rawNeighbors(),
              std::vector<float>(road->numEdges(), 1.0f)));
    ASSERT_EQ(twin->fingerprint(), road->fingerprint());
    EXPECT_NE(twin->weightsHash(), road->weightsHash());

    const auto delta = sharedWorkload("SSSP-Delta");
    const HeteroMap &framework = *registry_.current()->framework;
    const GraphStats stats = measureGraph(*road);
    const Deployment road_expected =
        framework.deploy(makeCase(*delta, *road, "g", stats));
    const Deployment twin_expected =
        framework.deploy(makeCase(*delta, *twin, "g", stats));
    ASSERT_FALSE(sameDeployment(road_expected, twin_expected))
        << "weights chosen to deploy differently";

    ProfileCache cache(8);
    cache.profile(delta, *road);
    cache.profile(delta, *twin);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);

    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 8;
    options.maxBatchDelayMs = 50.0;
    PredictionService service(registry_, options);
    // One at a time: the second lookup must not hit the first's entry.
    EXPECT_TRUE(sameDeployment(
        service.submit(makeRequest(delta, road, "g")).get().deployment,
        road_expected));
    EXPECT_TRUE(sameDeployment(
        service.submit(makeRequest(delta, twin, "g")).get().deployment,
        twin_expected));
    // Together: one batch (same fingerprint), two featurize groups.
    auto road_future = service.submit(makeRequest(delta, road, "g"));
    auto twin_future = service.submit(makeRequest(delta, twin, "g"));
    const ServeResponse road_served = road_future.get();
    const ServeResponse twin_served = twin_future.get();
    service.close();
    EXPECT_EQ(twin_served.batchSize, 2u) << "expected one shared batch";
    EXPECT_TRUE(sameDeployment(road_served.deployment, road_expected));
    EXPECT_TRUE(sameDeployment(twin_served.deployment, twin_expected));
    EXPECT_EQ(service.profileMisses(), 2u);
    EXPECT_EQ(service.profileHits(), 2u);
}

/**
 * Slowest of three uncached measurements of @p graph, in
 * milliseconds: a generous bound on what one cold stats lookup costs
 * a worker on this host.
 */
double
coldMeasureMs(const Graph &graph, const MeasureOptions &options)
{
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i) {
        const auto begin = std::chrono::steady_clock::now();
        measureGraph(graph, options);
        runs.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - begin)
                           .count());
    }
    return *std::max_element(runs.begin(), runs.end());
}

TEST_F(ServeServiceTest, ColdHeadMeasuresInsideTheLingerWindow)
{
    // A graph whose cold measurement takes tens of milliseconds,
    // measured serially so the shared pool's load cannot skew it.
    const auto big = sharedGraph(generateMesh(1u << 18, 4, 1));
    ServeRequest request = makeRequest(bfs_, big, "g");
    request.measure.threads = 1;
    const double cold = coldMeasureMs(*big, request.measure);

    ServiceOptions options;
    options.workers = 1;
    options.maxBatchDelayMs = cold / 2.0; // the measurement outlasts it
    PredictionService service(registry_, options);

    // Warm the workload profile under another stats key (no diameter
    // sweeps, so another batch key), leaving the timed request with
    // only its cold stats lookup to pay.
    ServeRequest warmup = request;
    warmup.measure.sweeps = 0;
    ASSERT_EQ(service.submit(warmup).get().status, ServeStatus::Ok);

    const ServeResponse served = service.submit(request).get();
    service.close();
    ASSERT_EQ(served.status, ServeStatus::Ok);
    EXPECT_EQ(served.batchSize, 1u);
    // No second linger after the measurement: waiting first and
    // measuring after costs at least cold + linger.
    EXPECT_LT(served.queueMs + served.serviceMs,
              cold + 0.75 * options.maxBatchDelayMs)
        << "cold " << cold << " ms";
    // The measurement is service time, not queueing: the head never
    // lingered, because its lookup filled the window.
    EXPECT_GE(served.serviceMs, 0.5 * cold) << "cold " << cold << " ms";
    EXPECT_LT(served.queueMs, 0.5 * options.maxBatchDelayMs)
        << "cold " << cold << " ms";
}

TEST_F(ServeServiceTest, ArrivalDuringTheHeadMeasurementJoinsItsBatch)
{
    const auto big = sharedGraph(generateMesh(1u << 18, 4, 1));
    ServeRequest request = makeRequest(bfs_, big, "g");
    request.measure.threads = 1;
    const double cold = coldMeasureMs(*big, request.measure);
    const HeteroMap &framework = *registry_.current()->framework;
    const Deployment expected = framework.deploy(
        makeCase(*bfs_, *big, "g", measureGraph(*big, request.measure)));

    ServiceOptions options;
    options.workers = 1;
    options.maxBatchDelayMs = cold / 2.0;
    PredictionService service(registry_, options);

    // The idle worker pops the head at once and starts measuring; a
    // quarter of the way in, a same-key request arrives. The gather
    // after the measurement must still collect it.
    auto head = service.submit(request);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(cold / 4.0));
    auto joiner = service.submit(request);
    const ServeResponse head_served = head.get();
    const ServeResponse joiner_served = joiner.get();
    service.close();

    ASSERT_EQ(head_served.status, ServeStatus::Ok);
    ASSERT_EQ(joiner_served.status, ServeStatus::Ok);
    EXPECT_EQ(head_served.batchSize, 2u) << "expected one shared batch";
    EXPECT_EQ(joiner_served.batchSize, 2u) << "expected one shared batch";
    EXPECT_TRUE(sameDeployment(head_served.deployment, expected));
    EXPECT_TRUE(sameDeployment(joiner_served.deployment, expected));
    EXPECT_EQ(service.statsMisses() + service.statsHits(), 1u);
}

TEST_F(ServeServiceTest, ColdHeadDoesNotLinger)
{
    // A stats miss gives no sign of a coming batch mate, so the worker
    // serves the lone cold head at once instead of waiting out the
    // window.
    ServiceOptions options;
    options.workers = 1;
    options.maxBatchDelayMs = 50.0;
    PredictionService service(registry_, options);
    const ServeResponse served =
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    service.close();
    ASSERT_EQ(served.status, ServeStatus::Ok);
    EXPECT_EQ(served.batchSize, 1u);
    EXPECT_EQ(service.statsMisses(), 1u);
    EXPECT_LT(served.queueMs + served.serviceMs, 25.0)
        << "queue " << served.queueMs << " ms, service "
        << served.serviceMs << " ms";
}

TEST_F(ServeServiceTest, WarmHeadStillLingersForAMate)
{
    const HeteroMap &framework = *registry_.current()->framework;
    const Deployment expected = framework.deploy(
        makeCase(*pagerank_, *mesh_, "g", measureGraph(*mesh_)));

    ServiceOptions options;
    options.workers = 1;
    options.maxBatchDelayMs = 50.0;
    PredictionService service(registry_, options);
    ASSERT_EQ(
        service.submit(makeRequest(pagerank_, mesh_, "g")).get().status,
        ServeStatus::Ok);

    // The head's lookup hits, so its worker holds the window open; a
    // same-key request 12 ms later joins the head's batch.
    auto head = service.submit(makeRequest(pagerank_, mesh_, "g"));
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
    auto mate = service.submit(makeRequest(pagerank_, mesh_, "g"));
    const ServeResponse head_served = head.get();
    const ServeResponse mate_served = mate.get();
    service.close();

    ASSERT_EQ(head_served.status, ServeStatus::Ok);
    ASSERT_EQ(mate_served.status, ServeStatus::Ok);
    EXPECT_EQ(head_served.batchSize, 2u) << "expected one shared batch";
    EXPECT_EQ(mate_served.batchSize, 2u) << "expected one shared batch";
    EXPECT_TRUE(sameDeployment(head_served.deployment, expected));
    EXPECT_TRUE(sameDeployment(mate_served.deployment, expected));
    EXPECT_EQ(service.statsMisses(), 1u);
    EXPECT_EQ(service.statsHits(), 1u);
}

TEST(ServeProfileCache, BoundsEntriesAndEvictsLeastRecent)
{
    const auto pagerank = sharedWorkload("PR");
    const auto bfs = sharedWorkload("BFS");
    const Graph mesh = generateMesh(128, 4, 1);
    const Graph star = generateStar(64);

    ProfileCache cache(2);
    EXPECT_EQ(cache.capacity(), 2u);
    const auto first = cache.profile(pagerank, mesh); // miss
    EXPECT_EQ(cache.profile(pagerank, mesh), first);  // hit, same entry
    cache.profile(bfs, mesh);                         // miss
    cache.profile(pagerank, star);                    // miss, evicts
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.evictions(), 1u);

    // (PR, mesh) was least recent, so it went; (BFS, mesh) stayed.
    cache.profile(bfs, mesh);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_NE(cache.profile(pagerank, mesh), first);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.evictions(), 2u);

    // Content-keyed on the graph: a rebuilt copy of the mesh hits.
    std::vector<float> weights;
    for (EdgeId e = 0; mesh.hasWeights() && e < mesh.numEdges(); ++e)
        weights.push_back(mesh.edgeWeight(e));
    const Graph rebuilt(mesh.offsets(), mesh.rawNeighbors(), weights);
    cache.profile(pagerank, rebuilt);
    EXPECT_EQ(cache.hits(), 3u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 3u); // counters survive clear()
}

TEST(ServeProfileCache, EntriesPinTheirWorkload)
{
    ProfileCache cache(4);
    const Graph mesh = generateMesh(128, 4, 1);
    std::weak_ptr<const Workload> watch;
    {
        const auto workload = sharedWorkload("PR");
        watch = workload;
        cache.profile(workload, mesh);
    }
    // The entry still holds the workload, so its address cannot be
    // reused by another workload while the entry lives.
    EXPECT_FALSE(watch.expired());
    cache.clear();
    EXPECT_TRUE(watch.expired());
}

TEST(ServeProfileCache, RacingMissesConverge)
{
    const auto workload = sharedWorkload("SSSP-BF");
    const Graph graph = generateRoadGrid(24, 24, 5);
    const WorkloadProfile expected = workload->runProfiled(graph).second;

    ProfileCache cache(4);
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<const WorkloadProfile>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            got[t] = cache.profile(workload, graph);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (const auto &profile : got)
        EXPECT_TRUE(sameProfile(*profile, expected));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits() + cache.misses(), uint64_t{kThreads});
    EXPECT_GE(cache.misses(), 1u);
    // Every later lookup returns the one entry that won the insert.
    const auto winner = cache.profile(workload, graph);
    for (int t = 0; t < kThreads; ++t) {
        if (got[t] != winner) {
            EXPECT_TRUE(sameProfile(*got[t], *winner));
        }
    }
}

TEST(ServeGraphFingerprint, PinnedToThePreviousScheme)
{
    // Values produced by the free-function fingerprint this member
    // replaced. Shard routing and audit records hash these, so any
    // change here silently re-routes graphs. That scheme sampled
    // arrays of 8,192 elements or more with a stride; they are now
    // hashed in full, so rmat and road carry their full-hash values.
    struct Pin {
        const char *name;
        Graph graph;
        GraphFingerprint fingerprint;
        uint64_t mixed;
    };
    const Pin pins[] = {
        {"empty", Graph(),
         {0ull, 0ull, 0ull, 0xa07992a21150f55bull, 0x4a4bc951b434a173ull},
         0x9087d805a720a551ull},
        {"mesh", generateMesh(256, 4, 1),
         {256ull, 1008ull, 10120ull, 0x133dfcac3fae3c44ull,
          0x7740af4026b3b071ull},
         0x82c4feb73888e170ull},
        {"star", generateStar(128),
         {128ull, 254ull, 3064ull, 0x006d53d8c1c1c44full,
          0x95fd9fc6feed15b9ull},
         0x02e1091d0373164aull},
        // Large: both CSR arrays exceed 8,192 elements.
        {"rmat", generateRmat(14, 8.0, 7),
         {16384ull, 228382ull, 1958136ull, 0xb3826039cc84d1c3ull,
          0x8e7a7009c37a922full},
         0xdaa53f75c2de17c7ull},
        // Weighted: the weights count through the footprint.
        {"road", generateRoadGrid(96, 96, 3),
         {9216ull, 36846ull, 368504ull, 0xf0caa2f135afa7a2ull,
          0x8f441691e3646a57ull},
         0x7aa8c4f536cbf179ull},
    };
    for (const Pin &pin : pins) {
        EXPECT_TRUE(pin.graph.fingerprint() == pin.fingerprint)
            << pin.name;
        EXPECT_EQ(mixFingerprint(pin.graph.fingerprint()), pin.mixed)
            << pin.name;
        // The batch key and the stats-cache key read the same value.
        ServeRequest request;
        request.graph = std::make_shared<const Graph>(pin.graph);
        EXPECT_TRUE(makeBatchKey(request).fingerprint == pin.fingerprint)
            << pin.name;
    }
}

} // namespace
} // namespace serve
} // namespace heteromap
