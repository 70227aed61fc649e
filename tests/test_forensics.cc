/**
 * @file
 * Tests for the forensics layer: the deterministic QuantileSketch
 * and FeatureBaseline, the v3 model envelope that carries the
 * baseline, the lock-free flight recorder's exact drop accounting
 * under concurrency, the DriftMonitor's window/alert behavior, the
 * SloTracker's window and error-budget math, and the statusz
 * renderers. Every suite name starts with "Forensics" so
 * `tools/check_tsan.sh` (-R ...Forensics) runs exactly this file
 * under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/presets.hh"
#include "core/experiment.hh"
#include "graph/generators.hh"
#include "model/feature_baseline.hh"
#include "serve/drift_monitor.hh"
#include "serve/model_registry.hh"
#include "serve/prediction_service.hh"
#include "serve/slo_tracker.hh"
#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/sketch.hh"
#include "util/telemetry.hh"
#include "util/trace.hh"
#include "workloads/registry.hh"

namespace heteromap {
namespace {

using telemetry::QuantileSketch;

FeatureVector
featureAt(double i4, double i1 = 0.0)
{
    FeatureVector features;
    features.i.i1 = i1;
    features.i.i4 = i4;
    return features;
}

/* ------------------------- sketches -------------------------- */

TEST(ForensicsSketchTest, DeterministicAcrossInsertionOrders)
{
    std::vector<double> values;
    for (int i = 0; i < 200; ++i)
        values.push_back((i % 11) / 10.0);

    QuantileSketch forward;
    for (double v : values)
        forward.insert(v);

    std::mt19937 rng(42);
    std::shuffle(values.begin(), values.end(), rng);
    QuantileSketch shuffled;
    for (double v : values)
        shuffled.insert(v);

    EXPECT_EQ(forward, shuffled);
    EXPECT_EQ(forward.toString(), shuffled.toString());
}

TEST(ForensicsSketchTest, SplitAndMergeMatchesSequential)
{
    QuantileSketch sequential;
    std::vector<QuantileSketch> shards(4);
    for (int i = 0; i < 400; ++i) {
        const double v = (i % 17) / 16.0;
        sequential.insert(v);
        shards[i % shards.size()].insert(v);
    }
    QuantileSketch merged;
    for (const QuantileSketch &shard : shards)
        merged.merge(shard);
    EXPECT_EQ(sequential, merged);
    EXPECT_EQ(sequential.toString(), merged.toString());
}

TEST(ForensicsSketchTest, SaveLoadRoundTripsByteIdentically)
{
    QuantileSketch sketch;
    for (int i = 0; i < 100; ++i)
        sketch.insert((i % 7) / 6.0);

    std::stringstream stream;
    sketch.save(stream);
    QuantileSketch restored;
    ASSERT_TRUE(QuantileSketch::load(stream, &restored));
    EXPECT_EQ(sketch, restored);
    EXPECT_EQ(sketch.toString(), restored.toString());
}

TEST(ForensicsSketchTest, LoadRejectsGarbage)
{
    std::stringstream stream("not a sketch at all\n");
    QuantileSketch out;
    EXPECT_FALSE(QuantileSketch::load(stream, &out));
}

TEST(ForensicsSketchTest, InsertClampsIntoRangeAndTracksExtrema)
{
    // Out-of-range values clamp to the sketch bounds before both
    // binning and extrema tracking, so the extrema stay inside
    // [lo, hi] and serialization stays canonical.
    QuantileSketch sketch;
    sketch.insert(-3.0);
    sketch.insert(0.5);
    sketch.insert(7.0);
    EXPECT_EQ(sketch.count(), 3u);
    EXPECT_DOUBLE_EQ(sketch.observedMin(), 0.0);
    EXPECT_DOUBLE_EQ(sketch.observedMax(), 1.0);
}

TEST(ForensicsSketchTest, PsiSeparatesMatchedFromDisjointMass)
{
    QuantileSketch baseline, matched, disjoint;
    for (int i = 0; i < 64; ++i) {
        baseline.insert(0.1);
        baseline.insert(0.9);
        matched.insert(0.1);
        matched.insert(0.9);
        disjoint.insert(0.5);
    }
    EXPECT_LT(matched.psiAgainst(baseline), 0.05);
    EXPECT_GT(disjoint.psiAgainst(baseline), 0.25);
    EXPECT_GE(disjoint.ksAgainst(baseline), 0.4);
    EXPECT_LE(disjoint.ksAgainst(baseline), 1.0);
    EXPECT_LT(matched.ksAgainst(baseline), 0.05);
}

/* --------------------- feature baselines --------------------- */

TEST(ForensicsBaselineTest, SaveLoadRoundTrips)
{
    FeatureBaseline baseline;
    for (int r = 0; r < 10; ++r) {
        baseline.add(featureAt(0.0));
        baseline.add(featureAt(0.3, 0.1));
    }

    std::stringstream stream;
    baseline.save(stream);
    FeatureBaseline restored;
    ASSERT_TRUE(FeatureBaseline::load(stream, &restored));
    for (std::size_t d = 0; d < FeatureBaseline::kDims; ++d)
        EXPECT_EQ(baseline.dims[d], restored.dims[d]) << "dim " << d;
}

TEST(ForensicsBaselineTest, EnvelopeV3CarriesTheBaseline)
{
    auto predictor = makePredictor(PredictorKind::DecisionTree);
    FeatureBaseline baseline;
    for (int r = 0; r < 12; ++r)
        baseline.add(featureAt(0.2));

    std::stringstream stream;
    savePredictor(*predictor, PredictorKind::DecisionTree, stream,
                  &baseline);
    EXPECT_EQ(stream.str().rfind("heteromap-model v3", 0), 0u);

    auto loaded = loadAnyPredictor(stream);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().kind, PredictorKind::DecisionTree);
    ASSERT_NE(loaded.value().baseline, nullptr);
    for (std::size_t d = 0; d < FeatureBaseline::kDims; ++d)
        EXPECT_EQ(loaded.value().baseline->dims[d], baseline.dims[d]);

    const FeatureVector probe = featureAt(0.2);
    EXPECT_EQ(loaded.value().predictor->predict(probe).m,
              predictor->predict(probe).m);
}

TEST(ForensicsBaselineTest, NullBaselineEmitsByteIdenticalV2)
{
    auto predictor = makePredictor(PredictorKind::DecisionTree);
    std::stringstream v2, v3_null;
    savePredictor(*predictor, PredictorKind::DecisionTree, v2);
    savePredictor(*predictor, PredictorKind::DecisionTree, v3_null,
                  nullptr);
    EXPECT_EQ(v2.str(), v3_null.str());
    EXPECT_EQ(v2.str().rfind("heteromap-model v2", 0), 0u);

    auto loaded = loadAnyPredictor(v2);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().baseline, nullptr);
}

TEST(ForensicsBaselineTest, CorruptedBaselineTrailerIsRecoverable)
{
    auto predictor = makePredictor(PredictorKind::DecisionTree);
    FeatureBaseline baseline;
    baseline.add(featureAt(0.4));

    std::stringstream stream;
    savePredictor(*predictor, PredictorKind::DecisionTree, stream,
                  &baseline);
    std::string bytes = stream.str();
    // Flip a byte near the end: that's inside the baseline body,
    // whose independent checksum must catch it.
    bytes[bytes.size() - 3] ^= 0x20;
    std::stringstream corrupted(bytes);
    auto loaded = loadAnyPredictor(corrupted);
    EXPECT_FALSE(loaded.ok());
}

/* --------------------- histogram percentiles ------------------ */

TEST(ForensicsPercentileTest, SingleValueDistributionIsExact)
{
    telemetry::Histogram histogram;
    for (int i = 0; i < 100; ++i)
        histogram.record(5.0);
    const telemetry::HistogramSnapshot snapshot = histogram.snapshot();
    EXPECT_DOUBLE_EQ(snapshot.percentile(0.50), 5.0);
    EXPECT_DOUBLE_EQ(snapshot.percentile(0.99), 5.0);
}

TEST(ForensicsPercentileTest, BimodalSplitInterpolates)
{
    telemetry::Histogram histogram;
    for (int i = 0; i < 50; ++i) {
        histogram.record(1.0);
        histogram.record(100.0);
    }
    const telemetry::HistogramSnapshot snapshot = histogram.snapshot();
    EXPECT_LE(snapshot.percentile(0.25), 2.0);
    EXPECT_GE(snapshot.percentile(0.95), 50.0);
    EXPECT_LE(snapshot.percentile(0.50), snapshot.percentile(0.95));
    EXPECT_NEAR(snapshot.fractionBelow(10.0), 0.5, 0.01);
}

TEST(ForensicsPercentileTest, EmptySnapshotIsVacuouslyCompliant)
{
    const telemetry::HistogramSnapshot snapshot =
        telemetry::Histogram().snapshot();
    EXPECT_DOUBLE_EQ(snapshot.percentile(0.99), 0.0);
    EXPECT_DOUBLE_EQ(snapshot.fractionBelow(1.0), 1.0);
}

/* ------------------------ drift monitor ----------------------- */

TEST(ForensicsDriftTest, InertWithoutBaseline)
{
    serve::DriftMonitor monitor;
    for (int i = 0; i < 600; ++i)
        monitor.observe(featureAt(0.5));
    const serve::DriftScores scores = monitor.scores();
    EXPECT_FALSE(scores.hasBaseline);
    EXPECT_EQ(scores.windows, 0u);
}

TEST(ForensicsDriftTest, MatchingTrafficStaysQuiet)
{
    auto baseline = std::make_shared<FeatureBaseline>();
    for (int r = 0; r < 10; ++r) {
        baseline->add(featureAt(0.0));
        baseline->add(featureAt(0.3));
    }

    serve::DriftOptions options;
    options.windowSize = 16;
    serve::DriftMonitor monitor(options);
    monitor.setBaseline(baseline);
    for (int i = 0; i < 16; ++i)
        monitor.observe(featureAt(i % 2 == 0 ? 0.0 : 0.3));

    const serve::DriftScores scores = monitor.scores();
    EXPECT_TRUE(scores.hasBaseline);
    EXPECT_EQ(scores.windows, 1u);
    EXPECT_EQ(scores.alerts, 0u);
    EXPECT_LT(scores.psi, options.psiAlert);
}

TEST(ForensicsDriftTest, ShiftedTrafficAlertsAndReportsWorstDim)
{
    auto baseline = std::make_shared<FeatureBaseline>();
    for (int r = 0; r < 20; ++r)
        baseline->add(featureAt(0.0));

    serve::DriftOptions options;
    options.windowSize = 16;
    uint64_t callbacks = 0;
    serve::DriftScores seen;
    options.onAlert = [&](const serve::DriftScores &scores) {
        ++callbacks;
        seen = scores;
    };
    serve::DriftMonitor monitor(options);
    monitor.setBaseline(baseline);
    for (int i = 0; i < 16; ++i)
        monitor.observe(featureAt(0.8)); // i4 moved 0.0 -> 0.8

    const serve::DriftScores scores = monitor.scores();
    EXPECT_EQ(scores.windows, 1u);
    EXPECT_EQ(scores.alerts, 1u);
    EXPECT_GE(scores.psi, options.psiAlert);
    EXPECT_EQ(scores.worstDim, kNumFeatures - 1); // i4 is the last dim
    EXPECT_EQ(callbacks, 1u);
    EXPECT_GE(seen.psi, options.psiAlert);
}

TEST(ForensicsDriftTest, BaselineSwapResetsThePartialWindow)
{
    auto first = std::make_shared<FeatureBaseline>();
    auto second = std::make_shared<FeatureBaseline>();
    for (int r = 0; r < 10; ++r) {
        first->add(featureAt(0.0));
        second->add(featureAt(0.0));
    }

    serve::DriftOptions options;
    options.windowSize = 16;
    serve::DriftMonitor monitor(options);
    monitor.setBaseline(first);
    for (int i = 0; i < 8; ++i)
        monitor.observe(featureAt(0.0));
    monitor.setBaseline(first); // same pointer: no reset
    monitor.setBaseline(second); // new baseline: partial window drops
    for (int i = 0; i < 15; ++i)
        monitor.observe(featureAt(0.0));
    EXPECT_EQ(monitor.scores().windows, 0u);
    monitor.observe(featureAt(0.0));
    EXPECT_EQ(monitor.scores().windows, 1u);
}

TEST(ForensicsDriftTest, OutcomeRateRollsOverItsWindow)
{
    serve::DriftOptions options;
    options.outcomeWindow = 8;
    serve::DriftMonitor monitor(options);
    for (int i = 0; i < 2; ++i)
        monitor.observeOutcome(false);
    for (int i = 0; i < 6; ++i)
        monitor.observeOutcome(true);
    EXPECT_NEAR(monitor.scores().mispredictRate, 0.25, 1e-9);
    for (int i = 0; i < 8; ++i)
        monitor.observeOutcome(true);
    EXPECT_NEAR(monitor.scores().mispredictRate, 0.0, 1e-9);
}

/* ------------------------- SLO tracker ------------------------ */

TEST(ForensicsSloTest, DefaultObjectivesApplyWhenUnset)
{
    serve::SloTracker tracker;
    const serve::SloStatus status = tracker.status();
    ASSERT_EQ(status.objectives.size(),
              serve::makeDefaultSlos().size());
    EXPECT_EQ(status.objectives[0].name, "fast");
    EXPECT_EQ(status.objectives[1].name, "tail");
}

TEST(ForensicsSloTest, WindowMathAndErrorBudget)
{
    serve::SloOptions options;
    options.objectives = {{"t", 10.0, 0.5}};
    serve::SloTracker tracker(options);

    // Window 1: 80 good, 20 bad -> goodFraction 0.8, no breach,
    // burn rate 0.2/0.5 = 0.4, budget 1 - 20/(0.5*100) = 0.6.
    for (int i = 0; i < 80; ++i)
        tracker.record(1.0);
    for (int i = 0; i < 20; ++i)
        tracker.record(100.0);
    ASSERT_TRUE(tracker.maybeHarvest(true));
    serve::SloStatus status = tracker.status();
    ASSERT_EQ(status.objectives.size(), 1u);
    EXPECT_NEAR(status.objectives[0].goodFraction, 0.8, 0.01);
    EXPECT_NEAR(status.objectives[0].burnRate, 0.4, 0.05);
    EXPECT_EQ(status.objectives[0].breaches, 0u);
    EXPECT_NEAR(status.objectives[0].budgetRemaining, 0.6, 0.05);

    // Window 2: 20 good, 80 bad -> breach; cumulative bad mass
    // exhausts the allowance (100 bad vs 0.5 * 200 allowed).
    for (int i = 0; i < 20; ++i)
        tracker.record(1.0);
    for (int i = 0; i < 80; ++i)
        tracker.record(100.0);
    ASSERT_TRUE(tracker.maybeHarvest(true));
    status = tracker.status();
    EXPECT_NEAR(status.objectives[0].goodFraction, 0.2, 0.01);
    EXPECT_NEAR(status.objectives[0].burnRate, 1.6, 0.1);
    EXPECT_EQ(status.objectives[0].breaches, 1u);
    EXPECT_NEAR(status.objectives[0].budgetRemaining, 0.0, 0.05);

    EXPECT_EQ(status.requests, 200u);
    EXPECT_EQ(status.windows, 2u);
    EXPECT_GT(status.p99Ms, status.p50Ms);
}

TEST(ForensicsSloTest, IdleWindowIsVacuouslyCompliant)
{
    serve::SloOptions options;
    options.objectives = {{"t", 10.0, 0.99}};
    serve::SloTracker tracker(options);
    ASSERT_TRUE(tracker.maybeHarvest(true));
    const serve::SloStatus status = tracker.status();
    EXPECT_DOUBLE_EQ(status.objectives[0].goodFraction, 1.0);
    EXPECT_EQ(status.objectives[0].breaches, 0u);
    EXPECT_DOUBLE_EQ(status.objectives[0].budgetRemaining, 1.0);
}

/* ---------------------- audit record JSON --------------------- */

TEST(ForensicsAuditJsonTest, RecordSerializesToValidJson)
{
    forensics::AuditRecord record;
    record.requestId = 42;
    record.modelEpoch = 3;
    record.setModelKind("Decision \"Tree\"");
    record.setWorkload("PR\\BFS");
    record.setAccelerator("gpu");
    record.treeLeaf = 7;
    record.treePredicateMask = 0x15;
    record.supervised = true;
    record.statsHit = true;
    record.hasOutcome = true;
    const std::string json = forensics::auditRecordToJson(record);
    std::string error;
    EXPECT_TRUE(telemetry::validateJson(json, &error)) << error;
    EXPECT_NE(json.find("\"request_id\":42"), std::string::npos);
    EXPECT_NE(json.find("\"stats_hit\":true"), std::string::npos);
}

#if HETEROMAP_TELEMETRY

/* ----------------------- flight recorder ---------------------- */

/** @p name's value in a registry snapshot (0 when absent). */
uint64_t
registryCounter(const std::string &name)
{
    const telemetry::MetricsSnapshot snap =
        telemetry::registry().snapshot();
    auto found = snap.counters.find(name);
    return found == snap.counters.end() ? 0 : found->second;
}

TEST(ForensicsFlightRecorderTest, DisarmedAppendIsANoOp)
{
    forensics::disarmFlightRecorder();
    forensics::drainAuditRecords();
    forensics::AuditRecord record;
    record.requestId = 1;
    forensics::appendAuditRecord(record);
    EXPECT_TRUE(forensics::drainAuditRecords().empty());
}

TEST(ForensicsFlightRecorderTest, DropOldestKeepsTheNewestRecords)
{
    forensics::armFlightRecorder(8);
    const uint64_t registry_dropped_before =
        registryCounter("flight.dropped");
    for (uint64_t i = 0; i < 20; ++i) {
        forensics::AuditRecord record;
        record.requestId = i;
        record.timestampNs = i;
        forensics::appendAuditRecord(record);
    }
    EXPECT_EQ(forensics::auditRecordsAppended(), 20u);
    EXPECT_EQ(forensics::auditRecordsDropped(), 12u);
    EXPECT_EQ(registryCounter("flight.dropped") - registry_dropped_before,
              12u);
    const std::vector<forensics::AuditRecord> drained =
        forensics::drainAuditRecords();
    ASSERT_EQ(drained.size(), 8u);
    for (std::size_t i = 0; i < drained.size(); ++i)
        EXPECT_EQ(drained[i].requestId, 12u + i);
    forensics::disarmFlightRecorder();
}

TEST(ForensicsFlightRecorderTest, RearmResetsAccounting)
{
    forensics::armFlightRecorder(8);
    forensics::AuditRecord record;
    forensics::appendAuditRecord(record);
    EXPECT_EQ(forensics::auditRecordsAppended(), 1u);
    forensics::armFlightRecorder(8);
    EXPECT_EQ(forensics::auditRecordsAppended(), 0u);
    EXPECT_EQ(forensics::auditRecordsDropped(), 0u);
    EXPECT_TRUE(forensics::drainAuditRecords().empty());
    forensics::disarmFlightRecorder();
}

TEST(ForensicsFlightRecorderTest, ExactAccountingUnderConcurrency)
{
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 1000;
    constexpr std::size_t kRing = 64; // force overflow drops

    forensics::armFlightRecorder(kRing);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> drained_concurrently{0};
    std::thread drainer([&] {
        while (!stop.load(std::memory_order_acquire)) {
            drained_concurrently.fetch_add(
                forensics::drainAuditRecords().size(),
                std::memory_order_relaxed);
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                forensics::AuditRecord record;
                record.requestId = t * kPerThread + i;
                record.timestampNs = record.requestId;
                forensics::appendAuditRecord(record);
            }
        });
    }
    for (auto &writer : writers)
        writer.join();
    stop.store(true, std::memory_order_release);
    drainer.join();

    const uint64_t remaining = forensics::drainAuditRecords().size();
    EXPECT_EQ(forensics::auditRecordsAppended(),
              kThreads * kPerThread);
    // Exact conservation: every append is either drained or counted
    // as an overflow drop — nothing lost, nothing double-counted.
    EXPECT_EQ(drained_concurrently.load() + remaining +
                  forensics::auditRecordsDropped(),
              forensics::auditRecordsAppended());
    forensics::disarmFlightRecorder();
}

TEST(ForensicsFlightRecorderTest, DumpWritesBuildStampedJsonl)
{
    forensics::armFlightRecorder(64);
    for (uint64_t i = 0; i < 5; ++i) {
        forensics::AuditRecord record;
        record.requestId = i;
        record.timestampNs = i;
        forensics::appendAuditRecord(record);
    }
    const std::string path = "test_forensics_dump.tmp.jsonl";
    ASSERT_TRUE(forensics::dumpFlightRecorderToFile(path, "unit-test"));

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::size_t lines = 0;
    bool saw_header = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++lines;
        std::string error;
        EXPECT_TRUE(telemetry::validateJson(line, &error))
            << line << ": " << error;
        if (line.find("\"type\":\"flight-recorder\"") !=
            std::string::npos) {
            saw_header = true;
            EXPECT_NE(line.find("\"reason\":\"unit-test\""),
                      std::string::npos);
            EXPECT_NE(line.find("\"build\""), std::string::npos);
        }
    }
    in.close();
    std::remove(path.c_str());
    EXPECT_TRUE(saw_header);
    EXPECT_EQ(lines, 6u); // header + 5 records
    forensics::disarmFlightRecorder();
}

TEST(ForensicsFlightRecorderTest, AuditTellsWhetherTheHeadLingered)
{
    // A served request's record says whether its batch head's stats
    // lookup hit: only then did the worker linger, so only then can
    // its queueMs include a linger.
    setLogVerbose(false);
    Oracle oracle;
    AcceleratorPair pair = pinnedPair(primaryPair());
    serve::ModelRegistry registry(pair, oracle);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));

    serve::ServiceOptions options;
    options.workers = 1;
    serve::PredictionService service(registry, options);
    serve::ServeRequest request;
    request.workload =
        std::shared_ptr<const Workload>(makeWorkload("PR"));
    request.graph =
        std::make_shared<const Graph>(generateMesh(256, 4, 1));
    request.inputName = "mesh";

    forensics::armFlightRecorder(64);
    const serve::ServeResponse cold = service.submit(request).get();
    const serve::ServeResponse warm = service.submit(request).get();
    service.close();
    const std::vector<forensics::AuditRecord> records =
        forensics::drainAuditRecords();
    forensics::disarmFlightRecorder();

    ASSERT_EQ(cold.status, serve::ServeStatus::Ok);
    ASSERT_EQ(warm.status, serve::ServeStatus::Ok);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].requestId, cold.requestId);
    EXPECT_FALSE(records[0].statsHit);
    EXPECT_NE(forensics::auditRecordToJson(records[0])
                  .find("\"stats_hit\":false"),
              std::string::npos);
    EXPECT_EQ(records[1].requestId, warm.requestId);
    EXPECT_TRUE(records[1].statsHit);
    EXPECT_NE(forensics::auditRecordToJson(records[1])
                  .find("\"stats_hit\":true"),
              std::string::npos);
}

/** PR, counting how often it executes. */
class CountingWorkload : public Workload
{
  public:
    std::string name() const override { return inner_->name(); }
    BVariables bVariables() const override
    {
        return inner_->bVariables();
    }
    WorkloadOutput
    run(const Graph &graph, Executor &exec) const override
    {
        runs.fetch_add(1);
        return inner_->run(graph, exec);
    }

    mutable std::atomic<int> runs{0};

  private:
    std::unique_ptr<Workload> inner_ = makeWorkload("PR");
};

TEST(ForensicsFlightRecorderTest, WarmPredictDoesNotRerunTheWorkload)
{
    setLogVerbose(false);
    Oracle oracle;
    HeteroMap framework(pinnedPair(primaryPair()),
                        makePredictor(PredictorKind::DecisionTree),
                        oracle);
    const auto workload = std::make_shared<const CountingWorkload>();
    const Graph graph = generateMesh(192, 4, 3);

    forensics::armFlightRecorder(64);
    const Deployment cold = framework.predict(workload, graph, "mesh");
    const Deployment warm = framework.predict(workload, graph, "mesh");
    const std::vector<forensics::AuditRecord> records =
        forensics::drainAuditRecords();
    forensics::disarmFlightRecorder();

    EXPECT_EQ(workload->runs.load(), 1);
    EXPECT_EQ(warm.config, cold.config);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].statsHit);
    EXPECT_TRUE(records[1].statsHit);
}

TEST(ForensicsFlightRecorderTest, LibraryRecordMatchesTheServedRecord)
{
    // predict() and the service fill a record's prediction fields
    // through one helper, so the same request reads the same in both.
    setLogVerbose(false);
    Oracle oracle;
    serve::ModelRegistry registry(pinnedPair(primaryPair()), oracle);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    serve::ServiceOptions options;
    options.workers = 1;
    serve::PredictionService service(registry, options);
    serve::ServeRequest request;
    request.workload =
        std::shared_ptr<const Workload>(makeWorkload("SSSP-BF"));
    request.graph =
        std::make_shared<const Graph>(generateMesh(320, 4, 7));
    request.inputName = "mesh";

    forensics::armFlightRecorder(64);
    registry.current()->framework->predict(
        request.workload, *request.graph, request.inputName);
    const serve::ServeResponse served = service.submit(request).get();
    service.close();
    const std::vector<forensics::AuditRecord> records =
        forensics::drainAuditRecords();
    forensics::disarmFlightRecorder();

    ASSERT_EQ(served.status, serve::ServeStatus::Ok);
    ASSERT_EQ(records.size(), 2u);
    // Rings drain per thread; a library record carries request id 0.
    const bool library_first = records[0].requestId == 0;
    const forensics::AuditRecord &library = records[library_first ? 0 : 1];
    const forensics::AuditRecord &serving = records[library_first ? 1 : 0];
    ASSERT_EQ(library.requestId, 0u);
    ASSERT_EQ(serving.requestId, served.requestId);

    EXPECT_STREQ(library.modelKind, serving.modelKind);
    EXPECT_STREQ(library.workload, serving.workload);
    EXPECT_STREQ(library.workload, "SSSP-BF");
    EXPECT_EQ(library.features, serving.features);
    EXPECT_EQ(library.scores, serving.scores);
    EXPECT_STREQ(library.accelerator, serving.accelerator);
    EXPECT_GE(library.treeLeaf, 0);
    EXPECT_EQ(library.treeLeaf, serving.treeLeaf);
    EXPECT_EQ(library.treePredicateMask, serving.treePredicateMask);
}

/* -------------------------- statusz --------------------------- */

TEST(ForensicsStatuszTest, ServiceSnapshotRendersValidJson)
{
    setLogVerbose(false);
    Oracle oracle;
    AcceleratorPair pair = pinnedPair(primaryPair());
    serve::ModelRegistry registry(pair, oracle);
    auto baseline = std::make_shared<FeatureBaseline>();
    for (int r = 0; r < 10; ++r)
        baseline->add(featureAt(0.0));
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree),
                     baseline);

    serve::ServiceOptions options;
    options.workers = 1;
    serve::PredictionService service(registry, options);

    auto workload = std::shared_ptr<const Workload>(makeWorkload("PR"));
    auto graph =
        std::make_shared<const Graph>(generateMesh(256, 4, 1));
    std::vector<std::future<serve::ServeResponse>> futures;
    for (int i = 0; i < 8; ++i) {
        serve::ServeRequest request;
        request.workload = workload;
        request.graph = graph;
        request.inputName = "mesh";
        futures.push_back(service.submit(std::move(request)));
    }
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, serve::ServeStatus::Ok);
    service.close();

    const serve::ServiceStatus status = service.statusz();
    EXPECT_EQ(status.completed, 8u);
    EXPECT_TRUE(status.hasBaseline);

    const std::string json = serve::statuszJson(status);
    std::string error;
    EXPECT_TRUE(telemetry::validateJson(json, &error)) << error;
    EXPECT_NE(json.find("\"type\":\"statusz\""), std::string::npos);
}

#else // !HETEROMAP_TELEMETRY: every forensics entry point no-ops.

TEST(ForensicsFlightRecorderTest, OffBuildIsInert)
{
    forensics::armFlightRecorder();
    EXPECT_FALSE(forensics::flightRecorderArmed());
    forensics::AuditRecord record;
    record.requestId = 1;
    forensics::appendAuditRecord(record);
    EXPECT_EQ(forensics::auditRecordsAppended(), 0u);
    EXPECT_EQ(forensics::auditRecordsDropped(), 0u);
    EXPECT_TRUE(forensics::drainAuditRecords().empty());
}

#endif // HETEROMAP_TELEMETRY

} // namespace
} // namespace heteromap
