/**
 * @file
 * Tests for the telemetry layer: metric semantics (counters, gauges,
 * histograms), snapshot-vs-reset, exact totals under concurrent
 * increments, trace-span nesting and thread attribution in the
 * exported Chrome JSON, the trace-format validator, the instrumented
 * subsystems (predict stages, caches, thread pool, training sweep),
 * and the OFF-build no-op guarantee.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/heteromap.hh"
#include "core/training.hh"
#include "graph/generators.hh"
#include "graph/props.hh"
#include "graph/stats_cache.hh"
#include "tuner/objective_cache.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"
#include "util/thread_ring.hh"
#include "util/trace.hh"
#include "workloads/registry.hh"

namespace heteromap {
namespace {

uint64_t
counterValue(const telemetry::MetricsSnapshot &snap,
             const std::string &name)
{
    auto found = snap.counters.find(name);
    return found == snap.counters.end() ? 0 : found->second;
}

uint64_t
liveCounter(const std::string &name)
{
    return counterValue(telemetry::registry().snapshot(), name);
}

// ---------------------------------------------------------------- //
// ThreadRingCollector (plain code: runs in both builds)             //
// ---------------------------------------------------------------- //

struct RingRecord {
    uint64_t ts = 0;
    uint64_t writer = 0;
};

using RingCollector =
    telemetry::ThreadRingCollector<RingRecord, &RingRecord::ts>;

TEST(Telemetry, ThreadRingDropsOldestFirst)
{
    // Leaked, as collectors must be: this thread's ring retires into
    // it at thread exit.
    static RingCollector *collector = new RingCollector(4);
    for (uint64_t i = 0; i < 10; ++i)
        collector->push({i, 0});
    EXPECT_EQ(collector->pushed(), 10u);
    EXPECT_EQ(collector->dropped(), 6u);
    const std::vector<RingRecord> drained = collector->drain();
    ASSERT_EQ(drained.size(), 4u);
    for (std::size_t i = 0; i < drained.size(); ++i)
        EXPECT_EQ(drained[i].ts, 6u + i);
    EXPECT_TRUE(collector->drain().empty());
}

TEST(Telemetry, ThreadRingKeepsExitedThreadsRecords)
{
    static RingCollector *collector = new RingCollector(8);
    std::thread writer([] {
        for (uint64_t i = 0; i < 3; ++i)
            collector->push({10 + i, 1});
    });
    writer.join();
    collector->push({5, 0}); // older than the exited thread's records
    const std::vector<RingRecord> drained = collector->drain();
    ASSERT_EQ(drained.size(), 4u);
    EXPECT_EQ(drained[0].ts, 5u);
    for (std::size_t i = 1; i < drained.size(); ++i) {
        EXPECT_EQ(drained[i].writer, 1u);
        EXPECT_EQ(drained[i].ts, 10u + i - 1);
    }
    EXPECT_EQ(collector->pushed(), 4u);
    EXPECT_EQ(collector->dropped(), 0u);
}

TEST(Telemetry, ThreadRingConservesRecordsUnderAConcurrentDrainer)
{
    constexpr uint64_t kWriters = 4;
    constexpr uint64_t kPerWriter = 2000;
    static RingCollector *collector = new RingCollector(16);

    std::atomic<bool> stop{false};
    uint64_t drained = 0;
    std::thread drainer([&] {
        while (!stop.load(std::memory_order_acquire)) {
            drained += collector->drain().size();
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> writers;
    for (uint64_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([w] {
            for (uint64_t i = 0; i < kPerWriter; ++i)
                collector->push({w * kPerWriter + i, w});
        });
    }
    for (auto &writer : writers)
        writer.join();
    stop.store(true, std::memory_order_release);
    drainer.join();
    drained += collector->drain().size();

    // Every push is drained or counted as dropped, exactly once.
    EXPECT_EQ(collector->pushed(), kWriters * kPerWriter);
    EXPECT_EQ(drained + collector->dropped(), kWriters * kPerWriter);
}

#if HETEROMAP_TELEMETRY

// ---------------------------------------------------------------- //
// Metric semantics                                                  //
// ---------------------------------------------------------------- //

TEST(Telemetry, CounterAddsAndResets)
{
    telemetry::Counter &c =
        telemetry::registry().counter("test.counter.basic");
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    c.add(1);
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Telemetry, SameNameYieldsSameMetricObject)
{
    telemetry::Counter &a =
        telemetry::registry().counter("test.counter.same");
    telemetry::Counter &b =
        telemetry::registry().counter("test.counter.same");
    EXPECT_EQ(&a, &b);

    telemetry::Gauge &g1 =
        telemetry::registry().gauge("test.gauge.same");
    telemetry::Gauge &g2 =
        telemetry::registry().gauge("test.gauge.same");
    EXPECT_EQ(&g1, &g2);

    telemetry::Histogram &h1 =
        telemetry::registry().histogram("test.histogram.same");
    telemetry::Histogram &h2 =
        telemetry::registry().histogram("test.histogram.same");
    EXPECT_EQ(&h1, &h2);
}

TEST(Telemetry, GaugeKeepsLastValue)
{
    telemetry::Gauge &g =
        telemetry::registry().gauge("test.gauge.basic");
    g.set(3.5);
    g.set(-1.25);
    EXPECT_DOUBLE_EQ(g.value(), -1.25);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Telemetry, HistogramRecordsCountSumMinMaxAndBuckets)
{
    telemetry::Histogram &h =
        telemetry::registry().histogram("test.histogram.basic");
    h.reset();
    h.record(0.25);
    h.record(4.0);
    h.record(7000.0); // beyond the last bound: overflow bucket

    telemetry::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 3u);
    EXPECT_DOUBLE_EQ(snap.sum, 7004.25);
    EXPECT_DOUBLE_EQ(snap.min, 0.25);
    EXPECT_DOUBLE_EQ(snap.max, 7000.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 7004.25 / 3.0);

    uint64_t bucket_total = 0;
    for (uint64_t n : snap.buckets)
        bucket_total += n;
    EXPECT_EQ(bucket_total, snap.count);
    // The overflow bucket caught the out-of-range value.
    EXPECT_EQ(snap.buckets.back(), 1u);

    h.reset();
    EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(Telemetry, BucketIndexRespectsBounds)
{
    const auto &bounds = telemetry::Histogram::bucketBoundsMs();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        // A value exactly on a bound lands at or before that bound's
        // bucket; anything above the last bound overflows.
        EXPECT_LE(telemetry::Histogram::bucketIndexMs(bounds[i]), i);
    }
    EXPECT_EQ(telemetry::Histogram::bucketIndexMs(
                  bounds.back() * 2.0),
              bounds.size());
}

TEST(Telemetry, SnapshotObservesWithoutClearingAndResetClears)
{
    telemetry::registry().counter("test.snapshot.counter").reset();
    HM_COUNTER_ADD("test.snapshot.counter", 7);
    HM_HISTOGRAM_RECORD_MS("test.snapshot.histogram", 1.5);

    telemetry::MetricsSnapshot first =
        telemetry::registry().snapshot();
    EXPECT_EQ(counterValue(first, "test.snapshot.counter"), 7u);

    // Snapshotting is an observation, not a drain.
    telemetry::MetricsSnapshot second =
        telemetry::registry().snapshot();
    EXPECT_EQ(counterValue(second, "test.snapshot.counter"), 7u);
    EXPECT_GE(second.histograms.at("test.snapshot.histogram").count,
              1u);

    telemetry::registry().reset();
    telemetry::MetricsSnapshot after =
        telemetry::registry().snapshot();
    EXPECT_EQ(counterValue(after, "test.snapshot.counter"), 0u);
    EXPECT_EQ(after.histograms.at("test.snapshot.histogram").count,
              0u);
}

TEST(Telemetry, EmittersIncludeEveryMetric)
{
    telemetry::registry().reset();
    HM_COUNTER_ADD("test.emit.counter", 3);
    HM_GAUGE_SET("test.emit.gauge", 2.5);
    HM_HISTOGRAM_RECORD_MS("test.emit.histogram", 0.75);

    telemetry::MetricsSnapshot snap = telemetry::registry().snapshot();
    for (const std::string &text :
         {snap.toText(), snap.toJson(), snap.toCsv()}) {
        EXPECT_NE(text.find("test.emit.counter"), std::string::npos);
        EXPECT_NE(text.find("test.emit.gauge"), std::string::npos);
        EXPECT_NE(text.find("test.emit.histogram"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------- //
// Concurrency: totals must be exact, not approximate                //
// ---------------------------------------------------------------- //

TEST(Telemetry, ConcurrentCounterIncrementsAreExact)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    telemetry::Counter &c =
        telemetry::registry().counter("test.concurrent.counter");
    c.reset();

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kPerThread; ++i)
                HM_COUNTER_INC("test.concurrent.counter");
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(c.value(),
              uint64_t(kThreads) * uint64_t(kPerThread));
}

TEST(Telemetry, ConcurrentHistogramRecordsAreExact)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2000;
    telemetry::Histogram &h =
        telemetry::registry().histogram("test.concurrent.histogram");
    h.reset();

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kPerThread; ++i)
                HM_HISTOGRAM_RECORD_MS("test.concurrent.histogram",
                                       2.0);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    telemetry::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, uint64_t(kThreads) * uint64_t(kPerThread));
    EXPECT_DOUBLE_EQ(snap.sum, 2.0 * kThreads * kPerThread);
    EXPECT_DOUBLE_EQ(snap.min, 2.0);
    EXPECT_DOUBLE_EQ(snap.max, 2.0);
}

// ---------------------------------------------------------------- //
// Trace spans and Chrome-trace export                               //
// ---------------------------------------------------------------- //

TEST(Telemetry, SpanNestingAndThreadAttributionSurviveExport)
{
    telemetry::clearTrace();
    {
        HM_SPAN("outer");
        {
            HM_SPAN("inner");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::thread worker([] {
            HM_SPAN("worker-span");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
        worker.join();
    }

    const std::string json =
        telemetry::traceToChromeJson(telemetry::drainTrace());
    std::string error;
    std::vector<telemetry::ParsedTraceEvent> events =
        telemetry::parseChromeTrace(json, &error);
    ASSERT_FALSE(events.empty()) << error;

    const telemetry::ParsedTraceEvent *outer = nullptr;
    const telemetry::ParsedTraceEvent *inner = nullptr;
    const telemetry::ParsedTraceEvent *worker = nullptr;
    for (const auto &event : events) {
        EXPECT_EQ(event.ph, "X");
        EXPECT_TRUE(event.hasDur);
        if (event.name == "outer")
            outer = &event;
        else if (event.name == "inner")
            inner = &event;
        else if (event.name == "worker-span")
            worker = &event;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(worker, nullptr);

    // Nesting: the inner complete event sits inside the outer one on
    // the same thread track.
    EXPECT_EQ(inner->tid, outer->tid);
    EXPECT_GE(inner->ts, outer->ts);
    EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur);
    // Attribution: the worker thread got its own track.
    EXPECT_NE(worker->tid, outer->tid);
}

TEST(Telemetry, GeneratedTraceJsonValidates)
{
    telemetry::clearTrace();
    {
        HM_SPAN("validate-me");
    }
    std::string error;
    std::size_t num_events = 0;
    EXPECT_TRUE(telemetry::validateChromeTrace(
        telemetry::traceToChromeJson(telemetry::drainTrace()), &error,
        &num_events))
        << error;
    EXPECT_EQ(num_events, 1u);
}

TEST(Telemetry, CombinedTelemetryJsonValidates)
{
    telemetry::clearTrace();
    HM_COUNTER_INC("test.combined.counter");
    {
        HM_SPAN("combined");
    }
    std::string error;
    const std::string json = telemetry::combinedTelemetryJson();
    EXPECT_TRUE(telemetry::validateChromeTrace(json, &error))
        << error;
    // The metrics snapshot rides along in the same file.
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(Telemetry, ValidatorAcceptsBalancedDurationEvents)
{
    const char *json =
        R"([{"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1},)"
        R"({"name":"b","ph":"X","ts":2.0,"dur":1.0,"pid":1,"tid":1},)"
        R"({"name":"a","ph":"E","ts":5.0,"pid":1,"tid":1}])";
    std::string error;
    EXPECT_TRUE(telemetry::validateChromeTrace(json, &error)) << error;
}

TEST(Telemetry, ValidatorRejectsMalformedTraces)
{
    std::string error;
    // Not JSON at all.
    EXPECT_FALSE(telemetry::validateChromeTrace("not json", &error));
    // Event missing the required "name".
    EXPECT_FALSE(telemetry::validateChromeTrace(
        R"([{"ph":"X","ts":1.0,"dur":1.0,"pid":1,"tid":1}])",
        &error));
    // Complete event without a duration.
    EXPECT_FALSE(telemetry::validateChromeTrace(
        R"([{"name":"a","ph":"X","ts":1.0,"pid":1,"tid":1}])",
        &error));
    // Unbalanced begin/end on one track.
    EXPECT_FALSE(telemetry::validateChromeTrace(
        R"([{"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1}])",
        &error));
    // End with no matching begin.
    EXPECT_FALSE(telemetry::validateChromeTrace(
        R"([{"name":"a","ph":"E","ts":1.0,"pid":1,"tid":1}])",
        &error));
    // Interleaved (non-LIFO) begin/end pairs on the same track.
    EXPECT_FALSE(telemetry::validateChromeTrace(
        R"([{"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1},)"
        R"({"name":"b","ph":"B","ts":2.0,"pid":1,"tid":1},)"
        R"({"name":"a","ph":"E","ts":3.0,"pid":1,"tid":1},)"
        R"({"name":"b","ph":"E","ts":4.0,"pid":1,"tid":1}])",
        &error));
}

TEST(Telemetry, RingBufferOverflowDropsOldestAndCounts)
{
    telemetry::clearTrace();
    const uint64_t dropped_before = liveCounter("trace.dropped");
    const std::size_t kOver = telemetry::kTraceRingCapacity + 100;
    for (std::size_t i = 0; i < kOver; ++i) {
        HM_SPAN("overflow");
    }
    std::vector<telemetry::TraceEvent> events =
        telemetry::drainTrace();
    EXPECT_EQ(events.size(), telemetry::kTraceRingCapacity);
    EXPECT_EQ(liveCounter("trace.dropped") - dropped_before, 100u);
}

// ---------------------------------------------------------------- //
// Instrumented subsystems                                           //
// ---------------------------------------------------------------- //

TEST(Telemetry, PredictStageHistogramsSumToOverheadMs)
{
    setLogVerbose(false);
    telemetry::registry().reset();

    Graph graph = generateRmat(10, 8.0, /*seed=*/7);
    std::shared_ptr<const Workload> workload = makeWorkload("PR");
    Oracle oracle;
    HeteroMap framework(primaryPair(),
                        makePredictor(PredictorKind::DecisionTree),
                        oracle);
    Deployment out = framework.predict(workload, graph, "probe");
    setLogVerbose(true);

    telemetry::MetricsSnapshot snap = telemetry::registry().snapshot();
    double stage_sum_ms = 0.0;
    for (const char *stage :
         {"predict.stage.measure_ms", "predict.stage.featurize_ms",
          "predict.stage.infer_ms"}) {
        ASSERT_TRUE(snap.histograms.count(stage)) << stage;
        EXPECT_EQ(snap.histograms.at(stage).count, 1u) << stage;
        stage_sum_ms += snap.histograms.at(stage).sum;
    }
    ASSERT_GT(out.overheadMs, 0.0);
    EXPECT_NEAR(stage_sum_ms, out.overheadMs,
                out.overheadMs * 0.01);
    EXPECT_EQ(counterValue(snap, "predict.calls"), 1u);
}

TEST(Telemetry, StatsCacheAccessorsMatchRegistryCounters)
{
    Graph graph = generateUniformRandom(512, 2048, /*seed=*/11);
    globalStatsCache().measure(graph); // miss (or hit on rerun)
    globalStatsCache().measure(graph); // definitely a hit

    telemetry::MetricsSnapshot snap = telemetry::registry().snapshot();
    EXPECT_EQ(counterValue(snap, "stats_cache.hits"),
              globalStatsCache().hits());
    EXPECT_EQ(counterValue(snap, "stats_cache.misses"),
              globalStatsCache().misses());
    EXPECT_EQ(counterValue(snap, "stats_cache.evictions"),
              globalStatsCache().evictions());
    EXPECT_GE(globalStatsCache().hits(), 1u);
}

TEST(Telemetry, PrivateStatsCacheStaysOutOfTheRegistry)
{
    const uint64_t misses_before = liveCounter("stats_cache.misses");
    GraphStatsCache cache(4);
    Graph graph = generateUniformRandom(256, 1024, /*seed=*/13);
    cache.measure(graph);
    EXPECT_EQ(cache.misses(), 1u);
    // The unnamed cache counts through its own detached counters.
    EXPECT_EQ(liveCounter("stats_cache.misses"), misses_before);
}

TEST(Telemetry, ObjectiveCacheMirrorsIntoTheRegistry)
{
    const uint64_t evals_before =
        liveCounter("objective_cache.evaluations");
    const uint64_t hits_before = liveCounter("objective_cache.hits");

    ObjectiveCache cache([](const MConfig &config) {
        return double(config.cores);
    });
    MConfig a;
    a.cores = 4;
    MConfig b;
    b.cores = 8;
    cache(a);
    cache(b);
    cache(a); // memo hit
    cache(a); // memo hit
    EXPECT_EQ(cache.invocations(), 2u);
    EXPECT_EQ(cache.hits(), 2u);

    EXPECT_EQ(liveCounter("objective_cache.evaluations") -
                  evals_before,
              cache.invocations());
    EXPECT_EQ(liveCounter("objective_cache.hits") - hits_before,
              cache.hits());
}

TEST(Telemetry, ThreadPoolCountsTasksAndSteals)
{
    const uint64_t tasks_before = liveCounter("pool.tasks");
    const uint64_t steals_before = liveCounter("pool.steals");

    // Deterministic steal: tasks round-robin to the two workers as
    // t0 -> w0, t1 -> w1, t2 -> w0. t0 blocks until t2 runs, and t2
    // sits behind the blocked t0 on w0's deque, so whichever worker
    // is not stuck must steal to make progress.
    std::promise<void> unblock;
    std::shared_future<void> unblocked =
        unblock.get_future().share();
    {
        ThreadPool pool(2);
        pool.submit([unblocked] { unblocked.wait(); });
        pool.submit([] {});
        pool.submit([&unblock] { unblock.set_value(); });
        pool.wait();
    }

    EXPECT_EQ(liveCounter("pool.tasks") - tasks_before, 3u);
    EXPECT_GE(liveCounter("pool.steals") - steals_before, 1u);
}

TEST(Telemetry, TrainingSweepReportsThroughTheRegistry)
{
    setLogVerbose(false);
    const telemetry::MetricsSnapshot before =
        telemetry::registry().snapshot();

    std::vector<TrainingGraph> graphs;
    for (auto [name, seed] :
         {std::pair{"tel-a", 91}, std::pair{"tel-b", 92}}) {
        Graph g = generateUniformRandom(256, 1024,
                                        static_cast<uint64_t>(seed));
        GraphStats stats = measureGraph(g);
        graphs.push_back({name, g, stats, stats});
    }

    Oracle oracle;
    TrainingOptions options;
    options.syntheticBenchmarks = 4;
    options.syntheticIterations = 1;
    options.threads = 4;
    TrainingPipeline pipeline(primaryPair(), oracle, options);
    TrainingSet corpus = pipeline.run(graphs);
    setLogVerbose(true);
    ASSERT_FALSE(corpus.empty());

    const telemetry::MetricsSnapshot after =
        telemetry::registry().snapshot();
    const std::size_t cases =
        graphs.size() * options.syntheticBenchmarks;

    // The registry's process-wide objective-cache accounting must
    // agree exactly with the pipeline's own per-case tally.
    EXPECT_EQ(counterValue(after, "objective_cache.evaluations") -
                  counterValue(before, "objective_cache.evaluations"),
              pipeline.evaluations());
    EXPECT_EQ(counterValue(after, "train.runs") -
                  counterValue(before, "train.runs"),
              1u);
    EXPECT_EQ(counterValue(after, "train.cases") -
                  counterValue(before, "train.cases"),
              cases);
    // The sweep fanned its cases out over the instrumented pool:
    // parallelFor runs cases on the calling thread plus one helper
    // task per worker of a threads - 1 pool.
    ASSERT_GT(cases, options.threads);
    EXPECT_EQ(counterValue(after, "pool.tasks") -
                  counterValue(before, "pool.tasks"),
              uint64_t(options.threads - 1));
}

#else // !HETEROMAP_TELEMETRY

// ---------------------------------------------------------------- //
// OFF build: every call site must no-op                             //
// ---------------------------------------------------------------- //

TEST(Telemetry, OffBuildRecordsNothing)
{
    HM_COUNTER_INC("off.counter");
    HM_COUNTER_ADD("off.counter", 10);
    HM_GAUGE_SET("off.gauge", 1.0);
    HM_HISTOGRAM_RECORD_MS("off.histogram", 2.0);
    {
        HM_SPAN("off-span");
    }

    EXPECT_FALSE(telemetry::enabled());
    EXPECT_TRUE(telemetry::registry().snapshot().empty());
    EXPECT_TRUE(telemetry::drainTrace().empty());
    EXPECT_EQ(liveCounter("off.counter"), 0u);
}

TEST(Telemetry, OffBuildMetricTypesStillWork)
{
    // The types stay functional so cache accessors keep their
    // semantics in OFF builds; only the macros and the registry
    // snapshot go dark.
    GraphStatsCache cache(4);
    Graph graph = generateUniformRandom(256, 1024, /*seed=*/17);
    cache.measure(graph);
    cache.measure(graph);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(Telemetry, OffBuildPredictStillChargesOverhead)
{
    setLogVerbose(false);
    Graph graph = generateRmat(9, 8.0, /*seed=*/5);
    std::shared_ptr<const Workload> workload = makeWorkload("PR");
    Oracle oracle;
    HeteroMap framework(primaryPair(),
                        makePredictor(PredictorKind::DecisionTree),
                        oracle);
    Deployment out = framework.predict(workload, graph, "probe");
    setLogVerbose(true);
    EXPECT_GT(out.overheadMs, 0.0);
    EXPECT_TRUE(telemetry::registry().snapshot().empty());
}

#endif // HETEROMAP_TELEMETRY

} // namespace
} // namespace heteromap
