/**
 * @file
 * Tests for the parallel offline training sweep: the work-stealing
 * thread pool, byte-identical parallel/serial determinism, per-seed
 * default corpora, exact evaluation accounting via the objective
 * cache, and the annealing budget split.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/training.hh"
#include "graph/generators.hh"
#include "tuner/annealing.hh"
#include "tuner/objective_cache.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace heteromap {
namespace {

// ---------------------------------------------------------------- //
// Thread pool                                                       //
// ---------------------------------------------------------------- //

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    constexpr std::size_t kCount = 512;
    std::vector<std::atomic<int>> hits(kCount);
    ThreadPool pool(4);
    pool.parallelFor(kCount, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ExceptionsPropagateAndThePoolStaysUsable)
{
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&ran] { ++ran; });
    pool.submit([] { throw std::runtime_error("task boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 8);

    // A failed batch must not poison the next one.
    pool.submit([&ran] { ++ran; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPoolTest, ConcurrentParallelForIsolatesExceptions)
{
    // Two callers share one pool every round and only one body
    // throws: completion and the exception slot are per call, so the
    // thrower always gets its exception and the other caller never
    // does (and sees every one of its own writes on return).
    constexpr int kRounds = 50;
    constexpr std::size_t kCount = 64;
    ThreadPool pool(4);
    int thrower_caught = 0;
    int clean_caught = 0;
    int clean_incomplete = 0;
    const auto work = [](std::size_t i) {
        if (i % 8 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(20));
    };
    for (int round = 0; round < kRounds; ++round) {
        std::latch start(2);
        std::thread thrower([&] {
            start.arrive_and_wait();
            try {
                pool.parallelFor(kCount, [&](std::size_t i) {
                    work(i);
                    if (i == kCount / 2)
                        throw std::runtime_error("body boom");
                });
            } catch (const std::runtime_error &) {
                ++thrower_caught;
            }
        });
        std::thread clean([&] {
            std::vector<int> hits(kCount, 0);
            start.arrive_and_wait();
            try {
                pool.parallelFor(kCount, [&](std::size_t i) {
                    work(i);
                    ++hits[i];
                });
            } catch (...) {
                ++clean_caught;
            }
            for (int h : hits)
                clean_incomplete += h != 1;
        });
        thrower.join();
        clean.join();
    }
    EXPECT_EQ(thrower_caught, kRounds);
    EXPECT_EQ(clean_caught, 0);
    EXPECT_EQ(clean_incomplete, 0);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ++ran;
            });
        // No wait(): the destructor joins only after the queues
        // are empty.
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, WorkIsStolenAcrossWorkerQueues)
{
    // Tasks are submitted round-robin; one worker's tasks are slow,
    // so the others can only finish early by stealing. All tasks
    // completing before wait() returns is the observable guarantee.
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 40; ++i)
        pool.submit([&ran, i] {
            if (i % 4 == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            ++ran;
        });
    pool.wait();
    EXPECT_EQ(ran.load(), 40);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), ThreadPool::defaultThreadCount());
    EXPECT_GE(pool.threadCount(), 1u);
}

// ---------------------------------------------------------------- //
// Objective cache                                                   //
// ---------------------------------------------------------------- //

TEST(ObjectiveCacheTest, RepeatsAreServedFromTheMemo)
{
    std::size_t calls = 0;
    ObjectiveCache cache([&calls](const MConfig &c) {
        ++calls;
        return static_cast<double>(c.cores);
    });
    MConfig a;
    a.accelerator = AcceleratorKind::Multicore;
    a.cores = 8;
    MConfig b = a;
    b.cores = 16;

    EXPECT_DOUBLE_EQ(cache(a), 8.0);
    EXPECT_DOUBLE_EQ(cache(b), 16.0);
    EXPECT_DOUBLE_EQ(cache(a), 8.0);
    EXPECT_DOUBLE_EQ(cache(a), 8.0);
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(cache.invocations(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

// ---------------------------------------------------------------- //
// Training pipeline                                                 //
// ---------------------------------------------------------------- //

class TrainingSweepTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogVerbose(false); }
    void TearDown() override { setLogVerbose(true); }

    Oracle oracle_;

    /** Two small graphs: enough cases to exercise the fan-out. */
    std::vector<TrainingGraph>
    tinyCorpus() const
    {
        std::vector<TrainingGraph> graphs;
        for (auto [name, seed] :
             {std::pair{"tiny-a", 77}, std::pair{"tiny-b", 78}}) {
            Graph g = generateUniformRandom(
                256, 1024, static_cast<uint64_t>(seed));
            GraphStats stats = measureGraph(g);
            graphs.push_back({name, g, stats, stats});
        }
        return graphs;
    }

    static std::string
    databaseBytes(const ProfilerDatabase &db)
    {
        std::ostringstream oss;
        db.save(oss);
        return oss.str();
    }

    static void
    expectIdenticalRuns(TrainingPipeline &serial,
                        TrainingPipeline &parallel,
                        const std::vector<TrainingGraph> &graphs)
    {
        TrainingSet a = serial.run(graphs);
        TrainingSet b = parallel.run(graphs);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].x, b[i].x) << "sample " << i;
            EXPECT_EQ(a[i].y, b[i].y) << "sample " << i;
        }
        EXPECT_EQ(databaseBytes(serial.database()),
                  databaseBytes(parallel.database()));
        EXPECT_EQ(serial.evaluations(), parallel.evaluations());
    }
};

TEST_F(TrainingSweepTest, ParallelGridSweepIsByteIdenticalToSerial)
{
    TrainingOptions options;
    options.syntheticBenchmarks = 4;
    options.syntheticIterations = 1;
    options.tuner = TunerKind::Grid;

    TrainingOptions parallel_options = options;
    parallel_options.threads = 4;

    TrainingPipeline serial(primaryPair(), oracle_, options);
    TrainingPipeline parallel(primaryPair(), oracle_,
                              parallel_options);
    expectIdenticalRuns(serial, parallel, tinyCorpus());
}

TEST_F(TrainingSweepTest, ParallelAnnealSweepIsByteIdenticalToSerial)
{
    TrainingOptions options;
    options.syntheticBenchmarks = 3;
    options.syntheticIterations = 1;
    options.tuner = TunerKind::Anneal;
    options.searchIterations = 45;

    TrainingOptions parallel_options = options;
    parallel_options.threads = 3;

    TrainingPipeline serial(primaryPair(), oracle_, options);
    TrainingPipeline parallel(primaryPair(), oracle_,
                              parallel_options);
    expectIdenticalRuns(serial, parallel, tinyCorpus());
}

TEST_F(TrainingSweepTest, DifferentSeedsGetDifferentDefaultCorpora)
{
    // Regression: the default corpus used to be a function-local
    // static, so the second pipeline silently trained on graphs
    // generated from the first pipeline's seed.
    TrainingOptions options;
    options.syntheticBenchmarks = 1;
    options.syntheticIterations = 1;
    options.tuner = TunerKind::Random;
    options.searchIterations = 8;
    options.threads = 0; // hardware: also exercises the pool

    TrainingOptions other = options;
    options.seed = 101;
    other.seed = 202;

    TrainingPipeline first(primaryPair(), oracle_, options);
    TrainingPipeline second(primaryPair(), oracle_, other);
    TrainingSet corpus_a = first.run();
    TrainingSet corpus_b = second.run();
    ASSERT_EQ(corpus_a.size(), corpus_b.size());

    bool any_difference = false;
    for (std::size_t i = 0; i < corpus_a.size(); ++i)
        any_difference |= !(corpus_a[i].x == corpus_b[i].x);
    EXPECT_TRUE(any_difference)
        << "default corpora should depend on the pipeline seed";
}

TEST_F(TrainingSweepTest, GridEvaluationAccountingIsExact)
{
    TrainingOptions options;
    options.syntheticBenchmarks = 2;
    options.syntheticIterations = 1;
    options.tuner = TunerKind::Grid;
    options.threads = 2;

    auto graphs = tinyCorpus();
    TrainingPipeline pipeline(primaryPair(), oracle_, options);
    TrainingSet corpus = pipeline.run(graphs);

    // Both per-side passes cover the full grid once, the tie-break
    // pass is served by the memo, so each case costs exactly one
    // oracle call per candidate.
    const std::size_t grid_size =
        MSearchSpace(primaryPair(), options.granularity)
            .enumerate()
            .size();
    EXPECT_EQ(pipeline.evaluations(), corpus.size() * grid_size);
}

TEST_F(TrainingSweepTest, AnnealBudgetIsDividedAcrossRestarts)
{
    TrainingOptions options;
    options.syntheticBenchmarks = 2;
    options.syntheticIterations = 1;
    options.tuner = TunerKind::Anneal;
    options.searchIterations = 90;

    std::vector<TrainingGraph> graphs{tinyCorpus().front()};
    TrainingPipeline pipeline(primaryPair(), oracle_, options);
    TrainingSet corpus = pipeline.run(graphs);

    // Each case spends at most searchIterations + one seed draw per
    // restart; the old behaviour (restarts x searchIterations) would
    // blow well past this bound.
    const std::size_t restarts = AnnealOptions{}.restarts;
    EXPECT_LE(pipeline.evaluations(),
              corpus.size() * (options.searchIterations + restarts));
    EXPECT_GT(pipeline.evaluations(), 0u);
}

} // namespace
} // namespace heteromap
