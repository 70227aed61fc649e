/**
 * @file
 * Unit tests for the parallel graph-measurement substrate: flat
 * frontiers, direction-optimized BFS, the thread-count determinism
 * contract of measureGraph, and the memoized GraphStats cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <latch>
#include <thread>
#include <vector>

#include "graph/builder.hh"
#include "graph/frontier.hh"
#include "graph/generators.hh"
#include "graph/props.hh"
#include "graph/stats_cache.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace heteromap {
namespace {

/** Byte-level GraphStats equality (the determinism contract). */
::testing::AssertionResult
statsBitEqual(const GraphStats &a, const GraphStats &b)
{
    static_assert(sizeof(GraphStats) == 7 * sizeof(uint64_t),
                  "GraphStats gained padding or fields; revisit memcmp");
    if (std::memcmp(&a, &b, sizeof(GraphStats)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "stats differ: " << a.toString() << " vs " << b.toString()
        << " (stddev " << a.degreeStddev << " vs " << b.degreeStddev
        << ")";
}

/** A graph with two path components plus isolated vertices. */
Graph
disconnectedGraph()
{
    GraphBuilder builder(64);
    for (VertexId v = 0; v < 9; ++v)
        builder.addEdge(v, v + 1);
    for (VertexId v = 20; v < 29; ++v)
        builder.addEdge(v, v + 1);
    return builder.symmetrize().build();
}

/** A directed (asymmetric) chain: 0 -> 1 -> ... -> n-1. */
Graph
directedChain(VertexId n)
{
    GraphBuilder builder(n);
    for (VertexId v = 0; v + 1 < n; ++v)
        builder.addEdge(v, v + 1);
    return builder.build();
}

/** @p m uniformly random directed arcs over @p n vertices (no
 *  symmetrize, no dedup). */
Graph
directedRandom(VertexId n, EdgeId m, uint64_t seed)
{
    Rng rng(seed);
    GraphBuilder builder(n);
    for (EdgeId i = 0; i < m; ++i)
        builder.addEdge(static_cast<VertexId>(rng.nextBounded(n)),
                        static_cast<VertexId>(rng.nextBounded(n)));
    return builder.build();
}

/** Adjacency lists of @p g, in stored order. */
std::vector<std::vector<VertexId>>
adjacencyLists(const Graph &g)
{
    std::vector<std::vector<VertexId>> lists(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        auto nbrs = g.neighbors(v);
        lists[v].assign(nbrs.begin(), nbrs.end());
    }
    return lists;
}

/** A Graph over @p lists exactly as given: no sort, no dedup. */
Graph
graphFromLists(const std::vector<std::vector<VertexId>> &lists)
{
    std::vector<EdgeId> offsets{0};
    std::vector<VertexId> neighbors;
    for (const auto &list : lists) {
        neighbors.insert(neighbors.end(), list.begin(), list.end());
        offsets.push_back(neighbors.size());
    }
    return Graph(std::move(offsets), std::move(neighbors));
}

/**
 * Reference symmetry check: for every arc v->u, binary-search v in
 * N(u). O(E log d); exact on sorted lists without parallel arcs, and
 * blind to multiplicity.
 */
bool
binarySearchSymmetric(const Graph &g)
{
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (VertexId u : g.neighbors(v)) {
            auto back = g.neighbors(u);
            if (!std::binary_search(back.begin(), back.end(), v))
                return false;
        }
    }
    return true;
}

/** Outputs of a plain queue-based BFS, for checking flatBfs. */
struct QueueBfs {
    std::vector<uint32_t> hops;
    uint32_t depth = 0;
    VertexId farthest = kInvalidVertex;
    uint64_t reached = 0;
};

/** Textbook FIFO BFS over out-arcs from @p source. */
QueueBfs
queueBfs(const Graph &g, VertexId source)
{
    QueueBfs out;
    out.hops.assign(g.numVertices(), UINT32_MAX);
    out.hops[source] = 0;
    std::deque<VertexId> queue{source};
    while (!queue.empty()) {
        const VertexId v = queue.front();
        queue.pop_front();
        ++out.reached;
        out.depth = std::max(out.depth, out.hops[v]);
        for (VertexId u : g.neighbors(v)) {
            if (out.hops[u] == UINT32_MAX) {
                out.hops[u] = out.hops[v] + 1;
                queue.push_back(u);
            }
        }
    }
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (out.hops[v] == out.depth) {
            out.farthest = v;
            break;
        }
    }
    return out;
}

// ---------------------------------------------------------------
// Determinism: byte-identical GraphStats for any thread count.
// ---------------------------------------------------------------

class PropsMeasureDeterminism
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PropsMeasureDeterminism, UniformKroneckerAndDisconnected)
{
    // Sized so the degree sweep and mid-BFS levels clear the
    // kParallelGrain threshold and genuinely fan out.
    const Graph graphs[] = {
        generateUniformRandom(20000, 120000, 7),
        generateRmat(15, 8.0, 9),
        disconnectedGraph(),
        directedChain(600),
    };
    for (const Graph &g : graphs) {
        MeasureOptions serial;
        serial.threads = 1;
        MeasureOptions fanned;
        fanned.threads = GetParam();
        EXPECT_TRUE(statsBitEqual(measureGraph(g, serial),
                                  measureGraph(g, fanned)));
    }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PropsMeasureDeterminism,
                         ::testing::Values(1, 2, 8));

TEST(PropsMeasureDeterminism, SharedPoolMatchesSerial)
{
    Graph g = generateRmat(11, 10.0, 3);
    MeasureOptions serial;
    serial.threads = 1;
    MeasureOptions shared; // threads = 0: shared pool
    EXPECT_TRUE(statsBitEqual(measureGraph(g, serial),
                              measureGraph(g, shared)));
}

TEST(PropsMeasureDeterminism, ConcurrentSharedPoolMatchesSerial)
{
    // Eight measurements share the pool at once (threads = 0), mixing
    // a graph whose sweeps stay serial (below kParallelGrain) with
    // one whose sweeps fan out: each must equal its serial result.
    const Graph graphs[] = {
        generateMesh(1024, 4, 11),
        generateRmat(14, 8.0, 13),
    };
    ASSERT_LT(graphs[0].numVertices(), kParallelGrain);
    ASSERT_GE(graphs[1].numVertices(), kParallelGrain);
    MeasureOptions serial;
    serial.threads = 1;
    const GraphStats expected[] = {measureGraph(graphs[0], serial),
                                   measureGraph(graphs[1], serial)};

    constexpr std::size_t kThreads = 8;
    std::vector<GraphStats> results(2 * kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (std::size_t k = 0; k < 2; ++k)
                results[2 * t + k] =
                    measureGraph(graphs[(t + k) % 2], MeasureOptions{});
        });
    for (std::thread &thread : threads)
        thread.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        for (std::size_t k = 0; k < 2; ++k)
            EXPECT_TRUE(statsBitEqual(results[2 * t + k],
                                      expected[(t + k) % 2]))
                << "thread " << t << " measurement " << k;
}

TEST(PropsMeasureDeterminism, MatchesLegacyOverload)
{
    Graph g = generateUniformRandom(2000, 16000, 5);
    MeasureOptions options;
    options.sweeps = 4;
    options.seed = 1;
    EXPECT_TRUE(statsBitEqual(measureGraph(g), measureGraph(g, options)));
}

// ---------------------------------------------------------------
// Flat BFS: hop correctness, bottom-up levels, farthest tracking.
// ---------------------------------------------------------------

TEST(PropsFlatBfs, BottomUpHopsMatchTopDown)
{
    // Dense enough that the direction switch actually fires.
    const Graph graphs[] = {
        generateDenseEr(500, 0.3, 11),
        generateRmat(10, 16.0, 13),
    };
    ThreadPool pool(2);
    for (const Graph &g : graphs) {
        ASSERT_TRUE(hasSymmetricAdjacency(g));
        for (VertexId source : {VertexId{0}, g.numVertices() / 2}) {
            auto expected = bfsHops(g, source); // serial, top-down

            std::vector<uint32_t> hops(g.numVertices(), UINT32_MAX);
            FrontierScratch scratch;
            scratch.prepare(g.numVertices());
            scratch.clearVisited();
            BfsOptions options;
            options.allowBottomUp = true;
            options.pool = &pool;
            flatBfs(g, source, scratch, hops.data(), options);
            EXPECT_EQ(hops, expected);
        }
    }
}

TEST(PropsFlatBfs, SerialAndPooledLevelsMatchQueueBfs)
{
    // The star's leaf level is wider than one kFrontierChunk but far
    // below kParallelGrain, so it always runs serially. RMAT-15's
    // middle levels carry more than kParallelGrain work, so with the
    // pool they take the chunked claimBit path. Top-down only.
    const Graph star = generateStar(3001);
    ASSERT_GT(star.degree(0), kFrontierChunk);
    ASSERT_LT(star.numEdges(), kParallelGrain);
    const Graph rmat = generateRmat(15, 8.0, 43);
    ASSERT_GT(rmat.numEdges(), 4 * kParallelGrain);

    ThreadPool pool(2);
    const std::pair<const Graph *, VertexId> runs[] = {
        {&star, 0},
        {&star, 1234},
        {&rmat, 0},
        {&rmat, rmat.numVertices() / 2},
    };
    for (const auto &[g, source] : runs) {
        const QueueBfs expected = queueBfs(*g, source);
        for (ThreadPool *fan : {static_cast<ThreadPool *>(nullptr),
                                &pool}) {
            std::vector<uint32_t> hops(g->numVertices(), UINT32_MAX);
            FrontierScratch scratch;
            scratch.prepare(g->numVertices());
            scratch.clearVisited();
            BfsOptions options;
            options.pool = fan;
            const BfsResult got =
                flatBfs(*g, source, scratch, hops.data(), options);
            EXPECT_EQ(hops, expected.hops);
            EXPECT_EQ(got.depth, expected.depth);
            EXPECT_EQ(got.farthest, expected.farthest);
            EXPECT_EQ(got.reached, expected.reached);
        }
    }
}

TEST(PropsFlatBfs, FarthestIsMinIdOfDeepestLevel)
{
    // Star of paths: 0 joined to four arms; two arms tie for the
    // deepest level, and the min-id tip must win.
    GraphBuilder builder(10);
    builder.addEdge(0, 1); // arm A: 1
    builder.addEdge(0, 2); // arm B: 2 - 3
    builder.addEdge(2, 3);
    builder.addEdge(0, 4); // arm C: 4 - 5 - 6
    builder.addEdge(4, 5);
    builder.addEdge(5, 6);
    builder.addEdge(0, 7); // arm D: 7 - 8 - 9
    builder.addEdge(7, 8);
    builder.addEdge(8, 9);
    Graph g = builder.symmetrize().build();

    FrontierScratch scratch;
    scratch.prepare(g.numVertices());
    scratch.clearVisited();
    BfsResult result = flatBfs(g, 0, scratch, nullptr);
    EXPECT_EQ(result.depth, 3u);
    EXPECT_EQ(result.farthest, 6u); // deepest level {6, 9}: min wins
    EXPECT_EQ(result.reached, 10u);

    scratch.clearVisited();
    BfsResult from_three = flatBfs(g, 3, scratch, nullptr);
    EXPECT_EQ(from_three.depth, 5u);
    EXPECT_EQ(from_three.farthest, 6u); // hop-5 level {6, 9}
}

TEST(PropsFlatBfs, IsolatedSourceReachesOnlyItself)
{
    Graph g = disconnectedGraph();
    FrontierScratch scratch;
    scratch.prepare(g.numVertices());
    scratch.clearVisited();
    BfsResult result = flatBfs(g, 60, scratch, nullptr);
    EXPECT_EQ(result.depth, 0u);
    EXPECT_EQ(result.farthest, 60u);
    EXPECT_EQ(result.reached, 1u);
}

TEST(PropsFlatBfs, VisitedBitmapPersistsAcrossRuns)
{
    Graph g = disconnectedGraph();
    FrontierScratch scratch;
    scratch.prepare(g.numVertices());
    scratch.clearVisited();
    flatBfs(g, 0, scratch, nullptr);
    EXPECT_TRUE(scratch.isVisited(9));
    EXPECT_FALSE(scratch.isVisited(20));
    // Without clearVisited, the next flood claims only its component.
    BfsResult second = flatBfs(g, 20, scratch, nullptr);
    EXPECT_EQ(second.reached, 10u);
}

// ---------------------------------------------------------------
// Serial eccentricity probe: the small-graph diameter kernel must
// return flatBfs's depth, farthest and reached from every source.
// ---------------------------------------------------------------

TEST(PropsEccentricityProbe, MatchesFlatBfsFromEverySource)
{
    const Graph graphs[] = {
        generateMesh(1024, 4, 100),
        generatePreferentialAttachment(1024, 4, 101),
        generateRoadGrid(32, 32, 102),
        directedRandom(1024, 3072, 103), // asymmetric
        disconnectedGraph(),             // paths + isolated sources
        generatePath(2),
    };
    ASSERT_FALSE(hasSymmetricAdjacency(graphs[3]));
    for (const Graph &g : graphs) {
        FrontierScratch scratch;
        ProbeScratch probe; // reused across sources, as in a sweep
        for (VertexId source = 0; source < g.numVertices(); ++source) {
            scratch.clearVisited();
            const BfsResult expected =
                flatBfs(g, source, scratch, nullptr);
            const BfsResult got = eccentricityProbe(g, source, probe);
            ASSERT_EQ(got.depth, expected.depth) << "source " << source;
            ASSERT_EQ(got.farthest, expected.farthest)
                << "source " << source;
            ASSERT_EQ(got.reached, expected.reached)
                << "source " << source;
        }
    }
}

TEST(PropsEccentricityProbe, FarthestIsMinIdOfDeepestLevel)
{
    // Three arms from 0 whose tips enter the queue as 8, 7, 9: the
    // min id is neither the first nor the last of the deepest level.
    GraphBuilder builder(10);
    for (auto [a, b, c] : {std::array<VertexId, 3>{1, 4, 8},
                           std::array<VertexId, 3>{2, 5, 7},
                           std::array<VertexId, 3>{3, 6, 9}}) {
        builder.addEdge(0, a);
        builder.addEdge(a, b);
        builder.addEdge(b, c);
    }
    Graph g = builder.symmetrize().build();
    ProbeScratch probe;
    const BfsResult result = eccentricityProbe(g, 0, probe);
    EXPECT_EQ(result.depth, 3u);
    EXPECT_EQ(result.farthest, 7u);
    EXPECT_EQ(result.reached, 10u);
}

/**
 * measureGraph outputs recorded before the serial probe existed, on
 * graphs on both sides of the probe's V + E < kParallelGrain gate
 * (churn-sized 1k inputs, then mesh, PA, road and directed pairs
 * straddling the grain), at three probe seeds. Doubles are exact.
 */
TEST(PropsGolden, MeasureGraphPinnedAcrossTheGrain)
{
    const Graph graphs[] = {
        generateMesh(1024, 4, 100),
        generatePreferentialAttachment(1024, 4, 101),
        generateRoadGrid(32, 32, 102),
        directedRandom(1024, 3072, 103),
        generateMesh(3278, 4, 5),                  // V+E 16382
        generateMesh(3279, 4, 5),                  // V+E 16385
        generatePreferentialAttachment(1840, 4, 5), // V+E 16376
        generatePreferentialAttachment(1841, 4, 5), // V+E 16385
        generateRoadGrid(103, 32, 5),              // V+E 16340
        generateRoadGrid(104, 32, 5),              // V+E 16498
        directedRandom(3000, 13000, 7),            // V+E 16000
        directedRandom(3000, 14000, 7),            // V+E 17000
    };
    // Graphs 0-3 and every even index from 4 sit below the grain.
    for (std::size_t i = 0; i < std::size(graphs); ++i) {
        const bool below = i < 4 || i % 2 == 0;
        EXPECT_EQ(graphs[i].numVertices() + graphs[i].numEdges() <
                      kParallelGrain,
                  below)
            << "graph " << i;
    }

    struct Golden {
        std::size_t graph;
        uint64_t seed;
        GraphStats stats;
    };
    // {V, E, maxDegree, avgDegree, diameter, degreeStddev, footprint}
    const Golden goldens[] = {
        {0, 1, {1024, 4090, 11, 0x1.ff4p+1, 8, 0x1.023c602123e75p+0, 40920}},
        {0, 23, {1024, 4090, 11, 0x1.ff4p+1, 9, 0x1.023c602123e75p+0, 40920}},
        {0, 29, {1024, 4090, 11, 0x1.ff4p+1, 8, 0x1.023c602123e75p+0, 40920}},
        {1, 1, {1024, 8064, 165, 0x1.f8p+2, 5, 0x1.25c7614bd5ad9p+3, 72712}},
        {1, 23, {1024, 8064, 165, 0x1.f8p+2, 5, 0x1.25c7614bd5ad9p+3, 72712}},
        {1, 29, {1024, 8064, 165, 0x1.f8p+2, 5, 0x1.25c7614bd5ad9p+3, 72712}},
        {2, 1, {1024, 4008, 5, 0x1.f5p+1, 56, 0x1.97d7d5ddbe3b1p-2, 40264}},
        {2, 23, {1024, 4008, 5, 0x1.f5p+1, 62, 0x1.97d7d5ddbe3b1p-2, 40264}},
        {2, 29, {1024, 4008, 5, 0x1.f5p+1, 62, 0x1.97d7d5ddbe3b1p-2, 40264}},
        {3, 1, {1024, 3072, 11, 0x1.8p+1, 10, 0x1.a6b70c7877dbfp+0, 32776}},
        {3, 23, {1024, 3072, 11, 0x1.8p+1, 11, 0x1.a6b70c7877dbfp+0, 32776}},
        {3, 29, {1024, 3072, 11, 0x1.8p+1, 15, 0x1.a6b70c7877dbfp+0, 32776}},
        {4, 1, {3278, 13104, 9, 0x1.ffb0077f4c10ep+1, 9, 0x1.00ef47b7fbac5p+0, 131064}},
        {4, 23, {3278, 13104, 9, 0x1.ffb0077f4c10ep+1, 9, 0x1.00ef47b7fbac5p+0, 131064}},
        {4, 29, {3278, 13104, 9, 0x1.ffb0077f4c10ep+1, 10, 0x1.00ef47b7fbac5p+0, 131064}},
        {5, 1, {3279, 13106, 8, 0x1.ff9c112d0c41ep+1, 10, 0x1.fcc95becee2bep-1, 131088}},
        {5, 23, {3279, 13106, 8, 0x1.ff9c112d0c41ep+1, 9, 0x1.fcc95becee2bep-1, 131088}},
        {5, 29, {3279, 13106, 8, 0x1.ff9c112d0c41ep+1, 9, 0x1.fcc95becee2bep-1, 131088}},
        {6, 1, {1840, 14536, 256, 0x1.f99999999999ap+2, 5, 0x1.485920614faf7p+3, 131016}},
        {6, 23, {1840, 14536, 256, 0x1.f99999999999ap+2, 5, 0x1.485920614faf7p+3, 131016}},
        {6, 29, {1840, 14536, 256, 0x1.f99999999999ap+2, 5, 0x1.485920614faf7p+3, 131016}},
        {7, 1, {1841, 14544, 256, 0x1.f99a7d6d6fa94p+2, 5, 0x1.484bd6c6850a8p+3, 131088}},
        {7, 23, {1841, 14544, 256, 0x1.f99a7d6d6fa94p+2, 5, 0x1.484bd6c6850a8p+3, 131088}},
        {7, 29, {1841, 14544, 256, 0x1.f99a7d6d6fa94p+2, 5, 0x1.484bd6c6850a8p+3, 131088}},
        {8, 1, {3296, 13044, 6, 0x1.fa9027c45979dp+1, 133, 0x1.612a833aa004ap-2, 130728}},
        {8, 23, {3296, 13044, 6, 0x1.fa9027c45979dp+1, 133, 0x1.612a833aa004ap-2, 130728}},
        {8, 29, {3296, 13044, 6, 0x1.fa9027c45979dp+1, 133, 0x1.612a833aa004ap-2, 130728}},
        {9, 1, {3328, 13170, 6, 0x1.fa89d89d89d8ap+1, 134, 0x1.6133cdb30e758p-2, 131992}},
        {9, 23, {3328, 13170, 6, 0x1.fa89d89d89d8ap+1, 134, 0x1.6133cdb30e758p-2, 131992}},
        {9, 29, {3328, 13170, 6, 0x1.fa89d89d89d8ap+1, 134, 0x1.6133cdb30e758p-2, 131992}},
        {10, 1, {3000, 13000, 13, 0x1.1555555555555p+2, 10, 0x1.0d121d87d2f8ap+1, 128008}},
        {10, 23, {3000, 13000, 13, 0x1.1555555555555p+2, 9, 0x1.0d121d87d2f8ap+1, 128008}},
        {10, 29, {3000, 13000, 13, 0x1.1555555555555p+2, 10, 0x1.0d121d87d2f8ap+1, 128008}},
        {11, 1, {3000, 14000, 14, 0x1.2aaaaaaaaaaabp+2, 9, 0x1.16fee1d7980c1p+1, 136008}},
        {11, 23, {3000, 14000, 14, 0x1.2aaaaaaaaaaabp+2, 10, 0x1.16fee1d7980c1p+1, 136008}},
        {11, 29, {3000, 14000, 14, 0x1.2aaaaaaaaaaabp+2, 9, 0x1.16fee1d7980c1p+1, 136008}},
    };
    for (const Golden &golden : goldens) {
        MeasureOptions options;
        options.seed = golden.seed;
        for (std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
            options.threads = threads;
            EXPECT_TRUE(statsBitEqual(
                measureGraph(graphs[golden.graph], options),
                golden.stats))
                << "graph " << golden.graph << " seed " << golden.seed
                << " threads " << threads;
        }
    }
}

TEST(PropsSymmetry, DetectsSymmetricAndDirectedAdjacency)
{
    EXPECT_TRUE(hasSymmetricAdjacency(generateCycle(16)));
    EXPECT_TRUE(hasSymmetricAdjacency(disconnectedGraph()));
    EXPECT_FALSE(hasSymmetricAdjacency(directedChain(8)));
    EXPECT_TRUE(hasSymmetricAdjacency(Graph{}));
    EXPECT_TRUE(hasSymmetricAdjacency(generateRmat(12, 8.0, 21)));
}

TEST(PropsSymmetry, LinearCheckMatchesBinarySearchOnPerturbations)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        const Graph graphs[] = {
            generateMesh(1024, 4, seed),
            generatePreferentialAttachment(1024, 4, seed),
            generateRoadGrid(32, 32, seed),
            generateRmat(10, 8.0, seed),
            disconnectedGraph(),
        };
        for (const Graph &g : graphs) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " V=" << g.numVertices()
                         << " E=" << g.numEdges());
            ASSERT_TRUE(binarySearchSymmetric(g));
            EXPECT_TRUE(hasSymmetricAdjacency(g));
            const auto lists = adjacencyLists(g);
            const auto check = [](const Graph &perturbed,
                                  bool expected) {
                EXPECT_EQ(binarySearchSymmetric(perturbed), expected);
                EXPECT_EQ(hasSymmetricAdjacency(perturbed), expected);
            };
            // Drop the reverse of arc v->u: v leaves N(u).
            const auto drop_reverse = [&](VertexId v, VertexId u) {
                auto cut = lists;
                cut[u].erase(
                    std::find(cut[u].begin(), cut[u].end(), v));
                return graphFromLists(cut);
            };

            // The generators emit no self-loops, so every arc here
            // joins two distinct vertices.
            Rng rng(seed * 977 + g.numEdges());
            VertexId v = 0;
            do {
                v = static_cast<VertexId>(
                    rng.nextBounded(g.numVertices()));
            } while (lists[v].empty());
            const VertexId u =
                lists[v][rng.nextBounded(lists[v].size())];
            ASSERT_NE(u, v);
            check(drop_reverse(v, u), false);

            // The last vertex with neighbors, both arc directions.
            VertexId last = g.numVertices() - 1;
            while (lists[last].empty())
                --last;
            const VertexId near = lists[last].front();
            ASSERT_NE(near, last);
            check(drop_reverse(last, near), false);
            check(drop_reverse(near, last), false);

            // Self-loops are their own reverse arcs.
            auto looped = lists;
            for (int k = 0; k < 8; ++k) {
                const auto w = static_cast<VertexId>(
                    rng.nextBounded(g.numVertices()));
                auto &list = looped[w];
                const auto at =
                    std::lower_bound(list.begin(), list.end(), w);
                if (at == list.end() || *at != w)
                    list.insert(at, w);
            }
            check(graphFromLists(looped), true);

            // One list out of order: the cursors can no longer meet
            // the ascending sources, so the check must say false.
            auto unsorted = lists;
            VertexId w = static_cast<VertexId>(
                rng.nextBounded(g.numVertices()));
            while (unsorted[w].size() < 2)
                w = (w + 1) % g.numVertices();
            std::reverse(unsorted[w].begin(), unsorted[w].end());
            EXPECT_FALSE(hasSymmetricAdjacency(graphFromLists(unsorted)));
        }
    }
}

TEST(PropsSymmetry, MultigraphCountsMultiplicity)
{
    // 0 -> 1 twice, 1 -> 0 once: each arc needs its own reverse.
    const Graph unmirrored = graphFromLists({{1, 1}, {0}});
    EXPECT_FALSE(hasSymmetricAdjacency(unmirrored));
    EXPECT_TRUE(binarySearchSymmetric(unmirrored)); // blind to it
    EXPECT_TRUE(hasSymmetricAdjacency(graphFromLists({{1, 1}, {0, 0}})));
}

TEST(PropsRegression, ComponentAndDiameterSemanticsUnchanged)
{
    EXPECT_EQ(countComponents(disconnectedGraph()), 46u); // 2 + 44
    EXPECT_EQ(approximateDiameter(generatePath(33), 4, 1), 32u);
    EXPECT_EQ(approximateDiameter(generateComplete(8), 4, 1), 1u);
    // Directed chain: hops follow out-arcs only, as before.
    auto hops = bfsHops(directedChain(5), 2);
    EXPECT_EQ(hops[4], 2u);
    EXPECT_EQ(hops[0], UINT32_MAX);
}

// ---------------------------------------------------------------
// Blocked stats sweep: byte-identical for any thread count AND any
// blocking factor (exact integer partials, one FP finalization).
// ---------------------------------------------------------------

TEST(PropsBlockedSweep, BlockingFactorNeverChangesStats)
{
    const Graph graphs[] = {
        generateUniformRandom(20000, 120000, 7),
        generateRmat(13, 8.0, 9),
        disconnectedGraph(),
        directedChain(600),
    };
    const std::size_t thread_counts[] = {1, 2, 8};
    const std::size_t blocks[] = {0, 1, 7, 64, 1000000};
    for (const Graph &g : graphs) {
        MeasureOptions reference;
        reference.threads = 1;
        const GraphStats expected = measureGraph(g, reference);
        for (std::size_t threads : thread_counts) {
            for (std::size_t block : blocks) {
                MeasureOptions options;
                options.threads = threads;
                options.statsBlock = block;
                EXPECT_TRUE(statsBitEqual(measureGraph(g, options),
                                          expected))
                    << "threads=" << threads << " block=" << block;
            }
        }
    }
}

TEST(PropsBlockedSweep, UniformDegreeStddevIsExactlyZero)
{
    // The integer variance expansion must cancel exactly on uniform
    // degrees, not just approximately.
    for (std::size_t block : {std::size_t{0}, std::size_t{3}}) {
        MeasureOptions options;
        options.statsBlock = block;
        EXPECT_DOUBLE_EQ(
            measureGraph(generateCycle(4096), options).degreeStddev,
            0.0);
    }
}

// ---------------------------------------------------------------
// Model-driven traversal selection: the plan steers only the
// schedule; outputs are identical to any fixed-threshold run.
// ---------------------------------------------------------------

TEST(PropsTraversalPlan, PolicyMatchesGraphShape)
{
    // Road-like sparse graph: bottom-up ruled out entirely.
    TraversalPlan road = planTraversal(1000, 1200, 1.2, 0.4);
    EXPECT_FALSE(road.useBottomUp);

    // Skewed power-law graph: eager switch, bitmap frontiers.
    TraversalPlan rmat = planTraversal(8192, 65536, 8.0, 24.0);
    EXPECT_TRUE(rmat.useBottomUp);
    EXPECT_TRUE(rmat.bitmapFrontier);
    EXPECT_NE(rmat.bottomUpEdgeDivisor, kBottomUpEdgeDivisor);

    // Moderate uniform graph: stock Beamer thresholds.
    TraversalPlan uniform = planTraversal(10000, 60000, 6.0, 0.5);
    EXPECT_TRUE(uniform.useBottomUp);
    EXPECT_FALSE(uniform.bitmapFrontier);
    EXPECT_EQ(uniform.bottomUpEdgeDivisor, kBottomUpEdgeDivisor);

    // Degenerate graphs never claim bottom-up.
    EXPECT_FALSE(planTraversal(1, 0, 0.0, 0.0).useBottomUp);
}

TEST(PropsTraversalPlan, PlanDrivenBfsMatchesFixedThresholds)
{
    const Graph graphs[] = {
        generateRmat(12, 8.0, 31),   // skewed: plan goes bitmap
        generateDenseEr(500, 0.3, 11),
        generatePath(4000),          // plan disables bottom-up
    };
    ThreadPool pool(2);
    for (const Graph &g : graphs) {
        const GraphStats stats = measureGraph(g, 0, 1);
        const TraversalPlan plan =
            planTraversal(stats.numVertices, stats.numEdges,
                          stats.avgDegree, stats.degreeStddev);
        const bool symmetric = hasSymmetricAdjacency(g);

        BfsOptions fixed; // stock thresholds, array frontiers
        fixed.allowBottomUp = symmetric;
        BfsOptions planned;
        planned.allowBottomUp = symmetric && plan.useBottomUp;
        planned.bottomUpEdgeDivisor = plan.bottomUpEdgeDivisor;
        planned.topDownSizeDivisor = plan.topDownSizeDivisor;
        planned.bitmapFrontier = plan.bitmapFrontier;
        planned.pool = &pool;

        for (VertexId source : {VertexId{0}, g.numVertices() / 2}) {
            std::vector<uint32_t> expected_hops(g.numVertices(),
                                                UINT32_MAX);
            std::vector<uint32_t> hops(g.numVertices(), UINT32_MAX);
            FrontierScratch scratch;
            scratch.prepare(g.numVertices());

            scratch.clearVisited();
            BfsResult expected = flatBfs(g, source, scratch,
                                         expected_hops.data(), fixed);
            scratch.clearVisited();
            BfsResult got =
                flatBfs(g, source, scratch, hops.data(), planned);

            EXPECT_EQ(got.depth, expected.depth);
            EXPECT_EQ(got.farthest, expected.farthest);
            EXPECT_EQ(got.reached, expected.reached);
            EXPECT_EQ(hops, expected_hops);
        }
    }
}

TEST(PropsFlatBfs, BitmapFrontierMatchesArrayFrontier)
{
    // Force bitmap mode on its own (independent of the plan) against
    // the stock array path, including the narrow->wide->narrow
    // transition in and out of bit form.
    Graph g = generateRmat(11, 16.0, 41);
    ASSERT_TRUE(hasSymmetricAdjacency(g));
    BfsOptions array_opts;
    array_opts.allowBottomUp = true;
    BfsOptions bitmap_opts = array_opts;
    bitmap_opts.bitmapFrontier = true;

    std::vector<uint32_t> a(g.numVertices(), UINT32_MAX);
    std::vector<uint32_t> b(g.numVertices(), UINT32_MAX);
    FrontierScratch scratch;
    scratch.prepare(g.numVertices());
    scratch.clearVisited();
    BfsResult ra = flatBfs(g, 0, scratch, a.data(), array_opts);
    scratch.clearVisited();
    BfsResult rb = flatBfs(g, 0, scratch, b.data(), bitmap_opts);
    EXPECT_EQ(ra.depth, rb.depth);
    EXPECT_EQ(ra.farthest, rb.farthest);
    EXPECT_EQ(ra.reached, rb.reached);
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------
// Fingerprints and the memo cache.
// ---------------------------------------------------------------

TEST(PropsFingerprint, SameCountsDifferentStructureDiffer)
{
    // Path and star on 4 vertices: identical V and arc counts.
    GraphBuilder path_builder(4);
    path_builder.addEdge(0, 1);
    path_builder.addEdge(1, 2);
    path_builder.addEdge(2, 3);
    Graph path = path_builder.symmetrize().build();

    GraphBuilder star_builder(4);
    star_builder.addEdge(0, 1);
    star_builder.addEdge(0, 2);
    star_builder.addEdge(0, 3);
    Graph star = star_builder.symmetrize().build();

    ASSERT_EQ(path.numVertices(), star.numVertices());
    ASSERT_EQ(path.numEdges(), star.numEdges());
    EXPECT_FALSE(path.fingerprint() == star.fingerprint());
}

TEST(PropsFingerprint, SingleEdgeChangeChangesFingerprint)
{
    Graph base = generateUniformRandom(200, 800, 3);
    GraphBuilder builder(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        for (VertexId u : base.neighbors(v))
            builder.addEdge(v, u);
    // Redirect one arc; counts stay identical.
    Graph tweaked = [&] {
        GraphBuilder other(base.numVertices());
        bool flipped = false;
        for (VertexId v = 0; v < base.numVertices(); ++v) {
            for (VertexId u : base.neighbors(v)) {
                VertexId target = u;
                if (!flipped) {
                    target = (u + 1) % base.numVertices();
                    flipped = true;
                }
                other.addEdge(v, target);
            }
        }
        return other.build();
    }();
    ASSERT_EQ(base.numEdges(), tweaked.numEdges());
    EXPECT_FALSE(base.fingerprint() == tweaked.fingerprint());
}

TEST(PropsFingerprint, ContentBasedAcrossCopies)
{
    Graph g = generateRmat(8, 6.0, 17);
    // A separately constructed Graph over the same arrays, not a
    // member-wise copy of the stored fingerprint.
    std::vector<float> weights;
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        weights.push_back(g.edgeWeight(e));
    const Graph rebuilt(g.offsets(), g.rawNeighbors(), weights);
    EXPECT_TRUE(g.fingerprint() == rebuilt.fingerprint());
}

TEST(PropsFingerprint, SmallWeightedGraphIsPinned)
{
    // Arrays this small were always hashed in full; the values are
    // the ones every earlier scheme produced, so routing is stable.
    const Graph road = generateRoadGrid(8, 8, 3);
    EXPECT_EQ(mixFingerprint(road.fingerprint()), 0x16567fdda2ed9f99ull);
    EXPECT_EQ(road.weightsHash(), 0xfc18b761d9cd580aull);
}

TEST(PropsFingerprint, EveryArcAndWeightCounts)
{
    // 12,000 arcs: a hash that strides over large arrays (every
    // second element at this size) never reads arc 1.
    constexpr VertexId kVertices = 3000;
    std::vector<EdgeId> offsets{0};
    std::vector<VertexId> neighbors;
    for (VertexId v = 0; v < kVertices; ++v) {
        for (VertexId step = 1; step <= 4; ++step)
            neighbors.push_back((v + step) % kVertices);
        offsets.push_back(neighbors.size());
    }
    const std::vector<float> weights(neighbors.size(), 1.0f);
    const Graph base(offsets, neighbors, weights);
    ASSERT_GT(base.numEdges(), 8192u);

    std::vector<VertexId> redirected = neighbors;
    redirected[1] = (redirected[1] + kVertices / 2) % kVertices;
    const Graph moved(offsets, redirected, weights);
    EXPECT_FALSE(moved.fingerprint() == base.fingerprint());

    std::vector<float> reweighted = weights;
    reweighted[1] = 2.0f;
    const Graph twin(offsets, neighbors, reweighted);
    EXPECT_TRUE(twin.fingerprint() == base.fingerprint());
    EXPECT_NE(twin.weightsHash(), base.weightsHash());
}

TEST(PropsStatsCache, HitMissAndValueCorrectness)
{
    GraphStatsCache cache(8);
    Graph g = generateUniformRandom(1000, 6000, 5);

    bool hit = true;
    GraphStats cold = cache.measure(g, {}, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_TRUE(statsBitEqual(cold, measureGraph(g)));

    GraphStats warm = cache.measure(g, {}, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_TRUE(statsBitEqual(cold, warm));

    // A structural copy hits: the key is content, not identity.
    Graph copy = g;
    hit = false;
    cache.measure(copy, {}, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(PropsStatsCache, CollisionSafetyServesEachGraphItsOwnStats)
{
    GraphStatsCache cache(8);
    Graph path = generatePath(4);
    GraphBuilder star_builder(4);
    star_builder.addEdge(0, 1);
    star_builder.addEdge(0, 2);
    star_builder.addEdge(0, 3);
    Graph star = star_builder.symmetrize().build();
    ASSERT_EQ(path.numVertices(), star.numVertices());
    ASSERT_EQ(path.numEdges(), star.numEdges());

    EXPECT_EQ(cache.measure(path).maxDegree, 2u);
    EXPECT_EQ(cache.measure(star).maxDegree, 3u);
    EXPECT_EQ(cache.measure(path).diameter, 3u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(PropsStatsCache, MeasurementParametersArePartOfTheKey)
{
    GraphStatsCache cache(8);
    Graph g = generateCycle(64);
    MeasureOptions with_sweeps;
    MeasureOptions no_sweeps;
    no_sweeps.sweeps = 0;

    EXPECT_EQ(cache.measure(g, with_sweeps).diameter, 32u);
    EXPECT_EQ(cache.measure(g, no_sweeps).diameter, 0u);
    EXPECT_EQ(cache.misses(), 2u);

    MeasureOptions other_seed;
    other_seed.seed = 99;
    cache.measure(g, other_seed);
    EXPECT_EQ(cache.misses(), 3u);
}

TEST(PropsStatsCache, LruEvictionAtCapacity)
{
    GraphStatsCache cache(2);
    Graph g1 = generateCycle(10);
    Graph g2 = generateCycle(12);
    Graph g3 = generateCycle(14);

    cache.measure(g1);
    cache.measure(g2);
    EXPECT_EQ(cache.evictions(), 0u);
    cache.measure(g1); // refresh g1: g2 becomes LRU
    cache.measure(g3); // evicts g2
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.size(), 2u);

    EXPECT_TRUE(cache.peek(g1).has_value());
    EXPECT_FALSE(cache.peek(g2).has_value());
    EXPECT_TRUE(cache.peek(g3).has_value());

    cache.measure(g2); // miss again after eviction
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(PropsStatsCache, ConcurrentMissesConverge)
{
    GraphStatsCache cache(8);
    Graph g = generateRmat(10, 8.0, 29);
    const GraphStats expected = measureGraph(g);

    // Collect in workers, assert on the main thread.
    std::vector<GraphStats> results(8);
    std::vector<char> told_hit(8, 0);
    ThreadPool pool(4);
    pool.parallelFor(8, [&](std::size_t i) {
        MeasureOptions serial_inner;
        serial_inner.threads = 1; // no nested pools inside workers
        bool hit = false;
        results[i] = cache.measure(g, serial_inner, &hit);
        told_hit[i] = hit;
    });
    for (const GraphStats &stats : results)
        EXPECT_TRUE(statsBitEqual(stats, expected));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits() + cache.misses(), 8u);
    // Each caller's flag agrees with the counters: a racing miss that
    // finds another's entry on insert is still told "miss".
    EXPECT_EQ(static_cast<uint64_t>(
                  std::count(told_hit.begin(), told_hit.end(), 1)),
              cache.hits());
}

TEST(PropsStatsCache, GlobalCacheIsWiredAndMemoizes)
{
    GraphStatsCache &cache = globalStatsCache();
    Graph g = generateUniformRandom(500, 3000, 23);
    const uint64_t hits_before = cache.hits();
    GraphStats first = cache.measure(g);
    GraphStats second = cache.measure(g);
    EXPECT_TRUE(statsBitEqual(first, second));
    EXPECT_GE(cache.hits(), hits_before + 1);
}

} // namespace
} // namespace heteromap
