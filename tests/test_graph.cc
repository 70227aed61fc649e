/**
 * @file
 * Unit tests for the CSR graph, builder, properties, and I/O.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/graph.hh"
#include "graph/io.hh"
#include "graph/props.hh"
#include "util/logging.hh"

namespace heteromap {
namespace {

TEST(GraphTest, EmptyGraph)
{
    Graph g;
    EXPECT_EQ(g.numVertices(), 0u);
    EXPECT_EQ(g.numEdges(), 0u);
}

TEST(GraphTest, BuilderProducesSortedCsr)
{
    GraphBuilder builder(4);
    builder.addEdge(0, 3);
    builder.addEdge(0, 1);
    builder.addEdge(2, 0);
    Graph g = builder.build();

    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 3u);
    ASSERT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.neighbors(0)[0], 1u);
    EXPECT_EQ(g.neighbors(0)[1], 3u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 1u);
    EXPECT_EQ(g.neighbors(2)[0], 0u);
}

TEST(GraphTest, BuilderRejectsOutOfRangeEndpoints)
{
    GraphBuilder builder(2);
    EXPECT_THROW(builder.addEdge(0, 2), PanicError);
    EXPECT_THROW(builder.addEdge(5, 0), PanicError);
}

TEST(GraphTest, SymmetrizeAddsReverseArcs)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1);
    Graph g = builder.symmetrize().build();
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.neighbors(1)[0], 0u);
}

TEST(GraphTest, DedupDropsParallelArcs)
{
    GraphBuilder builder(2);
    builder.addEdge(0, 1, 5.0f);
    builder.addEdge(0, 1, 9.0f);
    Graph g = builder.dedup().build();
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_FLOAT_EQ(g.edgeWeight(0), 5.0f);
}

TEST(GraphTest, DropSelfLoops)
{
    GraphBuilder builder(2);
    builder.addEdge(0, 0);
    builder.addEdge(0, 1);
    Graph g = builder.dropSelfLoops().build();
    EXPECT_EQ(g.numEdges(), 1u);
}

TEST(GraphTest, RandomWeightsAreSymmetricAndInRange)
{
    GraphBuilder builder(4);
    builder.addEdge(0, 1);
    builder.addEdge(2, 3);
    Graph g =
        builder.symmetrize().randomWeights(99, 1.0f, 8.0f).build();
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        EXPECT_GE(g.edgeWeight(e), 1.0f);
        EXPECT_LT(g.edgeWeight(e), 8.0f);
    }
    // Both arcs of an undirected edge share a weight.
    EXPECT_FLOAT_EQ(g.edgeWeights(0)[0], g.edgeWeights(1)[0]);
}

TEST(GraphTest, UnweightedBuildDefaultsToOne)
{
    GraphBuilder builder(2);
    builder.addEdge(0, 1);
    Graph g = builder.build(/*weighted=*/false);
    EXPECT_FALSE(g.hasWeights());
    EXPECT_FLOAT_EQ(g.edgeWeight(0), 1.0f);
    EXPECT_TRUE(g.edgeWeights(0).empty());
}

TEST(GraphTest, DegreeStatistics)
{
    Graph g = generateStar(5);
    EXPECT_EQ(g.maxDegree(), 4u);
    EXPECT_DOUBLE_EQ(g.avgDegree(), 8.0 / 5.0);
    EXPECT_GT(g.footprintBytes(), 0u);
}

TEST(PropsTest, BfsHopsOnPath)
{
    Graph g = generatePath(5);
    auto hops = bfsHops(g, 0);
    for (VertexId v = 0; v < 5; ++v)
        EXPECT_EQ(hops[v], v);
}

TEST(PropsTest, BfsUnreachableMarked)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1);
    Graph g = builder.symmetrize().build();
    auto hops = bfsHops(g, 0);
    EXPECT_EQ(hops[2], UINT32_MAX);
}

TEST(PropsTest, DiameterExactOnPath)
{
    Graph g = generatePath(33);
    EXPECT_EQ(approximateDiameter(g, 4, 1), 32u);
}

TEST(PropsTest, DiameterOfCompleteGraphIsOne)
{
    Graph g = generateComplete(8);
    EXPECT_EQ(approximateDiameter(g, 4, 1), 1u);
}

TEST(PropsTest, MeasureGraphFillsAllFields)
{
    Graph g = generateCycle(10);
    GraphStats stats = measureGraph(g);
    EXPECT_EQ(stats.numVertices, 10u);
    EXPECT_EQ(stats.numEdges, 20u);
    EXPECT_EQ(stats.maxDegree, 2u);
    EXPECT_DOUBLE_EQ(stats.avgDegree, 2.0);
    EXPECT_EQ(stats.diameter, 5u);
    EXPECT_DOUBLE_EQ(stats.degreeStddev, 0.0);
    EXPECT_FALSE(stats.toString().empty());
}

TEST(PropsTest, ComponentCount)
{
    GraphBuilder builder(6);
    builder.addEdge(0, 1);
    builder.addEdge(2, 3);
    Graph g = builder.symmetrize().build();
    EXPECT_EQ(countComponents(g), 4u); // {0,1}, {2,3}, {4}, {5}
}

TEST(IoTest, RoundTripPreservesStructureAndWeights)
{
    Graph g = generateUniformRandom(50, 200, 3);
    std::stringstream buffer;
    writeEdgeList(g, buffer);
    Graph back = readEdgeList(buffer);

    ASSERT_EQ(back.numVertices(), g.numVertices());
    ASSERT_EQ(back.numEdges(), g.numEdges());
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        auto a = g.neighbors(v);
        auto b = back.neighbors(v);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i], b[i]);
            EXPECT_NEAR(g.edgeWeights(v)[i], back.edgeWeights(v)[i],
                        1e-4);
        }
    }
}

TEST(IoTest, RejectsMissingHeader)
{
    std::stringstream buffer("0 1 1.0\n");
    EXPECT_THROW(readEdgeList(buffer), FatalError);
}

TEST(IoTest, RejectsOutOfRangeVertex)
{
    std::stringstream buffer("vertices 2\n0 7 1.0\n");
    EXPECT_THROW(readEdgeList(buffer), FatalError);
}

TEST(IoTest, SkipsCommentsAndBlankLines)
{
    std::stringstream buffer(
        "# comment\n\nvertices 2\n# another\n0 1 2.5\n");
    Graph g = readEdgeList(buffer);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_FLOAT_EQ(g.edgeWeight(0), 2.5f);
}

TEST(IoTest, MissingWeightDefaultsToOne)
{
    std::stringstream buffer("vertices 2\n0 1\n");
    Graph g = readEdgeList(buffer);
    EXPECT_FLOAT_EQ(g.edgeWeight(0), 1.0f);
}

TEST(IoTest, ToleratesCrlfLineEndings)
{
    std::stringstream buffer("vertices 2\r\n0 1 2.5\r\n");
    Graph g = readEdgeList(buffer);
    EXPECT_EQ(g.numVertices(), 2u);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_FLOAT_EQ(g.edgeWeight(0), 2.5f);
}

TEST(IoTest, RecoverableOutOfRangeCarriesLineNumber)
{
    std::stringstream buffer("vertices 2\n0 1 1.0\n0 7 1.0\n");
    Result<Graph> result = tryReadEdgeList(buffer);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::OutOfRange);
    EXPECT_EQ(result.error().line, 3u);
}

TEST(IoTest, RejectsNegativeVertexIds)
{
    std::stringstream buffer("vertices 4\n-1 2 1.0\n");
    Result<Graph> result = tryReadEdgeList(buffer);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::OutOfRange);
    EXPECT_EQ(result.error().line, 2u);
}

TEST(IoTest, RejectsNegativeWeights)
{
    std::stringstream buffer("vertices 2\n0 1 -3.5\n");
    Result<Graph> result = tryReadEdgeList(buffer);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::OutOfRange);
    EXPECT_EQ(result.error().line, 2u);
    // The throwing wrapper maps the same failure to FatalError.
    std::stringstream again("vertices 2\n0 1 -3.5\n");
    EXPECT_THROW(readEdgeList(again), FatalError);
}

TEST(IoTest, MissingFileIsARecoverableIoError)
{
    Result<Graph> result =
        tryLoadEdgeListFile("/nonexistent/heteromap-no-such-file");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::Io);
}

} // namespace
} // namespace heteromap
