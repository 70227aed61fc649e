/**
 * @file
 * Tests for the synthetic benchmark generator (Fig. 9): generated
 * kernels must honor their B vectors in the measured profile, and the
 * sampler must cover the phase space.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>

#include "graph/generators.hh"
#include "graph/props.hh"
#include "workloads/synthetic.hh"

namespace heteromap {
namespace {

class SyntheticTest : public ::testing::Test
{
  protected:
    static Graph
    graph()
    {
        return generateUniformRandom(500, 3000, 21);
    }
};

TEST_F(SyntheticTest, PhaseMixIsRenormalized)
{
    BVariables b;
    b.b1 = 2.0;
    b.b4 = 2.0;
    SyntheticWorkload workload(b, 1);
    EXPECT_NEAR(workload.bVariables().phaseSum(), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(workload.bVariables().b1, 0.5);
}

TEST_F(SyntheticTest, EmptyPhaseMixDefaultsToVertexDivision)
{
    BVariables b; // all zeros
    SyntheticWorkload workload(b, 2);
    EXPECT_DOUBLE_EQ(workload.bVariables().b1, 1.0);
}

TEST_F(SyntheticTest, GeneratedPhasesMatchPhaseMix)
{
    BVariables b;
    b.b1 = 0.5;
    b.b4 = 0.3;
    b.b5 = 0.2;
    SyntheticWorkload workload(b, 3);
    auto profile = workload.runProfiled(graph()).second;

    EXPECT_NE(profile.findPhase("syn-vertex"), nullptr);
    EXPECT_NE(profile.findPhase("syn-push-pop"), nullptr);
    EXPECT_NE(profile.findPhase("syn-reduce"), nullptr);
    EXPECT_EQ(profile.findPhase("syn-pareto"), nullptr);

    // Work items are proportional to the phase shares.
    auto items = [&](const char *name) {
        return static_cast<double>(profile.findPhase(name)->workItems);
    };
    EXPECT_NEAR(items("syn-vertex") / items("syn-push-pop"),
                0.5 / 0.3, 0.1);
}

TEST_F(SyntheticTest, FpShareTracksB6)
{
    BVariables lo;
    lo.b1 = 1.0;
    lo.b6 = 0.0;
    BVariables hi = lo;
    hi.b6 = 1.0;

    Graph g = graph();
    auto lo_prof = SyntheticWorkload(lo, 4).runProfiled(g).second;
    auto hi_prof = SyntheticWorkload(hi, 4).runProfiled(g).second;

    auto fp_share = [](const WorkloadProfile &prof) {
        double fp = 0.0;
        for (const auto &phase : prof.phases)
            fp += phase.fpOps;
        return fp / prof.totalOps();
    };
    EXPECT_LT(fp_share(lo_prof), 0.05);
    EXPECT_GT(fp_share(hi_prof), 0.4);
}

TEST_F(SyntheticTest, IndirectShareTracksB8)
{
    BVariables direct;
    direct.b1 = 1.0;
    direct.b7 = 1.0;
    BVariables indirect = direct;
    indirect.b7 = 0.0;
    indirect.b8 = 1.0;

    Graph g = graph();
    auto d = SyntheticWorkload(direct, 5).runProfiled(g).second;
    auto i = SyntheticWorkload(indirect, 5).runProfiled(g).second;

    auto indirect_share = [](const WorkloadProfile &prof) {
        double ind = 0.0;
        double all = 0.0;
        for (const auto &phase : prof.phases) {
            ind += phase.indirectAccesses;
            all += phase.totalAccesses();
        }
        return ind / all;
    };
    EXPECT_GT(indirect_share(i), 3.0 * indirect_share(d));
}

TEST_F(SyntheticTest, AtomicsTrackB12)
{
    BVariables calm;
    calm.b1 = 1.0;
    BVariables contended = calm;
    contended.b12 = 0.9;

    Graph g = graph();
    auto c = SyntheticWorkload(calm, 6).runProfiled(g).second;
    auto h = SyntheticWorkload(contended, 6).runProfiled(g).second;
    EXPECT_GT(h.totalAtomics(), 5.0 * (c.totalAtomics() + 1.0));
}

TEST_F(SyntheticTest, BarriersTrackB13)
{
    BVariables few;
    few.b1 = 1.0;
    few.b13 = 0.0;
    BVariables many = few;
    many.b13 = 0.5; // five extra barriers per iteration

    Graph g = graph();
    auto f = SyntheticWorkload(few, 7, 2).runProfiled(g).second;
    auto m = SyntheticWorkload(many, 7, 2).runProfiled(g).second;
    EXPECT_EQ(m.barriers - f.barriers, 2u * 5u);
}

TEST_F(SyntheticTest, DeterministicForSameSeed)
{
    BVariables b;
    b.b1 = 0.6;
    b.b5 = 0.4;
    b.b6 = 0.5;
    b.b12 = 0.3;
    Graph g = graph();
    auto a = SyntheticWorkload(b, 8).runProfiled(g).first;
    auto c = SyntheticWorkload(b, 8).runProfiled(g).first;
    EXPECT_EQ(a.vertexValues, c.vertexValues);
    EXPECT_DOUBLE_EQ(a.scalar, c.scalar);
}

// Pinned to literals, so the check holds across processes: a seed
// derived from anything process-local (a string literal's address
// under ASLR) changes these totals from one run to the next, which
// a same-process comparison cannot see.
TEST_F(SyntheticTest, ProfileIsPinnedAcrossProcesses)
{
    BVariables b;
    b.b6 = 0.5;
    b.b8 = 0.5;
    b.b12 = 0.5;
    const auto [output, profile] =
        SyntheticWorkload(b, 42).runProfiled(graph());
    EXPECT_EQ(profile.totalOps(), 38460.0);
    EXPECT_EQ(profile.totalAtomics(), 8836.0);
    EXPECT_EQ(profile.totalBytes(), 82688.0);
    uint64_t scalar_bits = 0;
    std::memcpy(&scalar_bits, &output.scalar, sizeof(scalar_bits));
    EXPECT_EQ(scalar_bits, 0x41219431f8545f4cull);
}

TEST_F(SyntheticTest, SamplerProducesRequestedCountOnGrid)
{
    auto vectors = sampleSyntheticBVectors(40, 99);
    ASSERT_EQ(vectors.size(), 40u);
    for (const auto &b : vectors) {
        EXPECT_TRUE(b.validate().empty());
        EXPECT_NEAR(b.phaseSum(), 1.0, 1e-9);
    }
}

TEST_F(SyntheticTest, SamplerStartsWithPurePhaseCorners)
{
    auto vectors = sampleSyntheticBVectors(5, 1);
    EXPECT_DOUBLE_EQ(vectors[0].b1, 1.0);
    EXPECT_DOUBLE_EQ(vectors[1].b2, 1.0);
    EXPECT_DOUBLE_EQ(vectors[2].b3, 1.0);
    EXPECT_DOUBLE_EQ(vectors[3].b4, 1.0);
    EXPECT_DOUBLE_EQ(vectors[4].b5, 1.0);
}

TEST_F(SyntheticTest, SamplerCoversDiversePhaseKinds)
{
    auto vectors = sampleSyntheticBVectors(60, 2);
    std::set<int> dominant;
    for (const auto &b : vectors) {
        double phases[] = {b.b1, b.b2, b.b3, b.b4, b.b5};
        int best = 0;
        for (int i = 1; i < 5; ++i)
            if (phases[i] > phases[best])
                best = i;
        dominant.insert(best);
    }
    EXPECT_EQ(dominant.size(), 5u);
}

} // namespace
} // namespace heteromap
