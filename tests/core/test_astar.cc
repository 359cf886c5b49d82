/**
 * @file
 * Tests for the A*-search (Sec. 5.3, Sec. 6.2.5).
 */

#include <gtest/gtest.h>

#include "core/astar.hh"
#include "core/brute_force.hh"
#include "qa/oracles.hh"
#include "sim/makespan.hh"
#include "trace/paper_examples.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

TEST(AStar, SolvesFig1Optimally)
{
    const AStarResult res = aStarOptimal(figure1Workload());
    ASSERT_EQ(res.status, AStarStatus::Optimal);
    EXPECT_EQ(res.makespan, 10);
    EXPECT_TRUE(res.schedule.validate(figure1Workload()));
}

TEST(AStar, SolvesFig2Optimally)
{
    const AStarResult res = aStarOptimal(figure2Workload());
    ASSERT_EQ(res.status, AStarStatus::Optimal);
    EXPECT_EQ(res.makespan, 12);
}

TEST(AStar, ResultMatchesSimulator)
{
    const Workload w = figure2Workload();
    const AStarResult res = aStarOptimal(w);
    ASSERT_EQ(res.status, AStarStatus::Optimal);
    EXPECT_EQ(simulate(w, res.schedule).makespan, res.makespan);
}

/**
 * A* must agree with exhaustive search on random tiny instances.
 * The shared exactness oracle (qa/oracles.hh) checks brute force
 * against A* and the parallel A*, the incremental evaluator against
 * the from-scratch walk, plus schedule validity and simulator
 * agreement, so this sweep guards the same invariant the fuzzer
 * does.
 */
class AStarVsBruteTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AStarVsBruteTest, SameOptimalMakespan)
{
    SyntheticConfig cfg;
    cfg.numFunctions = 4;
    cfg.numCalls = 25;
    cfg.numLevels = 2;
    cfg.seed = GetParam();
    const Workload w = generateSynthetic(cfg);

    qa::OracleConfig ocfg;
    ocfg.checkMetamorphic = false; // exactness is the point here
    qa::OracleStats stats;
    const std::vector<qa::Violation> violations =
        qa::checkAll(w, ocfg, &stats);
    EXPECT_TRUE(violations.empty())
        << "seed " << GetParam() << "\n"
        << qa::describeViolations(violations);
    ASSERT_EQ(stats.exactRuns, 1u)
        << "instance too large for the exact oracles";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AStarVsBruteTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12));

TEST(AStar, PrunesComparedToFullTree)
{
    // Sec. 6.2.5: A* reaches the optimum after exploring a tiny
    // fraction of the schedule space.
    SyntheticConfig cfg;
    cfg.numFunctions = 5;
    cfg.numCalls = 40;
    cfg.numLevels = 2;
    cfg.seed = 3;
    const Workload w = generateSynthetic(cfg);

    const BruteForceResult bf = bruteForceOptimal(w);
    const AStarResult as = aStarOptimal(w);
    ASSERT_EQ(as.status, AStarStatus::Optimal);
    EXPECT_LT(as.nodesExpanded, bf.nodesVisited);
}

TEST(AStar, MemoryBudgetTriggersOom)
{
    SyntheticConfig cfg;
    cfg.numFunctions = 8;
    cfg.numCalls = 80;
    cfg.numLevels = 2;
    cfg.seed = 5;
    const Workload w = generateSynthetic(cfg);

    AStarConfig acfg;
    acfg.memoryBudget = 64 * 1024; // tiny: forces the OOM path
    const AStarResult res = aStarOptimal(w, acfg);
    EXPECT_EQ(res.status, AStarStatus::OutOfMemory);
    EXPECT_GE(res.peakMemory, acfg.memoryBudget);
    // A refusal, not an anytime answer: no schedule comes back.
    EXPECT_TRUE(res.schedule.events().empty());
    EXPECT_EQ(res.makespan, 0);
}

TEST(AStar, ExpansionCap)
{
    SyntheticConfig cfg;
    cfg.numFunctions = 8;
    cfg.numCalls = 80;
    cfg.numLevels = 2;
    cfg.seed = 7;
    const Workload w = generateSynthetic(cfg);

    AStarConfig acfg;
    acfg.maxExpansions = 10;
    const AStarResult res = aStarOptimal(w, acfg);
    EXPECT_EQ(res.status, AStarStatus::ExpansionCap);
    EXPECT_EQ(res.nodesExpanded, 11u);
    EXPECT_TRUE(res.schedule.events().empty());
    EXPECT_EQ(res.stopCause, AStarStop::None);
}

TEST(AStar, GeneratedCountsAreConsistent)
{
    const AStarResult res = aStarOptimal(figure1Workload());
    EXPECT_GT(res.nodesGenerated, res.nodesExpanded);
    EXPECT_GT(res.peakMemory, 0u);
}

TEST(AStarDeath, EmptyCallSequence)
{
    const Workload w("empty", {}, {});
    EXPECT_EXIT(aStarOptimal(w), ::testing::ExitedWithCode(1),
                "empty call sequence");
}

} // anonymous namespace
} // namespace jitsched
