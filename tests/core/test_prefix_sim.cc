/**
 * @file
 * Differential tests for the incremental prefix-evaluation engine
 * (core/prefix_sim.hh): chained PrefixSimState appends must be
 * bit-identical to the from-scratch evalPrefix()/evalComplete()
 * walks (the exactness oracle's incremental-eval relation), and A*
 * with duplicate-state pruning must return the same optimum as A*
 * without it and as brute force.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/astar.hh"
#include "core/brute_force.hh"
#include "core/prefix_sim.hh"
#include "qa/oracles.hh"
#include "sim/makespan.hh"
#include "trace/paper_examples.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

Workload
randomWorkload(std::uint64_t seed, std::size_t funcs,
               std::size_t calls, std::size_t levels)
{
    SyntheticConfig cfg;
    cfg.numFunctions = funcs;
    cfg.numCalls = calls;
    cfg.numLevels = levels;
    cfg.seed = seed;
    return generateSynthetic(cfg);
}

/**
 * Walk a random root-to-leaf path of the schedule tree through the
 * exactness oracle's incremental-evaluation relation: every appended
 * event must reproduce the from-scratch prefix cost bit for bit.
 */
void
checkRandomPath(const Workload &w, std::uint64_t seed)
{
    std::vector<qa::Violation> violations;
    qa::checkIncrementalPath(w, qa::randomTreePath(w, seed),
                             violations);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << "\n"
        << qa::describeViolations(violations);
}

TEST(PrefixSim, IncrementalMatchesFromScratchOnRandomPaths)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        checkRandomPath(randomWorkload(seed, 5, 40, 3), seed);
        checkRandomPath(randomWorkload(seed + 100, 8, 120, 2),
                        seed * 7 + 1);
    }
    checkRandomPath(figure1Workload(), 3);
    checkRandomPath(figure2Workload(), 4);
}

TEST(PrefixSim, StateIsMonotoneAlongPaths)
{
    const Workload w = randomWorkload(9, 6, 60, 2);
    const PrefixEvaluator eval(w);
    std::mt19937_64 rng(17);

    std::vector<LevelSig> sig(w.numFunctions(), -1);
    PrefixSimState state = eval.rootState();
    Tick prev_f = eval.rootF();
    for (int step = 0; step < 32; ++step) {
        std::vector<CompileEvent> candidates;
        for (std::size_t i = 0; i < w.numFunctions(); ++i) {
            const auto f = static_cast<FuncId>(i);
            if (w.callCount(f) == 0)
                continue;
            for (int l = sig[i] + 1;
                 l < static_cast<int>(w.function(f).numLevels()); ++l)
                candidates.push_back({f, static_cast<Level>(l)});
        }
        if (candidates.empty())
            break;
        const CompileEvent ev = candidates[rng() % candidates.size()];
        const PrefixStep next = eval.append(state, sig.data(), ev);
        // Committed counters and the resume position never move
        // backwards, and f stays monotone — the invariants the arena
        // storage and the A* heuristic rely on.
        EXPECT_GE(next.state.resumeCall, state.resumeCall);
        EXPECT_GE(next.state.now, state.now);
        EXPECT_GE(next.state.compileEnd, state.compileEnd);
        EXPECT_GE(next.state.bubbles, state.bubbles);
        EXPECT_GE(next.state.extraExec, state.extraExec);
        EXPECT_GE(next.f, prev_f);
        prev_f = next.f;
        sig[ev.func] = ev.level;
        state = next.state;
    }
}

TEST(AStarPruning, SameOptimumAsUnprunedAndBruteForce)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const Workload w = randomWorkload(seed, 4, 25, 2);

        const AStarResult pruned = aStarOptimal(w);
        AStarConfig no_dedup;
        no_dedup.duplicateDetection = false;
        const AStarResult unpruned = aStarOptimal(w, no_dedup);
        const BruteForceResult bf = bruteForceOptimal(w);

        ASSERT_EQ(pruned.status, AStarStatus::Optimal)
            << "seed " << seed;
        ASSERT_EQ(unpruned.status, AStarStatus::Optimal)
            << "seed " << seed;
        ASSERT_TRUE(bf.complete) << "seed " << seed;
        EXPECT_EQ(pruned.makespan, unpruned.makespan)
            << "seed " << seed;
        EXPECT_EQ(pruned.makespan, bf.makespan) << "seed " << seed;

        // The winning schedule must be valid and cost exactly what
        // the search claims under the reference simulator.
        EXPECT_TRUE(pruned.schedule.validate(w)) << "seed " << seed;
        EXPECT_EQ(simulate(w, pruned.schedule).makespan,
                  pruned.makespan)
            << "seed " << seed;
    }
}

TEST(AStarPruning, PrunesDuplicateStates)
{
    // On an instance with several functions the interleavings of
    // compiles that finish ahead of need collapse into shared
    // states: pruning must discard nodes and shrink the search.
    const Workload w = randomWorkload(3, 5, 40, 2);

    const AStarResult pruned = aStarOptimal(w);
    AStarConfig no_dedup;
    no_dedup.duplicateDetection = false;
    const AStarResult unpruned = aStarOptimal(w, no_dedup);

    ASSERT_EQ(pruned.status, AStarStatus::Optimal);
    ASSERT_EQ(unpruned.status, AStarStatus::Optimal);
    EXPECT_EQ(pruned.makespan, unpruned.makespan);
    EXPECT_GT(pruned.nodesPruned, 0u);
    EXPECT_LT(pruned.nodesGenerated, unpruned.nodesGenerated);
    EXPECT_LE(pruned.nodesExpanded, unpruned.nodesExpanded);
}

TEST(DuplicateTable, DetectsExactDuplicatesOnly)
{
    DuplicateTable table(3);
    std::vector<LevelSig> sig = {1, -1, 0};
    PrefixSimState s;
    s.resumeCall = 4;
    s.nextStart = 100;
    s.compileEnd = 90;

    EXPECT_FALSE(table.seen(s, sig.data()));
    EXPECT_TRUE(table.seen(s, sig.data()));

    // Any differing component is a distinct state.
    PrefixSimState t = s;
    t.nextStart = 101;
    EXPECT_FALSE(table.seen(t, sig.data()));
    t = s;
    t.resumeCall = 5;
    EXPECT_FALSE(table.seen(t, sig.data()));
    t = s;
    t.compileEnd = 91;
    EXPECT_FALSE(table.seen(t, sig.data()));
    sig[1] = 0;
    EXPECT_FALSE(table.seen(s, sig.data()));

    // now/bubbles/extraExec are deliberately NOT part of the key:
    // duplicates may split committed cost differently while every
    // completion still costs the same (see DESIGN.md).
    PrefixSimState u = s;
    sig[1] = -1;
    u.now = 55;
    u.bubbles = 7;
    EXPECT_TRUE(table.seen(u, sig.data()));

    EXPECT_EQ(table.size(), 5u);
    EXPECT_GT(table.bytes(), 0u);
}

TEST(AStarAccounting, PeaksAreConsistent)
{
    const Workload w = randomWorkload(5, 5, 40, 2);
    const AStarResult res = aStarOptimal(w);
    ASSERT_EQ(res.status, AStarStatus::Optimal);
    EXPECT_GT(res.evaluations, 0u);
    EXPECT_GE(res.evaluations, res.nodesGenerated + res.nodesPruned -
                                   1); // root is not evaluated
    // bytesPerNode must reflect the stored resumable state.
    EXPECT_GE(res.bytesPerNode, sizeof(PrefixSimState));
    EXPECT_GE(res.peakMemory, res.peakArenaBytes);
    EXPECT_GE(res.peakMemory, res.peakOpenBytes);
    EXPECT_GE(res.peakMemory, res.peakTableBytes);
    EXPECT_LE(res.peakMemory, res.peakArenaBytes + res.peakOpenBytes +
                                  res.peakTableBytes);
    EXPECT_EQ(res.peakArenaBytes,
              res.nodesGenerated * res.bytesPerNode);
}

TEST(BruteForceIncremental, MatchesSimulatorOnPaperExamples)
{
    for (const Workload &w : {figure1Workload(), figure2Workload()}) {
        const BruteForceResult bf = bruteForceOptimal(w);
        ASSERT_TRUE(bf.complete);
        EXPECT_TRUE(bf.schedule.validate(w));
        EXPECT_EQ(simulate(w, bf.schedule).makespan, bf.makespan);
    }
}

} // anonymous namespace
} // namespace jitsched
