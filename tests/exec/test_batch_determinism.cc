/**
 * @file
 * Property tests for the determinism contract of the batch engine:
 * batch evaluation with 1, 2 and 8 threads produces bit-identical
 * results, and the cache hit/miss counts are exact and independent
 * of the thread count.
 */

#include <vector>

#include <gtest/gtest.h>

#include "core/iar.hh"
#include "core/single_level.hh"
#include "exec/batch_eval.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

void
expectSameResult(const SimResult &a, const SimResult &b,
                 std::size_t job, std::size_t threads)
{
    SCOPED_TRACE(::testing::Message()
                 << "job " << job << ", " << threads << " threads");
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.execEnd, b.execEnd);
    EXPECT_EQ(a.compileEnd, b.compileEnd);
    EXPECT_EQ(a.totalBubble, b.totalBubble);
    EXPECT_EQ(a.bubbleCount, b.bubbleCount);
    EXPECT_EQ(a.totalExec, b.totalExec);
    EXPECT_EQ(a.totalCompile, b.totalCompile);
    EXPECT_EQ(a.callsAtLevel, b.callsAtLevel);
}

/** A sweep-shaped job grid over a few synthetic workloads. */
class BatchGrid : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (const std::uint64_t seed : {11u, 22u, 33u}) {
            SyntheticConfig cfg;
            cfg.numFunctions = 30;
            cfg.numCalls = 3000;
            cfg.numLevels = 3;
            cfg.seed = seed;
            workloads_.push_back(generateSynthetic(cfg));
        }
        for (const Workload &w : workloads_) {
            const auto cands = oracleCandidateLevels(w);
            for (const Schedule &s :
                 {iarSchedule(w, cands).schedule,
                  baseLevelSchedule(w, cands),
                  optimizingLevelSchedule(w, cands)})
                for (const std::size_t cores : {1u, 2u, 4u})
                    jobs_.push_back(
                        {&w, s, {.compileCores = cores}});
        }
        // Duplicate a slice of the grid so intra-batch aliasing is
        // exercised too.
        for (std::size_t i = 0; i < 5; ++i)
            jobs_.push_back(jobs_[i]);
    }

    std::vector<Workload> workloads_;
    std::vector<EvalJob> jobs_;
};

TEST_F(BatchGrid, ResultsBitIdenticalAcrossThreadCounts)
{
    ThreadPool ref_pool(1);
    BatchEvaluator reference(ref_pool);
    const std::vector<SimResult> expect = reference.evaluate(jobs_);
    ASSERT_EQ(expect.size(), jobs_.size());

    for (const std::size_t threads : {2u, 8u}) {
        ThreadPool pool(threads);
        BatchEvaluator eval(pool);
        const std::vector<SimResult> got = eval.evaluate(jobs_);
        ASSERT_EQ(got.size(), jobs_.size());
        for (std::size_t i = 0; i < jobs_.size(); ++i)
            expectSameResult(got[i], expect[i], i, threads);
    }
}

TEST_F(BatchGrid, CacheCountsExactAndThreadCountInvariant)
{
    const std::size_t unique = jobs_.size() - 5;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        ThreadPool pool(threads);
        EvalCache cache;
        BatchEvaluator eval(pool, &cache);

        // Cold batch: every job probes and misses (the 5 in-batch
        // duplicates alias the earlier job, but their probe still
        // happened before anything was inserted).
        eval.evaluate(jobs_);
        EXPECT_EQ(cache.hits(), 0u);
        EXPECT_EQ(cache.misses(), jobs_.size());
        EXPECT_EQ(cache.size(), unique);

        // Warm batch: everything hits.
        eval.evaluate(jobs_);
        EXPECT_EQ(cache.hits(), jobs_.size());
        EXPECT_EQ(cache.misses(), jobs_.size());
        EXPECT_EQ(cache.size(), unique);
    }
}

TEST_F(BatchGrid, CachedResultsMatchFreshOnes)
{
    ThreadPool pool(4);
    EvalCache cache;
    BatchEvaluator eval(pool, &cache);
    const std::vector<SimResult> cold = eval.evaluate(jobs_);
    const std::vector<SimResult> warm = eval.evaluate(jobs_);
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        expectSameResult(warm[i], cold[i], i, 4);
}

TEST(BatchDeterminism, EvaluateOneAgreesWithSimulate)
{
    SyntheticConfig cfg;
    cfg.numFunctions = 20;
    cfg.numCalls = 1500;
    cfg.seed = 7;
    const Workload w = generateSynthetic(cfg);
    const Schedule s = iarScheduleOracle(w).schedule;

    ThreadPool pool(2);
    EvalCache cache;
    BatchEvaluator eval(pool, &cache);
    const SimResult direct = simulate(w, s);
    expectSameResult(eval.evaluateOne(w, s), direct, 0, 2);
    // Second call is served from the cache; still identical.
    expectSameResult(eval.evaluateOne(w, s), direct, 1, 2);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

} // anonymous namespace
} // namespace jitsched
