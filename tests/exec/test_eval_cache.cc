/**
 * @file
 * Unit tests for the make-span memo cache and its fingerprints.
 */

#include <gtest/gtest.h>

#include "exec/eval_cache.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

Workload
tinyWorkload(std::uint64_t seed)
{
    SyntheticConfig cfg;
    cfg.numFunctions = 6;
    cfg.numCalls = 40;
    cfg.numLevels = 2;
    cfg.seed = seed;
    return generateSynthetic(cfg);
}

TEST(EvalKeyHashing, WorkloadFingerprintIsContentBased)
{
    const Workload a = tinyWorkload(1);
    const Workload b = tinyWorkload(1);
    const Workload c = tinyWorkload(2);
    EXPECT_EQ(hashWorkload(a), hashWorkload(b));
    EXPECT_NE(hashWorkload(a), hashWorkload(c));
}

TEST(EvalKeyHashing, ScheduleFingerprintSeesOrderAndLevels)
{
    Schedule s1;
    s1.append(0, 0);
    s1.append(1, 0);
    Schedule s2;
    s2.append(1, 0);
    s2.append(0, 0);
    Schedule s3;
    s3.append(0, 0);
    s3.append(1, 1);
    EXPECT_NE(hashSchedule(s1), hashSchedule(s2));
    EXPECT_NE(hashSchedule(s1), hashSchedule(s3));
    EXPECT_EQ(hashSchedule(s1), hashSchedule(Schedule(s1)));
}

TEST(EvalKeyHashing, OptionsFingerprintSeesEveryKnob)
{
    const SimOptions base;
    SimOptions cores = base;
    cores.compileCores = 4;
    SimOptions jitter = base;
    jitter.execJitterSigma = 0.3;
    SimOptions seed = base;
    seed.jitterSeed = 99;
    EXPECT_NE(hashSimOptions(base), hashSimOptions(cores));
    EXPECT_NE(hashSimOptions(base), hashSimOptions(jitter));
    EXPECT_NE(hashSimOptions(base), hashSimOptions(seed));
    EXPECT_EQ(hashSimOptions(base), hashSimOptions(SimOptions{}));
}

TEST(EvalCache, LookupInsertRoundTrip)
{
    EvalCache cache;
    const EvalKey key{1, 2, 3};
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.misses(), 1u);

    SimResult r;
    r.makespan = 42;
    r.totalBubble = 7;
    cache.insert(key, r);
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->makespan, 42);
    EXPECT_EQ(hit->totalBubble, 7);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, DistinctKeysDoNotCollide)
{
    EvalCache cache;
    for (std::uint64_t i = 0; i < 100; ++i) {
        SimResult r;
        r.makespan = static_cast<Tick>(i);
        cache.insert(EvalKey{i, i * 31, i * 131}, r);
    }
    EXPECT_EQ(cache.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) {
        const auto hit = cache.lookup(EvalKey{i, i * 31, i * 131});
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->makespan, static_cast<Tick>(i));
    }
}

TEST(EvalCache, ClearResetsEntriesAndCounters)
{
    EvalCache cache;
    cache.insert(EvalKey{1, 1, 1}, SimResult{});
    (void)cache.lookup(EvalKey{1, 1, 1});
    (void)cache.lookup(EvalKey{2, 2, 2});
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_FALSE(cache.lookup(EvalKey{1, 1, 1}).has_value());
}

} // anonymous namespace
} // namespace jitsched
