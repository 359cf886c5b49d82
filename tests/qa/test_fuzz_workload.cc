/**
 * @file
 * Tests for the workload fuzzer: every generated or mutated instance
 * must be a legal OCSP input, and the whole pipeline must be a pure
 * function of the (seed, case) pair.
 */

#include <gtest/gtest.h>

#include "qa/fuzz_workload.hh"
#include "support/rng.hh"

namespace jitsched {
namespace qa {
namespace {

/** Definition-1 monotonicity plus basic shape sanity. */
void
expectLegal(const Workload &w)
{
    ASSERT_GE(w.numFunctions(), 1u);
    ASSERT_GE(w.numCalls(), 1u);
    for (std::size_t i = 0; i < w.numFunctions(); ++i) {
        const auto &f = w.function(static_cast<FuncId>(i));
        ASSERT_GE(f.numLevels(), 1u);
        for (Level l = 1; l < f.numLevels(); ++l) {
            EXPECT_LE(f.compileTime(l - 1), f.compileTime(l));
            EXPECT_GE(f.execTime(l - 1), f.execTime(l));
        }
        for (Level l = 0; l < f.numLevels(); ++l)
            EXPECT_GE(f.execTime(l), 1);
    }
    for (const FuncId c : w.calls())
        ASSERT_LT(static_cast<std::size_t>(c), w.numFunctions());
}

TEST(FuzzWorkload, GeneratedInstancesAreLegal)
{
    const FuzzDomain domain;
    for (std::uint64_t c = 0; c < 200; ++c) {
        Rng rng = Rng::caseStream(11, c);
        expectLegal(randomWorkload(rng, domain));
    }
}

TEST(FuzzWorkload, MutationChainsPreserveLegality)
{
    const FuzzDomain domain;
    for (std::uint64_t c = 0; c < 100; ++c) {
        Rng rng = Rng::caseStream(12, c);
        Workload w = randomWorkload(rng, domain);
        for (int m = 0; m < 10; ++m) {
            w = mutateWorkload(w, rng, domain);
            expectLegal(w);
        }
    }
}

TEST(FuzzWorkload, CaseStreamMakesGenerationAPureFunction)
{
    const FuzzDomain domain;
    for (std::uint64_t c : {0ull, 1ull, 57ull}) {
        Rng a = Rng::caseStream(99, c);
        Rng b = Rng::caseStream(99, c);
        const Workload wa = randomWorkload(a, domain);
        const Workload wb = randomWorkload(b, domain);
        ASSERT_EQ(wa.numFunctions(), wb.numFunctions());
        ASSERT_EQ(wa.calls(), wb.calls());
        for (std::size_t i = 0; i < wa.numFunctions(); ++i) {
            const auto &fa = wa.function(static_cast<FuncId>(i));
            const auto &fb = wb.function(static_cast<FuncId>(i));
            ASSERT_EQ(fa.numLevels(), fb.numLevels());
            for (Level l = 0; l < fa.numLevels(); ++l) {
                EXPECT_EQ(fa.compileTime(l), fb.compileTime(l));
                EXPECT_EQ(fa.execTime(l), fb.execTime(l));
            }
        }
    }
}

TEST(FuzzWorkload, AppendCallsCyclesExistingCalls)
{
    Rng rng = Rng::caseStream(13, 0);
    const Workload w = randomWorkload(rng, FuzzDomain{});
    const Workload more = appendCalls(w, 5);
    ASSERT_EQ(more.numCalls(), w.numCalls() + 5);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(more.calls()[w.numCalls() + i],
                  w.calls()[i % w.numCalls()]);
    expectLegal(more);
}

TEST(FuzzWorkload, ScaleCostsMultipliesEveryTime)
{
    Rng rng = Rng::caseStream(14, 0);
    const Workload w = randomWorkload(rng, FuzzDomain{});
    const Workload scaled = scaleCosts(w, 3);
    for (std::size_t i = 0; i < w.numFunctions(); ++i) {
        const auto &f = w.function(static_cast<FuncId>(i));
        const auto &s = scaled.function(static_cast<FuncId>(i));
        for (Level l = 0; l < f.numLevels(); ++l) {
            EXPECT_EQ(s.compileTime(l), 3 * f.compileTime(l));
            EXPECT_EQ(s.execTime(l), 3 * f.execTime(l));
        }
    }
}

TEST(FuzzWorkload, DropFunctionRemapsCallIds)
{
    // Build a 3-function workload where function 1 is uncalled, drop
    // it, and check the calls to function 2 now name function 1.
    const FuzzDomain domain;
    for (std::uint64_t c = 0; c < 50; ++c) {
        Rng r = Rng::caseStream(15, c);
        const Workload w = randomWorkload(r, domain);
        for (std::size_t i = 0; i < w.numFunctions(); ++i) {
            const auto f = static_cast<FuncId>(i);
            if (w.callCount(f) != 0 || w.numFunctions() < 2)
                continue;
            const Workload dropped = dropFunction(w, f);
            ASSERT_EQ(dropped.numFunctions(), w.numFunctions() - 1);
            ASSERT_EQ(dropped.numCalls(), w.numCalls());
            for (std::size_t k = 0; k < w.numCalls(); ++k) {
                const FuncId before = w.calls()[k];
                const FuncId expected =
                    before > f ? static_cast<FuncId>(before - 1)
                               : before;
                EXPECT_EQ(dropped.calls()[k], expected);
            }
            expectLegal(dropped);
        }
    }
}

} // anonymous namespace
} // namespace qa
} // namespace jitsched
