/**
 * @file
 * ServiceEngine tests: every serve() answers, engine errors come back
 * structured, duplicate requests ride the EvalCache, concurrent
 * callers all get their own answers, and the EvalCache stays within
 * its cap.  Deadline expiry at admission is the server's job and is
 * tested over loopback (test_server_loopback.cc).
 */

#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/engine.hh"
#include "trace/paper_examples.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

ServiceRequest
makeRequest(std::uint64_t id, const std::string &policy,
            Workload w)
{
    ServiceRequest req;
    req.id = id;
    req.policy = policy;
    req.workload = std::move(w);
    return req;
}

TEST(ServiceEngine, ServesAValidRequest)
{
    ServiceEngine engine;
    const ServiceResponse resp =
        engine.serve(makeRequest(1, "iar", figure1Workload()));
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.id, 1u);
    EXPECT_EQ(resp.policy, "iar");
    EXPECT_TRUE(resp.hasSchedule);
    EXPECT_EQ(resp.stats.queueNs, 0); // the server's to fill
    EXPECT_GT(resp.stats.solveNs, 0);
}

TEST(ServiceEngine, ErrorsComeBackStructured)
{
    ServiceEngine engine;
    const ServiceResponse unknown = engine.serve(
        makeRequest(2, "no-such-policy", figure1Workload()));
    EXPECT_FALSE(unknown.ok);
    EXPECT_EQ(unknown.code, errcode::invalidArgument);
    const ServiceResponse empty =
        engine.serve(makeRequest(3, "iar", Workload()));
    EXPECT_FALSE(empty.ok);
    EXPECT_EQ(empty.code, errcode::invalidArgument);
}

TEST(ServiceEngine, DuplicateRequestsHitTheCache)
{
    ServiceEngine engine;
    const ServiceResponse first =
        engine.serve(makeRequest(1, "iar", figure1Workload()));
    const ServiceResponse second =
        engine.serve(makeRequest(2, "iar", figure1Workload()));
    ASSERT_TRUE(first.ok);
    ASSERT_TRUE(second.ok);
    // The repeat evaluation is answered from the EvalCache: the
    // response-embedded counters show hits and no new misses.
    EXPECT_GT(second.stats.cacheHits, 0u);
    EXPECT_EQ(second.stats.cacheMisses, 0u);
    // And the answers agree, as duplicates must.
    EXPECT_EQ(first.sim.makespan, second.sim.makespan);
    EXPECT_EQ(first.schedule.size(), second.schedule.size());
}

TEST(ServiceEngine, ManyConcurrentCallersAllGetAnswers)
{
    ServiceEngine engine;
    std::vector<std::future<ServiceResponse>> futures;
    for (std::uint64_t i = 0; i < 32; ++i)
        futures.push_back(std::async(std::launch::async, [&engine, i] {
            return engine.serve(makeRequest(
                i + 1, i % 2 == 0 ? "iar" : "base-only",
                i % 4 < 2 ? figure1Workload() : figure2Workload()));
        }));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const ServiceResponse resp = futures[i].get();
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_EQ(resp.id, i + 1);
    }
}

TEST(ServiceEngineCache, DistinctRequestsStayWithinTheEvalCacheCap)
{
    // Every distinct workload adds at least one EvalCache entry, so
    // an uncapped cache would end above the cap.
    ServiceEngine engine;
    constexpr std::size_t kCap = ServiceEngine::kEvalCacheEntries;
    SyntheticConfig scfg;
    scfg.numFunctions = 3;
    scfg.numCalls = 12;
    scfg.numLevels = 2;
    scfg.numPhases = 1;
    for (std::uint64_t i = 0; i <= kCap; ++i) {
        scfg.name = "distinct-" + std::to_string(i);
        const ServiceResponse resp = engine.serve(
            makeRequest(i + 1, "base-only", generateSynthetic(scfg)));
        ASSERT_TRUE(resp.ok) << resp.error;
    }
    EXPECT_GT(engine.cache().misses(), kCap);
    EXPECT_LE(engine.cache().size(), kCap);
}

} // anonymous namespace
} // namespace jitsched
