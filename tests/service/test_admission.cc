/**
 * @file
 * Admission-gate tests: every serve() answers, duplicate requests
 * ride the cache, overload is shed with RESOURCE_EXHAUSTED, stale
 * requests expire with DEADLINE_EXCEEDED, shutdown answers instead
 * of hanging, and the engine's EvalCache stays within its cap.
 */

#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/admission.hh"
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

TEST(AdmissionQueue, ServesAValidRequest)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    const ServiceResponse resp =
        queue.serve(makeRequest(1, "iar", figure1Workload()));
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.id, 1u);
    EXPECT_EQ(resp.policy, "iar");
    EXPECT_TRUE(resp.hasSchedule);
    EXPECT_GE(resp.stats.queueNs, 0);
    EXPECT_GT(resp.stats.solveNs, 0);
    EXPECT_EQ(queue.processed(), 1u);
    EXPECT_EQ(queue.accepted(), 1u);
}

TEST(AdmissionQueue, EngineErrorsComeBackStructured)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    const ServiceResponse resp = queue.serve(
        makeRequest(2, "no-such-policy", figure1Workload()));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::invalidArgument);
}

TEST(AdmissionQueue, DuplicateRequestsHitTheCache)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    const ServiceResponse first =
        queue.serve(makeRequest(1, "iar", figure1Workload()));
    const ServiceResponse second =
        queue.serve(makeRequest(2, "iar", figure1Workload()));
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

TEST(AdmissionQueue, ZeroDepthQueueShedsEverything)
{
    ServiceEngine engine;
    AdmissionConfig cfg;
    cfg.maxDepth = 0;
    AdmissionQueue queue(engine, cfg);
    const ServiceResponse resp =
        queue.serve(makeRequest(3, "iar", figure1Workload()));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::resourceExhausted);
    EXPECT_EQ(queue.shed(), 1u);
    EXPECT_EQ(queue.accepted(), 0u);
}

TEST(AdmissionQueue, StaleRequestsExpire)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    // Occupy one solve slot with a real solve, then admit a request
    // whose deadline is already spent when it is admitted.
    SyntheticConfig scfg;
    scfg.name = "occupy";
    scfg.numFunctions = 80;
    scfg.numCalls = 4000;
    const ServiceRequest occupy =
        makeRequest(4, "iar", generateSynthetic(scfg));
    auto slow = std::async(std::launch::async,
                           [&] { return queue.serve(occupy); });
    ServiceRequest stale =
        makeRequest(5, "iar", figure1Workload());
    stale.options.deadlineMs = 0;
    const ServiceResponse resp = queue.serve(stale);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::deadlineExceeded);
    EXPECT_EQ(queue.expired(), 1u);
    EXPECT_TRUE(slow.get().ok);
}

TEST(AdmissionQueue, StopAnswersInsteadOfHanging)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    queue.stop();
    const ServiceResponse resp =
        queue.serve(makeRequest(6, "iar", figure1Workload()));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::unavailable);
    queue.stop(); // idempotent
}

TEST(AdmissionQueue, ManyConcurrentSubmittersAllGetAnswers)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    std::vector<std::future<ServiceResponse>> futures;
    for (std::uint64_t i = 0; i < 32; ++i)
        futures.push_back(std::async(std::launch::async, [&queue, i] {
            return queue.serve(makeRequest(
                i + 1, i % 2 == 0 ? "iar" : "base-only",
                i % 4 < 2 ? figure1Workload() : figure2Workload()));
        }));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const ServiceResponse resp = futures[i].get();
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_EQ(resp.id, i + 1);
    }
    EXPECT_EQ(queue.processed(), 32u);
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
