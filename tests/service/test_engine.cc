/**
 * @file
 * ServiceEngine tests: every serve() answers, engine errors come back
 * structured, duplicate requests answer byte-identically, concurrent
 * callers all get their own answers, and two workloads whose
 * fingerprints collide each get their own make-span.  Deadline expiry
 * at admission is the server's job and is tested over loopback
 * (test_server_loopback.cc).
 */

#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/eval_cache.hh"
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

TEST(ServiceEngine, DuplicateRequestsAnswerByteIdentically)
{
    ServiceEngine engine;
    for (const char *policy : {"iar", "base-only", "astar"}) {
        SCOPED_TRACE(policy);
        const ServiceResponse first =
            engine.serve(makeRequest(1, policy, figure1Workload()));
        const ServiceResponse second =
            engine.serve(makeRequest(1, policy, figure1Workload()));
        ASSERT_TRUE(first.ok) << first.error;
        ASSERT_TRUE(second.ok) << second.error;
        // A repeat is solved again, to the same bytes apart from the
        // volatile stats line, whose cache counters stay 0.
        EXPECT_EQ(responseText(first, /*include_stats=*/false),
                  responseText(second, /*include_stats=*/false));
        EXPECT_EQ(second.stats.cacheHits, 0u);
        EXPECT_EQ(second.stats.cacheMisses, 0u);
    }
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

// --- Fingerprint collisions ---------------------------------------
//
// hashWorkload() chains SplitMix64 steps, state = mix64(state ^
// mix64(v)).  Each step is a bijection in v, so one free field at the
// end of the profile table can be solved to make any workload hash
// like any other.  The helpers below replay that chain; the test
// checks them against the library's own hashWorkload().

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kMul1 = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kMul2 = 0x94d049bb133111ebull;

std::uint64_t
mix64(std::uint64_t x)
{
    x += kGolden;
    x = (x ^ (x >> 30)) * kMul1;
    x = (x ^ (x >> 27)) * kMul2;
    return x ^ (x >> 31);
}

/** Inverse of an odd number modulo 2^64 (Newton's iteration). */
std::uint64_t
inverseOdd(std::uint64_t a)
{
    std::uint64_t x = a; // right in the low 3 bits
    for (int i = 0; i < 5; ++i)
        x *= 2 - a * x;
    return x;
}

/** mix64's inverse: each step undone in reverse order. */
std::uint64_t
unmix64(std::uint64_t x)
{
    x ^= (x >> 31) ^ (x >> 62);
    x *= inverseOdd(kMul2);
    x ^= (x >> 27) ^ (x >> 54);
    x *= inverseOdd(kMul1);
    x ^= (x >> 30) ^ (x >> 60);
    return x - kGolden;
}

/** hashWorkload()'s running state. */
struct Chain
{
    std::uint64_t state = 0x2545f4914f6cdd1dull;

    void add(std::uint64_t v) { state = mix64(state ^ mix64(v)); }

    /** The state before add(v) produced @p after. */
    static std::uint64_t
    before(std::uint64_t after, std::uint64_t v)
    {
        return unmix64(after) ^ mix64(v);
    }

    void
    addString(const std::string &s)
    {
        add(s.size());
        for (std::size_t i = 0; i < s.size(); i += 8) {
            std::uint64_t word = 0;
            for (std::size_t b = 0; b < 8 && i + b < s.size(); ++b)
                word |= std::uint64_t(static_cast<unsigned char>(
                            s[i + b]))
                        << (8 * b);
            add(word);
        }
    }

    void
    addProfile(const FunctionProfile &fp)
    {
        add(fp.size());
        add(fp.numLevels());
        for (std::size_t l = 0; l < fp.numLevels(); ++l) {
            add(static_cast<std::uint64_t>(
                fp.level(static_cast<Level>(l)).compile));
            add(static_cast<std::uint64_t>(
                fp.level(static_cast<Level>(l)).exec));
        }
    }
};

/**
 * @p w with every exec cost of function 0 raised by @p bump ticks,
 * plus one uncalled one-level function whose exec cost is solved so
 * the result has @p w's hashWorkload().
 */
Workload
collidingTwin(const Workload &w, Tick bump)
{
    std::vector<FunctionProfile> funcs = w.functions();
    std::vector<LevelCosts> levels;
    for (std::size_t l = 0; l < funcs[0].numLevels(); ++l) {
        LevelCosts c = funcs[0].level(static_cast<Level>(l));
        c.exec += bump;
        levels.push_back(c);
    }
    funcs[0] = FunctionProfile(funcs[0].name(), funcs[0].size(),
                               std::move(levels));

    // The state hashWorkload() must reach right after the new
    // function's exec cost: w's hash with the calls block unwound.
    std::uint64_t target = hashWorkload(w);
    for (auto f = w.calls().rbegin(); f != w.calls().rend(); ++f)
        target = Chain::before(target, *f);
    target = Chain::before(target, w.numCalls());

    // Half of all solutions are negative ticks; step the new
    // function's compile cost until the exec cost is a valid one.
    for (Tick compile = 1;; ++compile) {
        Chain h;
        h.addString(w.name());
        h.add(funcs.size() + 1);
        for (const FunctionProfile &fp : funcs)
            h.addProfile(fp);
        h.add(1); // size
        h.add(1); // numLevels
        h.add(static_cast<std::uint64_t>(compile));
        const std::uint64_t exec = unmix64(unmix64(target) ^ h.state);
        if (static_cast<Tick>(exec) < 0)
            continue;
        std::vector<FunctionProfile> twin = funcs;
        twin.emplace_back(
            "pad", 1,
            std::vector<LevelCosts>{{compile, static_cast<Tick>(exec)}});
        return Workload(w.name(), std::move(twin), w.calls());
    }
}

TEST(ServiceEngineCollision, CollidingWorkloadsGetTheirOwnMakespans)
{
    SyntheticConfig scfg;
    scfg.name = "collide";
    scfg.numFunctions = 6;
    scfg.numCalls = 60;
    scfg.seed = 17;
    const Workload w = generateSynthetic(scfg);
    const Workload twin = collidingTwin(w, 1000);
    ASSERT_GT(w.callCount(0), 0u);
    ASSERT_EQ(hashWorkload(twin), hashWorkload(w))
        << "the test's replay of hashWorkload() has drifted";

    // One engine serves both, first w, then its twin, each through
    // the wire codec as a client would send it.
    ServiceEngine engine;
    for (const char *policy : {"iar", "base-only"}) {
        SCOPED_TRACE(policy);
        const auto served = [&](std::uint64_t id, const Workload &wl) {
            const auto req =
                tryReadRequest(requestText(makeRequest(id, policy, wl)));
            EXPECT_TRUE(req.has_value());
            return engine.serve(*req);
        };
        const ServiceResponse a = served(1, w);
        const ServiceResponse b = served(2, twin);
        ASSERT_TRUE(a.ok) << a.error;
        ASSERT_TRUE(b.ok) << b.error;

        // Same fingerprint, same schedule, different truth.
        ASSERT_EQ(a.schedule, b.schedule);
        const Schedule sched(a.schedule);
        const Tick want_a = simulate(w, sched).makespan;
        const Tick want_b = simulate(twin, sched).makespan;
        ASSERT_NE(want_a, want_b);

        EXPECT_EQ(a.sim.makespan, want_a);
        EXPECT_EQ(b.sim.makespan, want_b)
            << "the twin was answered with the first workload's "
               "make-span";
    }
}

} // anonymous namespace
} // namespace jitsched
