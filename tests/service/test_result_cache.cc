/**
 * @file
 * The request-level result cache (service/result_cache.hh): key
 * canonicalization, LRU eviction determinism, singleflight
 * collapsing with deadline-respecting waiters, snapshot round trips
 * and strict rejection of damaged snapshot files, plus a TSan-aimed
 * concurrency hammer (this suite runs under the `service` label the
 * TSan job builds with -fsanitize=thread).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/result_cache.hh"
#include "trace/paper_examples.hh"

namespace jitsched {
namespace {

ServiceRequest
makeRequest(int compile_cores = 1)
{
    ServiceRequest req;
    req.id = 1;
    req.policy = "iar";
    req.options.compileCores = compile_cores;
    req.workload = figure1Workload();
    return req;
}

std::string
tempPath(const char *tag)
{
    return testing::TempDir() + "result_cache_" + tag + "_" +
           std::to_string(::getpid()) + ".snapshot";
}

// --- Key canonicalization -----------------------------------------

TEST(ResultCacheKey, IgnoresIdDeadlineAndTraceId)
{
    ServiceRequest a = makeRequest();
    ServiceRequest b = makeRequest();
    b.id = 999;
    b.traceId = 0xabcdef;
    b.options.deadlineMs = 1500;
    EXPECT_EQ(ResultCache::keyMaterial(a),
              ResultCache::keyMaterial(b));
    EXPECT_EQ(ResultCache::keyHash(ResultCache::keyMaterial(a)),
              ResultCache::keyHash(ResultCache::keyMaterial(b)));
}

TEST(ResultCacheKey, IgnoresDormantJitterSeed)
{
    // requestText() omits jitter-seed when sigma is 0 (the
    // simulator never reads it); the key follows the same rule.
    ServiceRequest a = makeRequest();
    ServiceRequest b = makeRequest();
    a.options.jitterSeed = 1;
    b.options.jitterSeed = 42;
    EXPECT_EQ(ResultCache::keyMaterial(a),
              ResultCache::keyMaterial(b));

    a.options.jitterSigma = 0.5;
    b.options.jitterSigma = 0.5;
    EXPECT_NE(ResultCache::keyMaterial(a),
              ResultCache::keyMaterial(b));
}

TEST(ResultCacheKey, SemanticFieldsSeparateEntries)
{
    const ServiceRequest base = makeRequest();

    ServiceRequest other_policy = makeRequest();
    other_policy.policy = "astar";
    EXPECT_NE(ResultCache::keyMaterial(base),
              ResultCache::keyMaterial(other_policy));

    ServiceRequest other_cores = makeRequest(2);
    EXPECT_NE(ResultCache::keyMaterial(base),
              ResultCache::keyMaterial(other_cores));

    // `threads` stays in the key: parallel A* promises cost
    // determinism, not schedule identity.
    ServiceRequest threaded = makeRequest();
    threaded.options.astarThreads = 4;
    EXPECT_NE(ResultCache::keyMaterial(base),
              ResultCache::keyMaterial(threaded));

    ServiceRequest other_workload = makeRequest();
    other_workload.workload = figure2Workload();
    EXPECT_NE(ResultCache::keyMaterial(base),
              ResultCache::keyMaterial(other_workload));
}

// --- Store + LRU --------------------------------------------------

TEST(ResultCache, DisabledCacheAlwaysBypasses)
{
    ResultCache cache; // capacityBytes = 0
    EXPECT_FALSE(cache.enabled());
    const auto probe = cache.begin(makeRequest());
    EXPECT_EQ(probe.kind, ResultCache::Probe::Kind::Bypass);
    EXPECT_EQ(cache.counters().hits, 0u);
    EXPECT_EQ(cache.counters().misses, 0u);
}

TEST(ResultCache, LeaderPublishesThenHits)
{
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    ResultCache cache(cfg);

    const auto lead = cache.begin(makeRequest());
    ASSERT_EQ(lead.kind, ResultCache::Probe::Kind::Leader);
    cache.publish(lead, true, "makespan 11\n");

    const auto hit = cache.begin(makeRequest());
    ASSERT_EQ(hit.kind, ResultCache::Probe::Kind::Hit);
    EXPECT_EQ(hit.body, "makespan 11\n");
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.counters().hits, 1u);
    EXPECT_EQ(cache.counters().misses, 1u);
    EXPECT_EQ(cache.counters().insertions, 1u);
}

TEST(ResultCache, ErrorBodiesAreNotStored)
{
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    ResultCache cache(cfg);

    const auto lead = cache.begin(makeRequest());
    ASSERT_EQ(lead.kind, ResultCache::Probe::Kind::Leader);
    cache.publish(lead, false, "status error UNAVAILABLE\n");

    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.begin(makeRequest()).kind,
              ResultCache::Probe::Kind::Leader);
}

TEST(ResultCache, EvictionIsDeterministicLru)
{
    // One shard so the LRU order is global; capacity sized to hold
    // exactly two of the three equally-charged entries.
    const std::string body(100, 'x');
    const std::size_t charge =
        ResultCache::keyMaterial(makeRequest(1)).size() +
        body.size() + 64;
    ResultCacheConfig cfg;
    cfg.shards = 1;
    cfg.capacityBytes = 2 * charge + charge / 2;
    cfg.maxEntryBytes = 2 * charge;
    ResultCache cache(cfg);

    for (int cores : {1, 2}) {
        const auto lead = cache.begin(makeRequest(cores));
        ASSERT_EQ(lead.kind, ResultCache::Probe::Kind::Leader);
        cache.publish(lead, true, body);
    }
    // Touch entry #1 so entry #2 is the LRU tail...
    EXPECT_EQ(cache.begin(makeRequest(1)).kind,
              ResultCache::Probe::Kind::Hit);
    // ...and inserting #3 must evict exactly #2.
    const auto lead3 = cache.begin(makeRequest(3));
    ASSERT_EQ(lead3.kind, ResultCache::Probe::Kind::Leader);
    cache.publish(lead3, true, body);

    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_EQ(cache.begin(makeRequest(1)).kind,
              ResultCache::Probe::Kind::Hit);
    EXPECT_EQ(cache.begin(makeRequest(3)).kind,
              ResultCache::Probe::Kind::Hit);
    EXPECT_EQ(cache.begin(makeRequest(2)).kind,
              ResultCache::Probe::Kind::Leader);
}

TEST(ResultCache, OversizedBodiesServeButNeverStore)
{
    ResultCacheConfig cfg;
    cfg.capacityBytes = 4096;
    cfg.maxEntryBytes = 256;
    ResultCache cache(cfg);

    const auto lead = cache.begin(makeRequest());
    ASSERT_EQ(lead.kind, ResultCache::Probe::Kind::Leader);
    cache.publish(lead, true, std::string(1024, 'y'));

    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.counters().oversized, 1u);
}

// --- Singleflight -------------------------------------------------

TEST(ResultCache, FollowersCollapseOntoOneSolve)
{
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    ResultCache cache(cfg);

    const auto lead = cache.begin(makeRequest());
    ASSERT_EQ(lead.kind, ResultCache::Probe::Kind::Leader);

    constexpr int kFollowers = 6;
    std::atomic<int> registered{0};
    std::atomic<int> served_ok{0};
    std::vector<std::thread> threads;
    threads.reserve(kFollowers);
    for (int i = 0; i < kFollowers; ++i) {
        threads.emplace_back([&] {
            const auto probe = cache.begin(makeRequest());
            ASSERT_EQ(probe.kind,
                      ResultCache::Probe::Kind::Follower);
            registered.fetch_add(1);
            bool ok = false;
            std::string body;
            const auto outcome = cache.waitFollower(
                probe, std::nullopt, &ok, &body);
            if (outcome == ResultCache::WaitOutcome::Ready && ok &&
                body == "makespan 11\n")
                served_ok.fetch_add(1);
        });
    }
    while (registered.load() < kFollowers)
        std::this_thread::yield();
    cache.publish(lead, true, "makespan 11\n");
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(served_ok.load(), kFollowers);
    EXPECT_EQ(cache.counters().collapsed,
              static_cast<std::uint64_t>(kFollowers));
    EXPECT_EQ(cache.counters().insertions, 1u);
}

TEST(ResultCache, FollowerDeadlineIsRespected)
{
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    ResultCache cache(cfg);

    const auto lead = cache.begin(makeRequest());
    ASSERT_EQ(lead.kind, ResultCache::Probe::Kind::Leader);
    const auto follower = cache.begin(makeRequest());
    ASSERT_EQ(follower.kind, ResultCache::Probe::Kind::Follower);

    // A deadline already in the past: the wait must return Timeout
    // immediately instead of blocking on the (never-publishing)
    // leader.
    bool ok = false;
    std::string body;
    EXPECT_EQ(cache.waitFollower(follower,
                                 std::chrono::steady_clock::now() -
                                     std::chrono::milliseconds(1),
                                 &ok, &body),
              ResultCache::WaitOutcome::Timeout);
    EXPECT_EQ(cache.counters().collapseTimeouts, 1u);

    // The leader's publish must still work after the waiter left.
    cache.publish(lead, true, "makespan 11\n");
    EXPECT_EQ(cache.begin(makeRequest()).kind,
              ResultCache::Probe::Kind::Hit);
}

TEST(ResultCache, WaiterOverflowDegradesToBypass)
{
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    cfg.maxWaiters = 0; // no follower may queue
    ResultCache cache(cfg);

    const auto lead = cache.begin(makeRequest());
    ASSERT_EQ(lead.kind, ResultCache::Probe::Kind::Leader);
    const auto probe = cache.begin(makeRequest());
    EXPECT_EQ(probe.kind, ResultCache::Probe::Kind::Bypass);
    EXPECT_EQ(cache.counters().waiterOverflow, 1u);
    cache.publish(lead, true, "makespan 11\n");
}

// --- Snapshots ----------------------------------------------------

TEST(ResultCacheSnapshot, RoundTripPreservesEntriesAndLruOrder)
{
    const std::string path = tempPath("roundtrip");
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    ResultCache cache(cfg);
    for (int cores : {1, 2, 3}) {
        const auto lead = cache.begin(makeRequest(cores));
        ASSERT_EQ(lead.kind, ResultCache::Probe::Kind::Leader);
        cache.publish(lead, true,
                      "makespan 1" + std::to_string(cores) + "\n");
    }

    std::size_t entries = 0;
    std::string error;
    ASSERT_TRUE(cache.saveSnapshot(path, &error, &entries)) << error;
    EXPECT_EQ(entries, 3u);
    EXPECT_EQ(cache.counters().snapshotSaves, 1u);

    ResultCache reloaded(cfg);
    std::size_t loaded = 0;
    ASSERT_TRUE(reloaded.loadSnapshot(path, &error, &loaded))
        << error;
    EXPECT_EQ(loaded, 3u);
    EXPECT_EQ(reloaded.entries(), 3u);
    for (int cores : {1, 2, 3}) {
        const auto hit = reloaded.begin(makeRequest(cores));
        ASSERT_EQ(hit.kind, ResultCache::Probe::Kind::Hit);
        EXPECT_EQ(hit.body,
                  "makespan 1" + std::to_string(cores) + "\n");
    }
    std::remove(path.c_str());
}

TEST(ResultCacheSnapshot, VersionSkewIsRejectedWholesale)
{
    const std::string path = tempPath("skew");
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    ResultCache cache(cfg);
    const auto lead = cache.begin(makeRequest());
    cache.publish(lead, true, "makespan 11\n");
    ASSERT_TRUE(cache.saveSnapshot(path));

    // Bump the version token: the loader must refuse the whole file.
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    const std::size_t v = bytes.find("v1");
    ASSERT_NE(v, std::string::npos);
    bytes[v + 1] = '2';
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    ResultCache reloaded(cfg);
    std::string error;
    EXPECT_FALSE(reloaded.loadSnapshot(path, &error));
    EXPECT_NE(error.find("magic/version"), std::string::npos)
        << error;
    EXPECT_EQ(reloaded.entries(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCacheSnapshot, TruncationIsRejectedWholesale)
{
    const std::string path = tempPath("trunc");
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    ResultCache cache(cfg);
    for (int cores : {1, 2}) {
        const auto lead = cache.begin(makeRequest(cores));
        cache.publish(lead, true, "makespan 11\n");
    }
    ASSERT_TRUE(cache.saveSnapshot(path));

    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() / 2);

    ResultCache reloaded(cfg);
    std::string error;
    EXPECT_FALSE(reloaded.loadSnapshot(path, &error));
    EXPECT_EQ(reloaded.entries(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCacheSnapshot, CorruptPayloadFailsTheChecksum)
{
    const std::string path = tempPath("corrupt");
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    ResultCache cache(cfg);
    const auto lead = cache.begin(makeRequest());
    cache.publish(lead, true, "makespan 11\n");
    ASSERT_TRUE(cache.saveSnapshot(path));

    // Flip one payload byte without touching the structure.
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    const std::size_t at = bytes.find("makespan 11");
    ASSERT_NE(at, std::string::npos);
    bytes[at] = 'M';
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    ResultCache reloaded(cfg);
    std::string error;
    EXPECT_FALSE(reloaded.loadSnapshot(path, &error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    EXPECT_EQ(reloaded.entries(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCacheSnapshot, MissingFileIsAnError)
{
    ResultCacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    ResultCache cache(cfg);
    std::string error;
    EXPECT_FALSE(cache.loadSnapshot(tempPath("missing"), &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// --- Env parsing --------------------------------------------------

TEST(ResultCacheEnv, UnsetOrEmptyDisables)
{
    EXPECT_EQ(parseResultCacheMbEnv(nullptr), 0u);
    EXPECT_EQ(parseResultCacheMbEnv(""), 0u);
    EXPECT_EQ(parseResultCacheMbEnv("0"), 0u);
    EXPECT_EQ(parseResultCacheMbEnv("64"), 64u);
    EXPECT_EQ(parseResultCacheMbEnv(" 16 "), 16u);
}

// --- Concurrency hammer (TSan job) --------------------------------

TEST(ResultCacheConcurrency, HammerLeadersFollowersAndEviction)
{
    // A deliberately tiny cache over a small key space: every probe
    // races hits, flights, insertions and evictions across shards.
    ResultCacheConfig cfg;
    cfg.capacityBytes = 8192;
    cfg.shards = 4;
    ResultCache cache(cfg);
    constexpr int kThreads = 8;
    constexpr int kIters = 300;

    std::atomic<std::uint64_t> served{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const int cores = 1 + (t + i) % 5;
                const auto probe =
                    cache.begin(makeRequest(cores));
                switch (probe.kind) {
                case ResultCache::Probe::Kind::Hit:
                    served.fetch_add(1);
                    break;
                case ResultCache::Probe::Kind::Leader:
                    cache.publish(probe, true,
                                  std::string(64, 'a' + cores));
                    break;
                case ResultCache::Probe::Kind::Follower: {
                    bool ok = false;
                    std::string body;
                    if (cache.waitFollower(
                            probe,
                            std::chrono::steady_clock::now() +
                                std::chrono::seconds(5),
                            &ok, &body) ==
                        ResultCache::WaitOutcome::Ready)
                        served.fetch_add(1);
                    break;
                }
                case ResultCache::Probe::Kind::Bypass:
                    break;
                }
                if (i % 64 == 0) {
                    (void)cache.entries();
                    (void)cache.bytes();
                    (void)cache.counters();
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const auto counters = cache.counters();
    EXPECT_EQ(counters.hits + counters.collapsed, served.load());
    EXPECT_GT(counters.insertions, 0u);
}

} // anonymous namespace
} // namespace jitsched
