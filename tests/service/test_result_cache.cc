/**
 * @file
 * The request-level result cache (service/result_cache.hh): key
 * canonicalization, LRU eviction determinism, the daemon's cache
 * path over loopback, snapshot round trips and strict rejection of
 * damaged snapshot files, plus a TSan-aimed
 * concurrency hammer (this suite runs under the `service` label the
 * TSan job builds with -fsanitize=thread).
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "service/client.hh"
#include "service/result_cache.hh"
#include "service/server.hh"
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

void
put(ResultCache &cache, const ServiceRequest &req, std::string body)
{
    cache.insert(ResultCache::Key(req), std::move(body));
}

std::optional<std::string>
get(ResultCache &cache, const ServiceRequest &req)
{
    return cache.lookup(ResultCache::Key(req));
}

std::size_t
shardOf(const ServiceRequest &req)
{
    return ResultCache::keyHash(ResultCache::keyMaterial(req)) %
           ResultCache::kShards;
}

/** Send @p req on a fresh connection to @p port; the raw answer. */
std::string
sendRaw(std::uint16_t port, const ServiceRequest &req)
{
    ServiceClient client;
    std::string error;
    EXPECT_TRUE(client.connect("127.0.0.1", port, &error)) << error;
    const auto raw = client.callRaw(requestText(req), &error);
    EXPECT_TRUE(raw.has_value()) << error;
    return raw.value_or("");
}

ServiceResponse
parseFrame(const std::string &frame)
{
    std::istringstream is(frame);
    std::string error;
    const auto resp = tryReadResponse(is, &error);
    EXPECT_TRUE(resp.has_value()) << error << "\n" << frame;
    return resp.value_or(ServiceResponse{});
}

/** The frame's lines between the response header and `stats`. */
std::string
bodyAboveStats(const std::string &frame)
{
    std::istringstream is(frame);
    std::string line;
    std::getline(is, line); // jitsched-response <id>
    std::string out;
    while (std::getline(is, line) && line.rfind("stats ", 0) != 0)
        out += line + "\n";
    return out;
}

ServerConfig
cacheOnConfig()
{
    ServerConfig cfg;
    cfg.resultCacheBytes = std::size_t(16) << 20;
    // A handler serves one connection at a time: enough of them for
    // every concurrent client below.
    cfg.handlerThreads = 8;
    return cfg;
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
    ResultCache cache(0);
    EXPECT_FALSE(cache.enabled());
    put(cache, makeRequest(), "makespan 11\n");
    EXPECT_FALSE(get(cache, makeRequest()).has_value());
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.counters().hits, 0u);
    EXPECT_EQ(cache.counters().misses, 0u);
    EXPECT_EQ(cache.counters().insertions, 0u);
}

TEST(ResultCache, LeaderPublishesThenHits)
{
    // A miss, then the solved body inserted, then a hit.
    ResultCache cache(1 << 20);
    EXPECT_FALSE(get(cache, makeRequest()).has_value());
    put(cache, makeRequest(), "makespan 11\n");

    EXPECT_EQ(get(cache, makeRequest()), "makespan 11\n");
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.counters().hits, 1u);
    EXPECT_EQ(cache.counters().misses, 1u);
    EXPECT_EQ(cache.counters().insertions, 1u);

    // A second insert of a stored key leaves the entry as it was.
    put(cache, makeRequest(), "makespan 99\n");
    EXPECT_EQ(get(cache, makeRequest()), "makespan 11\n");
    EXPECT_EQ(cache.counters().insertions, 1u);
}

TEST(ResultCache, EvictionIsDeterministicLru)
{
    // Three keys that share a shard, so its LRU order is theirs;
    // each body is padded to one charge, and each shard holds
    // exactly two charges.
    std::vector<ServiceRequest> reqs;
    for (int cores = 1; reqs.size() < 3; ++cores)
        if (reqs.empty() || shardOf(makeRequest(cores)) ==
                                shardOf(reqs.front()))
            reqs.push_back(makeRequest(cores));
    constexpr std::size_t kCharge = 4096;
    const auto body = [](const ServiceRequest &req) {
        return std::string(
            kCharge - 64 - ResultCache::keyMaterial(req).size(), 'x');
    };
    ResultCache cache(ResultCache::kShards * (2 * kCharge + kCharge / 2));

    put(cache, reqs[0], body(reqs[0]));
    put(cache, reqs[1], body(reqs[1]));
    // Touch entry #0 so entry #1 is the LRU tail...
    EXPECT_TRUE(get(cache, reqs[0]).has_value());
    // ...and inserting #2 must evict exactly #1.
    put(cache, reqs[2], body(reqs[2]));

    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_TRUE(get(cache, reqs[0]).has_value());
    EXPECT_TRUE(get(cache, reqs[2]).has_value());
    EXPECT_FALSE(get(cache, reqs[1]).has_value());
}

TEST(ResultCache, OversizedBodiesServeButNeverStore)
{
    // 4096 bytes over 8 shards: no entry above 512 bytes is stored.
    ResultCache cache(4096);
    put(cache, makeRequest(), std::string(1024, 'y'));

    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.counters().oversized, 1u);
}

// --- The daemon's result-cache path (loopback) --------------------

TEST(ResultCache, ErrorBodiesAreNotStored)
{
    // Only ok answers enter the store: an error is answered again,
    // never replayed.
    ServiceEngine engine;
    ServiceServer server(engine, cacheOnConfig());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceRequest req = makeRequest();
    req.policy = "no-such-policy";
    for (int round = 0; round < 2; ++round) {
        const ServiceResponse resp =
            parseFrame(sendRaw(server.port(), req));
        EXPECT_FALSE(resp.ok);
        EXPECT_EQ(resp.code, errcode::invalidArgument);
        EXPECT_EQ(resp.stats.resultCache, 0u);
    }
    EXPECT_EQ(server.resultCache().entries(), 0u);
    server.stop();
}

class ResultCacheLoopback : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string error;
        ASSERT_TRUE(server_.start(&error)) << error;
    }

    void TearDown() override { server_.stop(); }

    ServiceEngine engine_;
    ServiceServer server_{engine_, cacheOnConfig()};
};

TEST_F(ResultCacheLoopback, RepeatIsAByteIdenticalStoreHit)
{
    ServiceRequest req = makeRequest();
    req.id = 7;
    req.traceId = 0x71;
    const std::string fresh = sendRaw(server_.port(), req);

    // Only the non-semantic fields differ: a store hit.
    ServiceRequest repeat = req;
    repeat.id = 8;
    repeat.traceId = 0x72;
    repeat.options.deadlineMs = 10'000;
    const std::string hit = sendRaw(server_.port(), repeat);

    const ServiceResponse fresh_resp = parseFrame(fresh);
    const ServiceResponse hit_resp = parseFrame(hit);
    ASSERT_TRUE(fresh_resp.ok) << fresh_resp.error;
    ASSERT_TRUE(hit_resp.ok) << hit_resp.error;
    EXPECT_EQ(fresh_resp.stats.resultCache, 0u);
    EXPECT_EQ(hit_resp.stats.resultCache, 1u);
    EXPECT_EQ(hit_resp.id, 8u);
    EXPECT_EQ(hit_resp.stats.traceId, 0x72u);
    EXPECT_EQ(bodyAboveStats(hit), bodyAboveStats(fresh));
}

TEST_F(ResultCacheLoopback, SpentDeadlineAnswerIsNotStored)
{
    ServiceRequest spent = makeRequest();
    spent.options.deadlineMs = 0;
    const ServiceResponse expired =
        parseFrame(sendRaw(server_.port(), spent));
    EXPECT_FALSE(expired.ok);
    EXPECT_EQ(expired.code, errcode::deadlineExceeded);
    EXPECT_EQ(server_.resultCache().entries(), 0u);

    // The next plain request is a fresh solve, then stored.
    const ServiceResponse plain =
        parseFrame(sendRaw(server_.port(), makeRequest()));
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_EQ(plain.stats.resultCache, 0u);
    EXPECT_EQ(server_.resultCache().entries(), 1u);
}

TEST_F(ResultCacheLoopback, ConcurrentIdenticalRequestsAgreeThenHit)
{
    // Eight clients send one key nothing has solved yet, at once.
    constexpr std::size_t kClients = 8;
    ServiceRequest req = makeRequest(2);
    req.policy = "lower-bound";
    std::vector<std::string> frames(kClients);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            ServiceRequest mine = req;
            mine.id = 100 + i;
            frames[i] = sendRaw(server_.port(), mine);
        });
    for (std::thread &t : threads)
        t.join();

    for (std::size_t i = 0; i < kClients; ++i) {
        const ServiceResponse resp = parseFrame(frames[i]);
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_EQ(resp.id, 100 + i);
        EXPECT_EQ(bodyAboveStats(frames[i]), bodyAboveStats(frames[0]));
    }
    // Whatever raced above, the answer is stored now.
    const ServiceResponse ninth =
        parseFrame(sendRaw(server_.port(), req));
    EXPECT_EQ(ninth.stats.resultCache, 1u);
    EXPECT_EQ(server_.resultCache().entries(), 1u);
}

// --- Snapshots ----------------------------------------------------

TEST(ResultCacheSnapshot, RoundTripPreservesEntriesAndLruOrder)
{
    const std::string path = tempPath("roundtrip");
    ResultCache cache(1 << 20);
    for (int cores : {1, 2, 3})
        put(cache, makeRequest(cores),
            "makespan 1" + std::to_string(cores) + "\n");

    std::size_t entries = 0;
    std::string error;
    ASSERT_TRUE(cache.saveSnapshot(path, &error, &entries)) << error;
    EXPECT_EQ(entries, 3u);
    EXPECT_EQ(cache.counters().snapshotSaves, 1u);

    ResultCache reloaded(1 << 20);
    std::size_t loaded = 0;
    ASSERT_TRUE(reloaded.loadSnapshot(path, &error, &loaded))
        << error;
    EXPECT_EQ(loaded, 3u);
    EXPECT_EQ(reloaded.entries(), 3u);
    for (int cores : {1, 2, 3})
        EXPECT_EQ(get(reloaded, makeRequest(cores)),
                  "makespan 1" + std::to_string(cores) + "\n");
    std::remove(path.c_str());
}

TEST(ResultCacheSnapshot, VersionSkewIsRejectedWholesale)
{
    const std::string path = tempPath("skew");
    ResultCache cache(1 << 20);
    put(cache, makeRequest(), "makespan 11\n");
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

    ResultCache reloaded(1 << 20);
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
    ResultCache cache(1 << 20);
    for (int cores : {1, 2})
        put(cache, makeRequest(cores), "makespan 11\n");
    ASSERT_TRUE(cache.saveSnapshot(path));

    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() / 2);

    ResultCache reloaded(1 << 20);
    std::string error;
    EXPECT_FALSE(reloaded.loadSnapshot(path, &error));
    EXPECT_EQ(reloaded.entries(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCacheSnapshot, CorruptPayloadFailsTheChecksum)
{
    const std::string path = tempPath("corrupt");
    ResultCache cache(1 << 20);
    put(cache, makeRequest(), "makespan 11\n");
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

    ResultCache reloaded(1 << 20);
    std::string error;
    EXPECT_FALSE(reloaded.loadSnapshot(path, &error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    EXPECT_EQ(reloaded.entries(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCacheSnapshot, MissingFileIsAnError)
{
    ResultCache cache(1 << 20);
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
    // A deliberately tiny cache over a key space larger than it:
    // every thread races lookups, duplicate inserts and evictions
    // across shards.
    constexpr int kThreads = 8;
    constexpr int kIters = 300;
    constexpr int kKeys = 24;
    const std::size_t charge =
        ResultCache::keyMaterial(makeRequest(kKeys)).size() + 64 + 64;
    ResultCache cache(ResultCache::kShards * 2 * charge);

    std::atomic<std::uint64_t> hits{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const int cores = 1 + (t + i) % kKeys;
                const std::string expect(64, 'a' + cores);
                ResultCache::Key key(makeRequest(cores));
                if (const auto body = cache.lookup(key)) {
                    EXPECT_EQ(*body, expect);
                    hits.fetch_add(1);
                } else {
                    cache.insert(std::move(key), expect);
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
    EXPECT_EQ(counters.hits, hits.load());
    EXPECT_EQ(counters.hits + counters.misses,
              std::uint64_t(kThreads) * kIters);
    EXPECT_GT(counters.insertions, 0u);
    EXPECT_GT(counters.evictions, 0u);
}

} // anonymous namespace
} // namespace jitsched
