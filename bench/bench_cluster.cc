/**
 * @file
 * Load generator for the sharded scheduling cluster: an in-process
 * ClusterHarness (N jitschedd backends behind one router), hammered
 * by concurrent clients through the router's port.
 *
 * Four questions, one table each, all landing in BENCH_cluster.json:
 *
 *   scaling    tail latency of a mixed stream for 1 / 2 / 4 shards
 *   affinity   cluster-wide ResultCache hit rate of fingerprint-affine
 *              routing vs round-robin on the same 2-backend stream,
 *              backends cache-enabled — the number that justifies the
 *              consistent-hash ring
 *   bounce     a backend killed and restarted mid-run: every request
 *              must still be answered (errors stays 0) while the
 *              router ejects, spills, and re-admits
 *   result     a repeated astar stream against cache-enabled backends
 *   cache      (ServerConfig::resultCacheBytes): responses split into
 *              miss path (fresh exact solves) and hit path (replayed
 *              serialized responses) by the `result-cache` stats
 *              marker the backends emit and the router relays
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/harness.hh"
#include "harness.hh"
#include "service/client.hh"
#include "support/logging.hh"
#include "trace/synthetic.hh"

using namespace jitsched;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 8;
constexpr std::size_t kRequestsPerClient = 24;

/** ResultCache budget of each backend in the cache-enabled scenarios. */
constexpr std::size_t kCacheBytes = std::size_t(64) << 20;

Workload
makeWorkload(std::uint64_t variant)
{
    SyntheticConfig cfg;
    cfg.name = "cluster-" + std::to_string(variant);
    cfg.numFunctions = 60;
    cfg.numCalls = 1500;
    cfg.seed = 2000 + variant;
    return generateSynthetic(cfg);
}

/**
 * Harness knobs tuned so a mid-run bounce resolves in ms.
 * @param cacheBytes each backend's ResultCache budget; 0 = off
 */
cluster::ClusterHarnessConfig
clusterConfig(std::size_t backends, cluster::RoutingMode mode,
              std::size_t cacheBytes = 0)
{
    cluster::ClusterHarnessConfig cfg;
    cfg.backend.resultCacheBytes = cacheBytes;
    cfg.backends = backends;
    cfg.router.mode = mode;
    cfg.router.maxTries = 4;
    cfg.router.backoffBaseMs = 1;
    cfg.router.backoffMaxMs = 10;
    cfg.router.pool.connectTimeoutMs = 500;
    cfg.router.pool.probeIntervalMs = 10;
    cfg.router.pool.health.suspectAfter = 1;
    cfg.router.pool.health.downAfter = 2;
    cfg.router.pool.health.probeDelayMs = 50;
    cfg.router.pool.health.probeSuccesses = 1;
    return cfg;
}

struct ScenarioResult
{
    std::vector<double> latenciesMs;
    double elapsedSec = 0.0;
    std::uint64_t errors = 0;
    double cacheHitRate = 0.0;
    std::uint64_t spilled = 0;
    std::uint64_t failed = 0;
    std::uint64_t readmissions = 0;
};

/** ResultCache hit rate over every backend; 0 when caches are off. */
double
clusterHitRate(cluster::ClusterHarness &cluster)
{
    std::uint64_t hits = 0, misses = 0;
    for (std::size_t b = 0; b < cluster.backendCount(); ++b) {
        const ResultCache::Counters rc =
            cluster.backendServer(b).resultCache().counters();
        hits += rc.hits + rc.collapsed;
        misses += rc.misses;
    }
    return hits + misses > 0
               ? static_cast<double>(hits) /
                     static_cast<double>(hits + misses)
               : 0.0;
}

/**
 * Drive the standard client fleet against @p cluster's router.
 * @param pick maps (client, request index) to a workload variant;
 *        equal variants are identical requests and can share cache
 *        entries on whichever backend serves them
 */
ScenarioResult
runScenario(cluster::ClusterHarness &cluster,
            std::uint64_t (*pick)(std::size_t, std::size_t))
{
    ScenarioResult result;
    std::mutex merge_mutex;

    const auto begin = Clock::now();
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServiceClient client;
            std::string error;
            if (!client.connect("127.0.0.1", cluster.routerPort(),
                                &error))
                JITSCHED_FATAL("connect: ", error);
            std::vector<double> local;
            std::uint64_t local_errors = 0;
            for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
                ServiceRequest req;
                req.id = c * kRequestsPerClient + i + 1;
                req.policy = "iar";
                req.workload = makeWorkload(pick(c, i));
                const auto t0 = Clock::now();
                auto resp = client.call(req, &error);
                const auto t1 = Clock::now();
                if (!resp)
                    JITSCHED_FATAL("call: ", error);
                if (!resp->ok)
                    ++local_errors;
                local.push_back(
                    std::chrono::duration<double, std::milli>(
                        t1 - t0)
                        .count());
            }
            std::lock_guard<std::mutex> lk(merge_mutex);
            result.latenciesMs.insert(result.latenciesMs.end(),
                                      local.begin(), local.end());
            result.errors += local_errors;
        });
    }
    for (std::thread &t : clients)
        t.join();
    result.elapsedSec =
        std::chrono::duration<double>(Clock::now() - begin).count();
    result.cacheHitRate = clusterHitRate(cluster);
    result.spilled = cluster.router().requestsSpilled();
    result.failed = cluster.router().requestsFailed();
    for (std::size_t b = 0; b < cluster.backendCount(); ++b)
        result.readmissions +=
            cluster.router().pool().readmissions(b);
    return result;
}

/**
 * Small instances for the result-cache scenario: astar solves these
 * exactly in milliseconds, so the miss path is a real exact search.
 */
Workload
makeAstarWorkload(std::uint64_t variant)
{
    SyntheticConfig cfg;
    cfg.name = "cluster-astar-" + std::to_string(variant);
    cfg.numFunctions = 6;
    cfg.numCalls = 40;
    cfg.numLevels = 3;
    cfg.numPhases = 2;
    cfg.seed = 4000 + variant;
    return generateSynthetic(cfg);
}

/** The repeated astar stream, split by how each response was served. */
struct ResultCachePhase
{
    std::vector<double> missMs; ///< fresh solves (result-cache absent)
    std::vector<double> hitMs;  ///< store hits (result-cache 1)
    std::uint64_t collapsed = 0; ///< singleflight followers (2)
    std::uint64_t errors = 0;
    double elapsedSec = 0.0;
};

ResultCachePhase
runResultCachePhase(cluster::ClusterHarness &cluster)
{
    ResultCachePhase phase;
    std::mutex merge_mutex;

    const auto begin = Clock::now();
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServiceClient client;
            std::string error;
            if (!client.connect("127.0.0.1", cluster.routerPort(),
                                &error))
                JITSCHED_FATAL("connect: ", error);
            std::vector<double> miss, hit;
            std::uint64_t collapsed = 0, errors = 0;
            for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
                ServiceRequest req;
                req.id = 20'000 + c * kRequestsPerClient + i;
                req.policy = "astar";
                req.options.compileCores = 2;
                // Client c alternates between its two private
                // variants: two first-touch misses, then hits.
                // Fingerprint-affine routing keeps each variant on
                // one backend, so the repeats find its cache entry.
                req.workload =
                    makeAstarWorkload(c * 2 + (i % 2));
                const auto t0 = Clock::now();
                auto resp = client.call(req, &error);
                const auto t1 = Clock::now();
                if (!resp)
                    JITSCHED_FATAL("call: ", error);
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        t1 - t0)
                        .count();
                if (!resp->ok)
                    ++errors;
                else if (resp->stats.resultCache == 1)
                    hit.push_back(ms);
                else if (resp->stats.resultCache == 2)
                    ++collapsed;
                else
                    miss.push_back(ms);
            }
            std::lock_guard<std::mutex> lk(merge_mutex);
            phase.missMs.insert(phase.missMs.end(), miss.begin(),
                                miss.end());
            phase.hitMs.insert(phase.hitMs.end(), hit.begin(),
                               hit.end());
            phase.collapsed += collapsed;
            phase.errors += errors;
        });
    }
    for (std::thread &t : clients)
        t.join();
    phase.elapsedSec =
        std::chrono::duration<double>(Clock::now() - begin).count();
    return phase;
}

std::uint64_t
pickMixed(std::size_t c, std::size_t i)
{
    // 1-in-5 requests is fresh; the rest cycle a small hot set.
    if ((c + i) % 5 == 0)
        return 100 + c * kRequestsPerClient + i;
    return (c + i) % 4;
}

std::uint64_t
pickPairs(std::size_t c, std::size_t i)
{
    // Every variant appears exactly twice, back to back in one
    // client's stream: the second occurrence is a cache hit only if
    // the router sends it to the same backend as the first — the
    // sharpest affinity-vs-round-robin discriminator.
    return c * 1000 + i / 2;
}

LatencyRow
toRow(const std::string &label, const ScenarioResult &r)
{
    LatencyRow row;
    row.label = label;
    row.latency = summarizeLatencies(r.latenciesMs);
    if (r.elapsedSec > 0.0)
        row.throughputPerSec =
            static_cast<double>(r.latenciesMs.size()) / r.elapsedSec;
    return row;
}

void
writeScenarioJson(JsonWriter &j, const std::string &label,
                  std::size_t backends, const std::string &mode,
                  const ScenarioResult &r)
{
    const LatencySummary l = summarizeLatencies(r.latenciesMs);
    j.beginObject();
    j.member("label", label);
    j.member("backends", std::uint64_t(backends));
    j.member("mode", mode);
    j.member("requests", std::uint64_t(l.count));
    j.member("errors", r.errors);
    j.member("p50Ms", l.p50Ms);
    j.member("p95Ms", l.p95Ms);
    j.member("p99Ms", l.p99Ms);
    j.member("meanMs", l.meanMs);
    j.member("throughputPerSec",
             r.elapsedSec > 0.0
                 ? static_cast<double>(l.count) / r.elapsedSec
                 : 0.0);
    j.member("cacheHitRate", r.cacheHitRate);
    j.member("spilled", r.spilled);
    j.member("failed", r.failed);
    j.member("readmissions", r.readmissions);
    j.endObject();
}

} // anonymous namespace

int
main()
{
    std::cout << "cluster bench: " << kClients << " clients x "
              << kRequestsPerClient
              << " requests per scenario, policy iar\n\n";

    const char *json_path = "BENCH_cluster.json";
    std::ofstream out(json_path);
    JsonWriter j(out);
    j.beginObject();
    j.member("bench", "cluster");
    j.member("policy", "iar");
    j.member("clients", std::uint64_t(kClients));
    j.member("requestsPerClient",
             std::uint64_t(kRequestsPerClient));
    j.key("scenarios").beginArray();

    std::vector<LatencyRow> rows;

    // --- Scaling: the same mixed stream against 1 / 2 / 4 shards.
    for (const std::size_t backends : {1u, 2u, 4u}) {
        cluster::ClusterHarness cluster(clusterConfig(
            backends, cluster::RoutingMode::Affinity));
        std::string error;
        if (!cluster.start(&error))
            JITSCHED_FATAL("cluster start: ", error);
        const ScenarioResult r = runScenario(cluster, pickMixed);
        const std::string label =
            "mixed, " + std::to_string(backends) + " backend(s)";
        rows.push_back(toRow(label, r));
        writeScenarioJson(j, label, backends, "affinity", r);
        if (r.errors != 0)
            JITSCHED_FATAL("scaling scenario served errors");
    }

    // --- Affinity vs round-robin, identical 2-backend pair stream,
    // scored by the backends' result caches.
    double affinity_rate = 0.0, rr_rate = 0.0;
    {
        cluster::ClusterHarness cluster(clusterConfig(
            2, cluster::RoutingMode::Affinity, kCacheBytes));
        std::string error;
        if (!cluster.start(&error))
            JITSCHED_FATAL("cluster start: ", error);
        const ScenarioResult r = runScenario(cluster, pickPairs);
        affinity_rate = r.cacheHitRate;
        rows.push_back(toRow("pairs, 2 backends, affinity", r));
        writeScenarioJson(j, "pairs, 2 backends, affinity", 2,
                          "affinity", r);
    }
    {
        cluster::ClusterHarness cluster(clusterConfig(
            2, cluster::RoutingMode::RoundRobin, kCacheBytes));
        std::string error;
        if (!cluster.start(&error))
            JITSCHED_FATAL("cluster start: ", error);
        const ScenarioResult r = runScenario(cluster, pickPairs);
        rr_rate = r.cacheHitRate;
        rows.push_back(toRow("pairs, 2 backends, round-robin", r));
        writeScenarioJson(j, "pairs, 2 backends, round-robin", 2,
                          "round-robin", r);
    }

    // --- Bounce: kill one of two backends mid-run, restart it, and
    // require that not a single request was failed or answered with
    // an error.
    {
        cluster::ClusterHarness cluster(
            clusterConfig(2, cluster::RoutingMode::Affinity));
        std::string error;
        if (!cluster.start(&error))
            JITSCHED_FATAL("cluster start: ", error);

        std::thread bouncer([&cluster] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            cluster.killBackend(1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(150));
            std::string restart_error;
            if (!cluster.restartBackend(1, &restart_error))
                JITSCHED_FATAL("restart: ", restart_error);
        });
        const ScenarioResult r = runScenario(cluster, pickMixed);
        bouncer.join();
        rows.push_back(toRow("mixed, 2 backends, one bounced", r));
        writeScenarioJson(j, "mixed, 2 backends, one bounced", 2,
                          "affinity", r);
        if (r.errors != 0 || r.failed != 0)
            JITSCHED_FATAL("bounce scenario dropped requests: ",
                           r.errors, " errors, ", r.failed,
                           " failed");
    }

    j.endArray();

    // --- Result cache: a repeated astar stream against two
    // cache-enabled backends behind affinity routing.
    ResultCachePhase cache_phase;
    std::uint64_t rc_hits = 0, rc_misses = 0, rc_collapsed = 0,
                  rc_insertions = 0;
    {
        cluster::ClusterHarness cluster(clusterConfig(
            2, cluster::RoutingMode::Affinity, kCacheBytes));
        std::string error;
        if (!cluster.start(&error))
            JITSCHED_FATAL("cluster start: ", error);
        cache_phase = runResultCachePhase(cluster);
        if (cache_phase.errors != 0)
            JITSCHED_FATAL("result-cache scenario served errors: ",
                           cache_phase.errors);
        for (std::size_t b = 0; b < cluster.backendCount(); ++b) {
            const ResultCache::Counters rc =
                cluster.backendServer(b).resultCache().counters();
            rc_hits += rc.hits;
            rc_misses += rc.misses;
            rc_collapsed += rc.collapsed;
            rc_insertions += rc.insertions;
        }
    }
    LatencyRow rc_miss_row, rc_hit_row;
    rc_miss_row.label = "astar repeated, miss path";
    rc_miss_row.latency = summarizeLatencies(cache_phase.missMs);
    rc_hit_row.label = "astar repeated, hit path";
    rc_hit_row.latency = summarizeLatencies(cache_phase.hitMs);
    rows.push_back(rc_miss_row);
    rows.push_back(rc_hit_row);
    const std::uint64_t rc_served = cache_phase.missMs.size() +
                                    cache_phase.hitMs.size() +
                                    cache_phase.collapsed;
    const double rc_hit_rate =
        rc_served > 0
            ? static_cast<double>(cache_phase.hitMs.size() +
                                  cache_phase.collapsed) /
                  static_cast<double>(rc_served)
            : 0.0;
    const double rc_speedup =
        rc_hit_row.latency.p50Ms > 0.0
            ? rc_miss_row.latency.p50Ms / rc_hit_row.latency.p50Ms
            : 0.0;

    j.key("resultCache").beginObject();
    j.member("policy", "astar");
    j.member("backends", std::uint64_t(2));
    j.member("mode", "affinity");
    j.member("requests", rc_served);
    j.member("hitRate", rc_hit_rate);
    j.member("missP50Ms", rc_miss_row.latency.p50Ms);
    j.member("missP95Ms", rc_miss_row.latency.p95Ms);
    j.member("missP99Ms", rc_miss_row.latency.p99Ms);
    j.member("hitP50Ms", rc_hit_row.latency.p50Ms);
    j.member("hitP95Ms", rc_hit_row.latency.p95Ms);
    j.member("hitP99Ms", rc_hit_row.latency.p99Ms);
    j.member("speedupP50", rc_speedup);
    j.member("hits", rc_hits);
    j.member("misses", rc_misses);
    j.member("collapsed", rc_collapsed);
    j.member("insertions", rc_insertions);
    j.endObject();

    j.key("affinityVsRoundRobin").beginObject();
    j.member("affinityHitRate", affinity_rate);
    j.member("roundRobinHitRate", rr_rate);
    j.member("affinityWins", affinity_rate > rr_rate);
    j.endObject();
    j.endObject();
    out << "\n";

    printLatencyTable("cluster latency through the router", rows);
    std::cout << "result cache: hit rate " << rc_hit_rate << " ("
              << cache_phase.hitMs.size() << " hits, "
              << cache_phase.collapsed << " collapsed, "
              << cache_phase.missMs.size()
              << " misses), hit-path p50 speedup " << rc_speedup
              << "x\n";
    std::cout << "affinity hit rate " << affinity_rate
              << " vs round-robin " << rr_rate << "\n";
    std::cout << "Wrote " << json_path << "\n";
    if (affinity_rate <= rr_rate)
        JITSCHED_FATAL("affinity did not beat round-robin");
    return 0;
}
