/**
 * @file
 * Load generator for the scheduling service: an in-process jitschedd
 * on an ephemeral loopback port, hammered by concurrent clients, with
 * throughput and tail latency (p50/p95/p99) reported per scenario.
 *
 * Three scenarios bracket the service's operating range on the
 * default, cache-off server, where every request pays a full solve:
 *
 *   cold    every request is a distinct workload
 *   warm    every request repeats one already-served workload — the
 *           repeat a JIT that re-asks about recurring phases sends
 *   mixed   80% repeats / 20% fresh, the expected steady state
 *
 * A fourth phase measures the request-level result cache on a second
 * server instance (JITSCHED_RESULT_CACHE_MB equivalent): a repeated
 * astar stream whose responses are split into the miss path (fresh
 * exact solves) and the hit path (serialized-response replay) by the
 * per-request `result-cache` stats marker.  The gap between those two
 * p50s is the cache's reason to exist: it is the daemon's only memo
 * layer.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"
#include "obs/instruments.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "support/logging.hh"
#include "trace/synthetic.hh"

using namespace jitsched;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 8;
constexpr std::size_t kRequestsPerClient = 32;

Workload
makeWorkload(std::uint64_t variant)
{
    SyntheticConfig cfg;
    cfg.name = "svc-" + std::to_string(variant);
    cfg.numFunctions = 60;
    cfg.numCalls = 1500;
    cfg.seed = 1000 + variant;
    return generateSynthetic(cfg);
}

struct ScenarioResult
{
    std::vector<double> latenciesMs;
    double elapsedSec = 0.0;
    std::uint64_t errors = 0;
};

/**
 * @param pick maps (client, request index) to a workload variant;
 *        equal variants are identical requests
 */
ScenarioResult
runScenario(std::uint16_t port, const std::string &policy,
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
            if (!client.connect("127.0.0.1", port, &error))
                JITSCHED_FATAL("connect: ", error);
            std::vector<double> local;
            std::uint64_t local_errors = 0;
            for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
                ServiceRequest req;
                req.id = c * kRequestsPerClient + i + 1;
                req.policy = policy;
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
    return result;
}

/**
 * Small instances for the result-cache phase: the astar policy solves
 * these exactly in milliseconds, so the miss path is a real (but
 * bounded) exact search rather than a capped refusal.
 */
Workload
makeAstarWorkload(std::uint64_t variant)
{
    SyntheticConfig cfg;
    cfg.name = "svc-astar-" + std::to_string(variant);
    cfg.numFunctions = 6;
    cfg.numCalls = 40;
    cfg.numLevels = 3;
    cfg.numPhases = 2;
    cfg.seed = 3000 + variant;
    return generateSynthetic(cfg);
}

/** The repeated astar stream, split by how each response was served. */
struct ResultCachePhase
{
    std::vector<double> missMs; ///< fresh solves (result-cache absent)
    std::vector<double> hitMs;  ///< store hits (result-cache 1)
    std::uint64_t errors = 0;
    double elapsedSec = 0.0;
};

ResultCachePhase
runResultCachePhase(std::uint16_t port)
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
            if (!client.connect("127.0.0.1", port, &error))
                JITSCHED_FATAL("connect: ", error);
            std::vector<double> miss, hit;
            std::uint64_t errors = 0;
            for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
                ServiceRequest req;
                req.id = 10'000 + c * kRequestsPerClient + i;
                req.policy = "astar";
                req.options.compileCores = 2;
                // Client c alternates between its two private
                // variants: two first-touch misses, then hits — no
                // cross-client collisions, so the miss/hit split is
                // deterministic.
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
                else
                    miss.push_back(ms);
            }
            std::lock_guard<std::mutex> lk(merge_mutex);
            phase.missMs.insert(phase.missMs.end(), miss.begin(),
                                miss.end());
            phase.hitMs.insert(phase.hitMs.end(), hit.begin(),
                               hit.end());
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
pickCold(std::size_t c, std::size_t i)
{
    return c * kRequestsPerClient + i; // all distinct
}

std::uint64_t
pickWarm(std::size_t, std::size_t)
{
    return 0; // all identical
}

std::uint64_t
pickMixed(std::size_t c, std::size_t i)
{
    // 1-in-5 requests is fresh; the rest cycle a small hot set.
    if ((c + i) % 5 == 0)
        return 100 + c * kRequestsPerClient + i;
    return (c + i) % 4;
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

} // anonymous namespace

int
main()
{
    ServiceEngine engine;
    ServiceServer server(engine);
    std::string error;
    if (!server.start(&error))
        JITSCHED_FATAL("cannot start server: ", error);
    std::cout << "service bench: " << kClients << " clients x "
              << kRequestsPerClient << " requests, policy iar, "
              << "loopback port " << server.port() << "\n\n";

    struct Scenario
    {
        std::string label;
        ScenarioResult result;
    };
    std::vector<Scenario> scenarios;
    scenarios.push_back(
        {"cold (all distinct)",
         runScenario(server.port(), "iar", pickCold)});
    scenarios.push_back(
        {"warm (all duplicate)",
         runScenario(server.port(), "iar", pickWarm)});
    scenarios.push_back(
        {"mixed (80% repeat)",
         runScenario(server.port(), "iar", pickMixed)});

    // The daemon's request counters, read before the second server
    // below adds to them (the registry is process-wide).
    const obs::ServiceMetrics &sm = obs::ServiceMetrics::get();
    const std::uint64_t accepted = sm.requestsAccepted.value();
    const std::uint64_t processed = sm.requestsProcessed.value();
    const std::uint64_t expired = sm.requestsExpired.value();
    const std::uint64_t shed = sm.requestsShed.value();

    // --- Result-cache phase: a second server with the request-level
    // result cache enabled (the first one keeps it off, measuring
    // today's default path).
    ServiceEngine cache_engine;
    ServerConfig cache_cfg;
    cache_cfg.resultCacheBytes = std::size_t(64) << 20;
    ServiceServer cache_server(cache_engine, cache_cfg);
    if (!cache_server.start(&error))
        JITSCHED_FATAL("cannot start cache server: ", error);
    const ResultCachePhase cache_phase =
        runResultCachePhase(cache_server.port());
    if (cache_phase.errors != 0)
        JITSCHED_FATAL("result-cache phase served errors: ",
                       cache_phase.errors);

    std::vector<LatencyRow> rows;
    for (const Scenario &s : scenarios)
        rows.push_back(toRow(s.label, s.result));

    LatencyRow miss_row, hit_row;
    miss_row.label = "astar repeated, miss path";
    miss_row.latency = summarizeLatencies(cache_phase.missMs);
    hit_row.label = "astar repeated, hit path";
    hit_row.latency = summarizeLatencies(cache_phase.hitMs);
    rows.push_back(miss_row);
    rows.push_back(hit_row);
    printLatencyTable("scheduling service latency", rows);

    const auto &rc = cache_server.resultCache().counters();
    const std::uint64_t rc_served = cache_phase.missMs.size() +
                                    cache_phase.hitMs.size();
    const double rc_hit_rate =
        rc_served > 0
            ? static_cast<double>(cache_phase.hitMs.size()) /
                  static_cast<double>(rc_served)
            : 0.0;
    const double rc_speedup =
        hit_row.latency.p50Ms > 0.0
            ? miss_row.latency.p50Ms / hit_row.latency.p50Ms
            : 0.0;
    std::cout << "result cache: hit rate " << rc_hit_rate << " ("
              << cache_phase.hitMs.size() << " hits, "
              << cache_phase.missMs.size()
              << " misses), hit-path p50 speedup " << rc_speedup
              << "x\n";

    std::cout << "service.requests: " << accepted
              << " accepted, " << processed << " processed, "
              << expired << " expired, " << shed << " shed\n";

    // The machine-readable artifact next to the table.
    const char *json_path = "BENCH_service.json";
    std::ofstream out(json_path);
    JsonWriter j(out);
    j.beginObject();
    j.member("bench", "service");
    j.member("policy", "iar");
    j.member("clients", std::uint64_t(kClients));
    j.member("requestsPerClient",
             std::uint64_t(kRequestsPerClient));
    j.key("scenarios").beginArray();
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const LatencySummary &l = rows[i].latency;
        j.beginObject();
        j.member("label", scenarios[i].label);
        j.member("requests", std::uint64_t(l.count));
        j.member("errors", scenarios[i].result.errors);
        j.member("p50Ms", l.p50Ms);
        j.member("p95Ms", l.p95Ms);
        j.member("p99Ms", l.p99Ms);
        j.member("meanMs", l.meanMs);
        j.member("throughputPerSec", rows[i].throughputPerSec);
        j.endObject();
    }
    j.endArray();
    j.key("requests").beginObject();
    j.member("accepted", accepted);
    j.member("processed", processed);
    j.member("expired", expired);
    j.member("shed", shed);
    j.endObject();
    j.key("resultCache").beginObject();
    j.member("policy", "astar");
    j.member("requests", rc_served);
    j.member("hitRate", rc_hit_rate);
    j.member("missP50Ms", miss_row.latency.p50Ms);
    j.member("missP95Ms", miss_row.latency.p95Ms);
    j.member("missP99Ms", miss_row.latency.p99Ms);
    j.member("hitP50Ms", hit_row.latency.p50Ms);
    j.member("hitP95Ms", hit_row.latency.p95Ms);
    j.member("hitP99Ms", hit_row.latency.p99Ms);
    j.member("speedupP50", rc_speedup);
    j.member("hits", rc.hits);
    j.member("misses", rc.misses);
    j.member("insertions", rc.insertions);
    j.member("evictions", rc.evictions);
    j.endObject();
    j.endObject();
    out << "\n";
    std::cout << "Wrote " << json_path << "\n";

    cache_server.stop();
    server.stop();
    return 0;
}
