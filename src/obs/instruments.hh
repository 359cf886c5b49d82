/**
 * @file
 * The standard jitsched instrument set, grouped per subsystem.
 *
 * Each bundle is a struct of references into
 * MetricsRegistry::global(), built once on first use — hot code pays
 * one function-local-static check and then raw striped-atomic adds.
 * Keeping the bundles here (and not in each subsystem) has two
 * payoffs: the full instrument inventory is one file, and
 * registerStandardInstruments() can pre-create every instrument so a
 * STATS snapshot scraped from a fresh daemon already carries the
 * complete, deterministic key set (scripts/check.sh --obs-smoke
 * diffs it against bench/expectations/obs_keys.txt).
 *
 * This header deliberately depends on nothing outside src/obs and
 * src/support; the service layer passes its policy names in as
 * strings.
 */

#ifndef JITSCHED_OBS_INSTRUMENTS_HH
#define JITSCHED_OBS_INSTRUMENTS_HH

#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace jitsched {
namespace obs {

/** src/exec — thread pool, eval cache, batch evaluator. */
struct ExecMetrics
{
    Counter &cacheHits;       ///< exec.cache.hits
    Counter &cacheMisses;     ///< exec.cache.misses
    Counter &poolBatches;     ///< exec.pool.batches
    Counter &poolTasks;       ///< exec.pool.tasks
    Counter &poolBusyNs;      ///< exec.pool.busy_ns (batch wall time)
    Gauge &poolConcurrency;   ///< exec.pool.concurrency
    Counter &batchJobs;       ///< exec.batch.jobs
    Histogram &batchSimNs;    ///< exec.batch.sim_ns (per simulate())

    static ExecMetrics &get();
};

/** src/core — the exact solvers and IAR. */
struct SolverMetrics
{
    Counter &astarSearches;       ///< solver.astar.searches
    Counter &astarNodesExpanded;  ///< solver.astar.nodes_expanded
    Counter &astarNodesGenerated; ///< solver.astar.nodes_generated
    Counter &astarNodesPruned;    ///< solver.astar.nodes_pruned
    Counter &astarEvaluations;    ///< solver.astar.evaluations
    Gauge &astarPeakMemoryBytes;  ///< solver.astar.peak_memory_bytes
    Gauge &astarPeakArenaBytes;   ///< solver.astar.peak_arena_bytes

    // Parallel search (core/astar_par.cc).  One bulk update per
    // search from the joined result — workers touch no globals.
    Counter &astarParSearches;  ///< solver.astar_par.searches
    Counter &astarParNodesExpanded; ///< solver.astar_par.nodes_expanded
    Counter &astarParNodesGenerated; ///< solver.astar_par.nodes_generated
    Counter &astarParNodesPruned; ///< solver.astar_par.nodes_pruned
    /** solver.astar_par.nodes_pruned_incumbent */
    Counter &astarParNodesPrunedIncumbent;
    Counter &astarParNodesRouted; ///< solver.astar_par.nodes_routed
    /** solver.astar_par.incumbent_improvements */
    Counter &astarParIncumbentImprovements;
    Counter &astarParEvaluations; ///< solver.astar_par.evaluations
    /** solver.astar_par.peak_memory_bytes */
    Gauge &astarParPeakMemoryBytes;
    /** solver.astar_par.max_inbox_depth */
    Gauge &astarParMaxInboxDepth;
    Gauge &astarParWorkers; ///< solver.astar_par.workers (last run)

    Counter &iarRuns;             ///< solver.iar.runs
    Counter &iarSlackUpgrades;    ///< solver.iar.slack_upgrades
    Counter &iarGapAppends;       ///< solver.iar.gap_appends

    static SolverMetrics &get();
};

/** src/service — server (connections, admission), engine. */
struct ServiceMetrics
{
    Counter &connectionsAccepted; ///< service.connections.accepted
    Counter &connectionsDropped;  ///< service.connections.dropped
    Counter &framesServed;        ///< service.frames.served
    Counter &bytesIn;             ///< service.bytes.in
    Counter &bytesOut;            ///< service.bytes.out
    Counter &requestsAccepted;    ///< service.requests.accepted
    Counter &requestsShed;        ///< service.requests.shed
    Counter &requestsExpired;     ///< service.requests.expired
    Counter &requestsProcessed;   ///< service.requests.processed
    Counter &statsRequests;       ///< service.requests.stats
    Counter &pingRequests;        ///< service.requests.ping
    Gauge &queueDepth;            ///< service.queue.depth
    Histogram &queueWaitNs;       ///< service.queue.wait_ns

    // Request-level result cache (service/result_cache.hh).
    Counter &resultCacheHits;      ///< service.result_cache.hits
    Counter &resultCacheMisses;    ///< service.result_cache.misses
    Counter &resultCacheEvictions; ///< service.result_cache.evictions
    Gauge &resultCacheBytes;       ///< service.result_cache.bytes
    Gauge &resultCacheEntries;     ///< service.result_cache.entries
    /** service.result_cache.snapshot_saves */
    Counter &resultCacheSnapshotSaves;
    /** service.result_cache.snapshot_loads */
    Counter &resultCacheSnapshotLoads;

    static ServiceMetrics &get();

    /**
     * Per-policy solve-latency histogram,
     * `service.solve_ns.<policy>`.  Involves a registry lookup —
     * resolve once per request, not per sample.
     */
    static Histogram &solveNsFor(const std::string &policy);
};

/** src/cluster — router, backend pool, health prober. */
struct ClusterMetrics
{
    Counter &connectionsAccepted; ///< cluster.connections.accepted
    Counter &framesServed;        ///< cluster.frames.served
    Counter &badFrames;           ///< cluster.frames.bad
    Counter &requestsRouted;      ///< cluster.requests.routed
    Counter &requestsSpilled;     ///< cluster.requests.spilled
    Counter &requestsRetried;     ///< cluster.requests.retried
    Counter &requestsHedged;      ///< cluster.requests.hedged
    Counter &requestsFailed;      ///< cluster.requests.failed
    Counter &hedgeWins;           ///< cluster.hedge.wins
    Counter &backendEjections;    ///< cluster.backend.ejections
    Counter &backendReadmissions; ///< cluster.backend.readmissions
    Counter &probesSent;          ///< cluster.probes.sent
    Counter &probesFailed;        ///< cluster.probes.failed
    Counter &pingsServed;         ///< cluster.pings.served
    Counter &statsServed;         ///< cluster.stats.served

    static ClusterMetrics &get();

    /**
     * Per-backend try-latency histogram,
     * `cluster.try_ns.<address:port>`.  Registry lookup — resolve
     * once per exchange, not per sample.
     */
    static Histogram &tryNsFor(const std::string &backend_label);

    /** Per-backend routed-request counter,
     * `cluster.routed_to.<address:port>`. */
    static Counter &routedToFor(const std::string &backend_label);

    /**
     * Per-backend relayed result-cache-hit counter,
     * `cluster.result_cache_hits.<address:port>` — how many responses
     * this backend answered from its result cache (the router reads
     * the relayed frame's stats line).
     */
    static Counter &resultCacheHitsFor(
        const std::string &backend_label);
};

/**
 * Sanitize an arbitrary label (host:port, policy name, anything
 * user-supplied) into a valid instrument-name segment: A-Z is
 * lowercased, [a-z0-9_.-] pass through, every other byte (including
 * ':' and non-ASCII/UTF-8 bytes) becomes '_', leading/trailing '.'
 * become '_' (a segment must compose into a valid dotted name), and
 * an empty label yields "_".  Lossy by design: distinct labels may
 * collide (e.g. "HOST:1" and "host_1"), in which case they share one
 * instrument — acceptable for monitoring, tested in
 * tests/obs/test_instrument_names.cc.
 */
std::string metricSegment(const std::string &label);

/**
 * Pre-create the full standard instrument set (including one solve
 * histogram per name in @p policy_names) so snapshots expose a
 * complete key inventory before any traffic.  Idempotent.
 */
void registerStandardInstruments(
    const std::vector<std::string> &policy_names = {});

/**
 * Pre-create the cluster instrument set (including the per-backend
 * instruments for each label in @p backend_labels).  Separate from
 * registerStandardInstruments so jitschedd's STATS key inventory
 * stays free of router-only keys.  Idempotent.
 */
void registerClusterInstruments(
    const std::vector<std::string> &backend_labels = {});

} // namespace obs
} // namespace jitsched

#endif // JITSCHED_OBS_INSTRUMENTS_HH
