#include "obs/instruments.hh"

namespace jitsched {
namespace obs {

ExecMetrics &
ExecMetrics::get()
{
    static MetricsRegistry &r = MetricsRegistry::global();
    static ExecMetrics m{
        r.counter("exec.cache.hits"),
        r.counter("exec.cache.misses"),
        r.counter("exec.pool.batches"),
        r.counter("exec.pool.tasks"),
        r.counter("exec.pool.busy_ns"),
        r.gauge("exec.pool.concurrency"),
        r.counter("exec.batch.jobs"),
        r.histogram("exec.batch.sim_ns", latencyNsBounds()),
    };
    return m;
}

SolverMetrics &
SolverMetrics::get()
{
    static MetricsRegistry &r = MetricsRegistry::global();
    static SolverMetrics m{
        r.counter("solver.astar.searches"),
        r.counter("solver.astar.nodes_expanded"),
        r.counter("solver.astar.nodes_generated"),
        r.counter("solver.astar.nodes_pruned"),
        r.counter("solver.astar.evaluations"),
        r.gauge("solver.astar.peak_memory_bytes"),
        r.gauge("solver.astar.peak_arena_bytes"),
        r.counter("solver.astar_par.searches"),
        r.counter("solver.astar_par.nodes_expanded"),
        r.counter("solver.astar_par.nodes_generated"),
        r.counter("solver.astar_par.nodes_pruned"),
        r.counter("solver.astar_par.nodes_pruned_incumbent"),
        r.counter("solver.astar_par.nodes_routed"),
        r.counter("solver.astar_par.incumbent_improvements"),
        r.counter("solver.astar_par.evaluations"),
        r.gauge("solver.astar_par.peak_memory_bytes"),
        r.gauge("solver.astar_par.max_inbox_depth"),
        r.gauge("solver.astar_par.workers"),
        r.counter("solver.iar.runs"),
        r.counter("solver.iar.slack_upgrades"),
        r.counter("solver.iar.gap_appends"),
    };
    return m;
}

ServiceMetrics &
ServiceMetrics::get()
{
    static MetricsRegistry &r = MetricsRegistry::global();
    static ServiceMetrics m{
        r.counter("service.connections.accepted"),
        r.counter("service.connections.dropped"),
        r.counter("service.frames.served"),
        r.counter("service.bytes.in"),
        r.counter("service.bytes.out"),
        r.counter("service.requests.accepted"),
        r.counter("service.requests.shed"),
        r.counter("service.requests.expired"),
        r.counter("service.requests.processed"),
        r.counter("service.requests.stats"),
        r.counter("service.requests.ping"),
        r.gauge("service.queue.depth"),
        r.histogram("service.queue.wait_ns", latencyNsBounds()),
        r.counter("service.result_cache.hits"),
        r.counter("service.result_cache.misses"),
        r.counter("service.result_cache.evictions"),
        r.gauge("service.result_cache.bytes"),
        r.gauge("service.result_cache.entries"),
        r.counter("service.result_cache.snapshot_saves"),
        r.counter("service.result_cache.snapshot_loads"),
    };
    return m;
}

Histogram &
ServiceMetrics::solveNsFor(const std::string &policy)
{
    return MetricsRegistry::global().histogram(
        "service.solve_ns." + policy, latencyNsBounds());
}

ClusterMetrics &
ClusterMetrics::get()
{
    static MetricsRegistry &r = MetricsRegistry::global();
    static ClusterMetrics m{
        r.counter("cluster.connections.accepted"),
        r.counter("cluster.frames.served"),
        r.counter("cluster.frames.bad"),
        r.counter("cluster.requests.routed"),
        r.counter("cluster.requests.spilled"),
        r.counter("cluster.requests.retried"),
        r.counter("cluster.requests.hedged"),
        r.counter("cluster.requests.failed"),
        r.counter("cluster.hedge.wins"),
        r.counter("cluster.backend.ejections"),
        r.counter("cluster.backend.readmissions"),
        r.counter("cluster.probes.sent"),
        r.counter("cluster.probes.failed"),
        r.counter("cluster.pings.served"),
        r.counter("cluster.stats.served"),
    };
    return m;
}

std::string
metricSegment(const std::string &label)
{
    if (label.empty())
        return "_";
    std::string out = label;
    for (char &c : out) {
        if (c >= 'A' && c <= 'Z') {
            c = static_cast<char>(c - 'A' + 'a');
            continue;
        }
        const bool valid = (c >= 'a' && c <= 'z') ||
                           (c >= '0' && c <= '9') || c == '_' ||
                           c == '.' || c == '-';
        if (!valid)
            c = '_';
    }
    // A segment composes into a dotted path; a '.' at either edge
    // would create a leading/trailing dot the registry rejects.
    if (out.front() == '.')
        out.front() = '_';
    if (out.back() == '.')
        out.back() = '_';
    return out;
}

Histogram &
ClusterMetrics::tryNsFor(const std::string &backend_label)
{
    return MetricsRegistry::global().histogram(
        "cluster.try_ns." + metricSegment(backend_label),
        latencyNsBounds());
}

Counter &
ClusterMetrics::routedToFor(const std::string &backend_label)
{
    return MetricsRegistry::global().counter(
        "cluster.routed_to." + metricSegment(backend_label));
}

Counter &
ClusterMetrics::resultCacheHitsFor(const std::string &backend_label)
{
    return MetricsRegistry::global().counter(
        "cluster.result_cache_hits." + metricSegment(backend_label));
}

void
registerClusterInstruments(
    const std::vector<std::string> &backend_labels)
{
    ClusterMetrics::get();
    for (const std::string &label : backend_labels) {
        ClusterMetrics::tryNsFor(label);
        ClusterMetrics::routedToFor(label);
        ClusterMetrics::resultCacheHitsFor(label);
    }
}

void
registerStandardInstruments(
    const std::vector<std::string> &policy_names)
{
    ExecMetrics::get();
    SolverMetrics::get();
    ServiceMetrics::get();
    for (const std::string &name : policy_names)
        ServiceMetrics::solveNsFor(name);
}

} // namespace obs
} // namespace jitsched
