/**
 * @file
 * The traced pass: per-layer metrics measured from outside the
 * program.
 *
 *  - STATS deltas from every process, scraped before and after the
 *    window (outside the timed loop);
 *  - the `queue-ns` / `solve-ns` of every response's stats line,
 *    recorded as child spans of the client span;
 *  - an in-process replay of each distinct request through the
 *    layers' public calls (protocol, core, sim, vm), one at a time,
 *    each call wrapped in a span;
 *  - for a routed mix, each hot frame sent straight to a backend, so
 *    the router's relay cost is routed minus direct latency.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "load.hh"
#include "mixes.hh"
#include "obs/span.hh"
#include "util.hh"

namespace perfbench {

/** Counter and gauge values of one STATS scrape, summed over ports. */
using StatsSnapshot = std::map<std::string, double>;

/** Scrape STATS from every port and sum the values by name. */
StatsSnapshot scrapeStats(const std::vector<std::uint16_t> &ports);

/**
 * Names and units of the per-layer metrics, in report order.  The
 * core.astar and core.astar_par metrics exist only on exact-search,
 * the one mix that sends astar and astar-par requests.
 */
std::vector<std::pair<std::string, std::string>>
layerMetricUnits(bool exact_search);

/** Inputs of the per-layer analysis. */
struct TracedRun
{
    const Mix *mix = nullptr;
    const Window *window = nullptr;
    const CheckReport *report = nullptr;
    StatsSnapshot daemonBefore, daemonAfter;
    StatsSnapshot routerBefore, routerAfter;
    /** Backend ports, for the direct sends that price the relay. */
    std::vector<std::uint16_t> backendPorts;
    std::size_t cores = 1;
};

/**
 * Replay, price the relay, fill @p spans with the child and replay
 * spans, print the per-layer table, and return the mix's per-layer
 * metrics (a cluster or exec layer the mix leaves idle reports 0).
 * Wrong answers
 * to the direct sends are appended to @p violations.
 */
std::vector<Metric> analyzeLayers(const TracedRun &run,
                                  jitsched::obs::SpanCollector &spans,
                                  std::vector<std::string> &violations);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
