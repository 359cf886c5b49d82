/**
 * @file
 * Reproduces Sec. 6.2.5: the (in)feasibility of A*-search.
 *
 * This is the paper's experiment.  Their Java A* (plain
 * f(v) = b(v) + e(v), 2 GB heap) solved a 6-function/50-call instance
 * after exploring 96 of ~4 billion paths and ran out of memory beyond
 * 6 unique functions.  Our implementation strengthens the heuristic
 * with the committed wait of the earliest not-yet-compiled call
 * (still admissible) and prunes exact duplicate states, which pushes
 * the wall to ~11 functions — beyond which the open list exhausts the
 * memory budget exactly as the paper describes.  Clever search
 * postpones the exponential blow-up; it cannot remove it (Theorem 2).
 * Each instance is solved twice: plain A*, and seeded with the IAR
 * incumbent bound (same optimum, fewer expansions).
 *
 * The table lands in BENCH_astar.json for machines; `--smoke` prints
 * only the deterministic counters of a fixed instance, which
 * scripts/check.sh --bench-smoke diffs against
 * bench/expectations/astar_smoke.txt.
 */

#include <cstring>
#include <fstream>
#include <iostream>

#include "core/astar.hh"
#include "core/brute_force.hh"
#include "harness.hh"
#include "support/strutil.hh"
#include "support/table.hh"
#include "trace/synthetic.hh"

using namespace jitsched;

namespace {

/**
 * An upper bound on the number of complete compilation sequences for
 * n functions at 2 levels: permutations of the 2n compile events
 * (what the paper's "12! paths" figure counts for n = 6).
 */
double
pathSpace(std::size_t n)
{
    double total = 1.0;
    for (std::size_t i = 1; i <= 2 * n; ++i)
        total *= static_cast<double>(i);
    return total;
}

Workload
feasibilityWorkload(std::size_t funcs)
{
    SyntheticConfig cfg;
    cfg.numFunctions = funcs;
    cfg.numCalls = 50 + funcs * 2;
    cfg.numLevels = 2;
    cfg.seed = 40 + funcs;
    return generateSynthetic(cfg);
}

/** One feasibility-table row, kept for the JSON artifact. */
struct FeasRow
{
    std::size_t funcs = 0;
    AStarResult res;
    AStarResult inc; ///< same search with the IAR incumbent bound
};

const char *
statusName(AStarStatus s)
{
    switch (s) {
    case AStarStatus::Optimal:
        return "optimal";
    case AStarStatus::Incumbent:
        return "incumbent";
    case AStarStatus::OutOfMemory:
        return "out-of-memory";
    case AStarStatus::ExpansionCap:
        return "expansion-cap";
    }
    return "?";
}

/**
 * Deterministic counters on fixed instances: everything here is a
 * pure function of the search code, so the expectation file pins the
 * exact node counts — any unintended change to expansion order,
 * pruning, or evaluation totals shows up as a diff.
 */
int
runSmoke()
{
    std::cout << "astar-smoke v2\n";
    for (const std::size_t funcs : {4, 5, 6}) {
        const Workload w = feasibilityWorkload(funcs);

        AStarConfig pruned;
        pruned.memoryBudget = 256ull << 20;
        const AStarResult a = aStarOptimal(w, pruned);

        AStarConfig inc = pruned;
        inc.incumbentPruning = true;
        const AStarResult c = aStarOptimal(w, inc);

        const BruteForceResult bf = bruteForceOptimal(w);

        std::cout << "workload functions=" << funcs
                  << " calls=" << w.numCalls() << "\n";
        std::cout << "  status=" << statusName(a.status)
                  << " makespan=" << a.makespan << "\n";
        std::cout << "  nodes_expanded=" << a.nodesExpanded
                  << " nodes_generated=" << a.nodesGenerated
                  << " nodes_pruned=" << a.nodesPruned
                  << " evaluations=" << a.evaluations << "\n";
        std::cout << "  incumbent_pruned_expanded="
                  << c.nodesExpanded << " incumbent_cuts="
                  << c.nodesPrunedIncumbent
                  << " incumbent_makespan_agrees="
                  << (c.status == AStarStatus::Optimal &&
                              c.makespan == a.makespan
                          ? "yes"
                          : "NO")
                  << "\n";
        std::cout << "  brute_force_agrees="
                  << (bf.complete && bf.makespan == a.makespan
                          ? "yes"
                          : "NO")
                  << "\n";
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0)
        return runSmoke();

    std::cout << "== Sec. 6.2.5: A*-search feasibility ==\n";
    std::cout << "(random 2-level instances, ~50-80 calls; memory "
                 "budget 512 MiB, expansion cap 2M as a time "
                 "guard)\n";

    AsciiTable t({"#functions", "status", "nodes expanded",
                  "dup-pruned", "inc-pruned expanded",
                  "inc reduction", "path space (2n)!",
                  "fraction explored", "peak memory",
                  "optimal == brute force"});

    std::vector<FeasRow> feas;
    for (std::size_t funcs = 3; funcs <= 11; ++funcs) {
        const Workload w = feasibilityWorkload(funcs);

        AStarConfig acfg;
        acfg.memoryBudget = 512ull << 20;
        acfg.maxExpansions = 2'000'000;
        const AStarResult res = aStarOptimal(w, acfg);

        // The same search seeded with the IAR make-span as an
        // incumbent bound: identical optimum, fewer expansions.
        AStarConfig icfg = acfg;
        icfg.incumbentPruning = true;
        const AStarResult inc = aStarOptimal(w, icfg);
        const double reduction =
            inc.nodesExpanded > 0
                ? static_cast<double>(res.nodesExpanded) /
                      static_cast<double>(inc.nodesExpanded)
                : 0.0;

        std::string matches = "-";
        if (res.status == AStarStatus::Optimal && funcs <= 5) {
            const BruteForceResult bf = bruteForceOptimal(w);
            matches = bf.complete && bf.makespan == res.makespan
                          ? "yes"
                          : "NO";
        }

        const double space = pathSpace(funcs);
        t.addRow({std::to_string(funcs), statusName(res.status),
                  formatCount(res.nodesExpanded),
                  formatCount(res.nodesPruned),
                  formatCount(inc.nodesExpanded),
                  strprintf("%.1fx", reduction),
                  strprintf("%.2e", space),
                  strprintf("%.2e",
                            static_cast<double>(res.nodesExpanded) /
                                space),
                  strprintf("%.1f MiB",
                            static_cast<double>(res.peakMemory) /
                                (1 << 20)),
                  matches});
        feas.push_back({funcs, res, inc});
    }
    t.print(std::cout);
    std::cout << "Paper reference: optimal after a tiny explored "
                 "fraction on a 6-function instance (96 paths of "
                 "~12!); out of memory (2 GB Java heap) beyond 6 "
                 "functions.  The strengthened-but-admissible "
                 "heuristic plus duplicate-state pruning shifts the "
                 "wall a few functions outward; the exponential "
                 "blow-up remains, as the strong NP-completeness "
                 "predicts.\n\n";

    // ---- Machine-readable artifact. ----
    const char *json_path = "BENCH_astar.json";
    std::ofstream out(json_path);
    JsonWriter j(out);
    j.beginObject();
    j.member("bench", "astar");
    j.member("bytes_per_node",
             feas.empty() ? std::uint64_t{0}
                          : feas.front().res.bytesPerNode);
    j.key("feasibility").beginArray();
    for (const FeasRow &r : feas) {
        j.beginObject();
        j.member("functions", static_cast<std::uint64_t>(r.funcs));
        j.member("status", statusName(r.res.status));
        j.member("nodes_expanded", r.res.nodesExpanded);
        j.member("nodes_generated", r.res.nodesGenerated);
        j.member("nodes_pruned", r.res.nodesPruned);
        j.member("evaluations", r.res.evaluations);
        j.member("peak_memory_bytes", r.res.peakMemory);
        j.member("peak_arena_bytes", r.res.peakArenaBytes);
        j.member("peak_open_bytes", r.res.peakOpenBytes);
        j.member("peak_table_bytes", r.res.peakTableBytes);
        j.member("incumbent_pruned_expanded", r.inc.nodesExpanded);
        j.member("incumbent_cuts", r.inc.nodesPrunedIncumbent);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::cout << "Wrote " << json_path << "\n";
    return 0;
}
