/**
 * @file
 * A*-search for optimal compilation schedules (Sec. 5.3).
 *
 * The schedule space is modeled as the tree of Fig. 4: each node
 * appends one compile event, and per function the levels along a path
 * strictly increase.  The guiding function is the paper's
 * f(v) = b(v) + e(v): bubbles plus extra execution time committed
 * within the compile window of the prefix.  f never overestimates the
 * final cost, so once no open node has f below the best complete
 * schedule found, that schedule is optimal.
 *
 * As the paper observes (Sec. 6.2.5), the open list grows
 * exponentially with the number of unique functions; the search keeps
 * an explicit memory account and refuses with OutOfMemory when it
 * exceeds its budget (their Java implementation died at 2 GB once
 * instances had more than 6 unique methods).
 *
 * There is one search engine, in core/astar_par.cc: aStarOptimal()
 * runs it with one worker and no deadline and keeps the
 * refuse-on-budget contract; aStarParallel() (core/astar_par.hh)
 * runs it sharded across workers with the anytime contract.
 */

#ifndef JITSCHED_CORE_ASTAR_HH
#define JITSCHED_CORE_ASTAR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/schedule.hh"
#include "support/types.hh"
#include "trace/workload.hh"

namespace jitsched {

class ThreadPool;

/** Knobs of the A* search. */
struct AStarConfig
{
    /**
     * Memory budget for node storage, in bytes.  Mirrors the paper's
     * 2 GB Java heap.
     */
    std::uint64_t memoryBudget = 2ull << 30;

    /** Safety cap on node expansions (0 = unlimited). */
    std::uint64_t maxExpansions = 0;

    /**
     * Ignored.  Kept because perfbench, which must build unchanged,
     * still sets it; the search evaluates every child on its own
     * worker thread.
     */
    ThreadPool *pool = nullptr;

    /**
     * Discard a generated node when an exact duplicate state (same
     * per-function last-level signature, resume position, pinned
     * resume clock and compile end) was already generated.  Strictly
     * safety-preserving — duplicates have identical completion-cost
     * sets — and typically collapses the factorial interleavings of
     * compiles that finish ahead of need.  Workloads wider than 64
     * functions skip the table: there A* exhausts any memory budget
     * long before pruning matters, while each entry costs
     * O(#functions) bytes.
     */
    bool duplicateDetection = true;

    /**
     * Seed the search with the IAR schedule's cost as an incumbent
     * upper bound and discard any generated node whose f already
     * meets it (f >= incumbent implies every completion under the
     * node costs at least what the incumbent achieves).  The final
     * cost is bit-identical with or without the bound — when the
     * bound is tight the search simply returns the incumbent
     * schedule itself — but the explored node count can shrink by
     * orders of magnitude.  Read by aStarOptimal() only, and off
     * by default there so bench_astar's feasibility table and the
     * checked-in node-count expectations keep meaning the paper's
     * plain A*; the `astar` service policy turns it on, and
     * aStarParallel() always seeds the bound (its anytime contract
     * needs a schedule in hand).
     */
    bool incumbentPruning = false;

    /**
     * Worker count for aStarParallel() (HDA*-style hash-distributed
     * expansion); 0 = one worker per hardware thread.  aStarOptimal()
     * always runs one worker.
     */
    std::size_t threads = 1;

    /**
     * Anytime deadline for aStarParallel(), in wall-clock
     * milliseconds; 0 = none.  When the deadline (or the memory
     * budget, or the expansion cap) trips, the parallel search
     * returns the best incumbent schedule found so far plus an
     * optimality-gap bound (AStarStatus::Incumbent) instead of
     * returning empty-handed.  Ignored by aStarOptimal().
     */
    std::int64_t anytimeDeadlineMs = 0;
};

/** Why the search stopped. */
enum class AStarStatus
{
    Optimal,     ///< a provably optimal schedule was found
    OutOfMemory, ///< the node store exceeded the memory budget
    ExpansionCap, ///< maxExpansions was hit
    /**
     * Anytime stop (parallel search only): a budget tripped before
     * optimality was proven.  `schedule`, `makespan` and `gapBound`
     * are valid — the schedule is the best incumbent found, and the
     * true optimum lies within [makespan - gapBound, makespan].
     */
    Incumbent
};

/** Which budget ended an anytime (Incumbent) run. */
enum class AStarStop
{
    None,      ///< ran to completion (status != Incumbent)
    Deadline,  ///< anytimeDeadlineMs elapsed
    Memory,    ///< node store exceeded the memory budget
    Expansions ///< maxExpansions was hit
};

/** Outcome of the search. */
struct AStarResult
{
    AStarStatus status = AStarStatus::OutOfMemory;

    /** Optimal schedule (valid only when status == Optimal). */
    Schedule schedule;

    /** Its make-span (valid only when status == Optimal). */
    Tick makespan = 0;

    /** Nodes expanded (popped and branched). */
    std::uint64_t nodesExpanded = 0;

    /**
     * Nodes stored.  Closing (complete-schedule) leaves are priced
     * inline and never stored, so they are not counted here.
     */
    std::uint64_t nodesGenerated = 0;

    /** Generated nodes discarded by the duplicate-state table. */
    std::uint64_t nodesPruned = 0;

    /**
     * Prefix evaluations performed: child and closing evaluations,
     * plus one for pricing the IAR seed when the incumbent is seeded.
     */
    std::uint64_t evaluations = 0;

    /**
     * Peak accounted memory in bytes: the sum, over workers, of the
     * high-water marks of arena, open list and duplicate table.  The
     * open list is tracked by its own high-water mark — after pruning
     * (and after deep pops) its size diverges from the arena's, so
     * charging one per-node constant would misstate whichever is
     * larger.
     */
    std::uint64_t peakMemory = 0;

    /** Peak node-arena footprint (nodes * bytesPerNode). */
    std::uint64_t peakArenaBytes = 0;

    /** Peak open-list footprint (entry high-water * entry size). */
    std::uint64_t peakOpenBytes = 0;

    /** Peak duplicate-table footprint. */
    std::uint64_t peakTableBytes = 0;

    /**
     * Bytes charged per stored node, including the per-node
     * PrefixSimState and level signature — kept in the result so reports reflect what
     * the memory budget actually metered.
     */
    std::uint64_t bytesPerNode = 0;

    // ---- Incumbent / anytime fields (see AStarConfig) ----

    /** Generated nodes discarded because f >= the incumbent bound. */
    std::uint64_t nodesPrunedIncumbent = 0;

    /** Times a closed leaf improved on the incumbent. */
    std::uint64_t incumbentImprovements = 0;

    /**
     * Upper bound on `makespan - optimum` (0 when status == Optimal).
     * Derived from the smallest f still alive when an anytime run
     * stopped: no remaining node could complete below lb + minAliveF.
     */
    Tick gapBound = 0;

    /** Which budget ended an Incumbent run (None otherwise). */
    AStarStop stopCause = AStarStop::None;

    // ---- Per-worker diagnostics (one worker under aStarOptimal) ----

    /** Nodes expanded by each worker (size == worker count). */
    std::vector<std::uint64_t> workerExpansions;

    /** High-water mark of any worker's inbox depth. */
    std::uint64_t maxInboxDepth = 0;

    /** Nodes routed across workers (excludes same-worker children). */
    std::uint64_t nodesRouted = 0;

    /**
     * Incumbent-improvement trail: wall-clock seconds from search
     * start, the improved make-span, and the worker that closed the
     * improving leaf.  Entry 0 is the IAR seed when the incumbent is
     * seeded.  Feeds the trace
     * timeline (bench_astar_par --trace-out).
     */
    struct IncumbentEvent
    {
        double seconds = 0.0;
        Tick makespan = 0;
        std::uint32_t worker = 0;
    };
    std::vector<IncumbentEvent> incumbentTrail;
};

/**
 * Search for an optimal schedule (1 execution + 1 compilation core).
 *
 * Runs the core/astar_par.cc engine with one worker and no deadline
 * (cfg.threads and cfg.anytimeDeadlineMs are ignored).  A budget that
 * trips before optimality is proven is a refusal: status OutOfMemory
 * or ExpansionCap, with no schedule.  Deterministic: the same inputs
 * give the same schedule and counters.
 */
AStarResult aStarOptimal(const Workload &w,
                         const AStarConfig &cfg = {});

} // namespace jitsched

#endif // JITSCHED_CORE_ASTAR_HH
