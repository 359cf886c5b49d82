/**
 * @file
 * Shared-memory parallel anytime A* over the schedule-tree of Fig. 4
 * — an HDA*-style (hash-distributed A*) search.  This is the only A*
 * expansion loop in the tree: aStarOptimal() (core/astar.hh) runs it
 * with one worker and no deadline, under the refuse-on-budget
 * contract.
 *
 * Each of T workers owns a private open list, node arena and
 * duplicate table.  A generated child is routed to the worker that
 * owns the hash of its exact duplicate-detection key — the
 * (signature, resume call, pinned resume clock, compile end) tuple of
 * core/prefix_sim.hh — via a lock-free MPSC inbox
 * (exec/mpsc_queue.hh).  Because duplicates share the key, they share
 * the hash, land on the same worker, and are deduplicated by its
 * private table: the distributed search prunes exactly the states a
 * single worker does, with no shared hash table.
 *
 * The search is *anytime*: it seeds an incumbent upper bound from the
 * IAR schedule (core/iar.hh, iarUpperBound) and every worker prunes
 * generated nodes with f >= incumbent; closing a leaf below the bound
 * tightens the global incumbent (atomic).  Closing leaves are priced
 * inline and never stored.  Run to completion the result cost is
 * bit-identical to aStarOptimal(): pruned nodes cannot
 * beat the retained incumbent, and at quiescence no live node could
 * improve on it, so the incumbent *is* the optimum.  When a budget
 * trips first (wall-clock deadline, memory, expansion cap) the search
 * returns AStarStatus::Incumbent with the best schedule found and an
 * optimality-gap bound instead of failing.
 *
 * Termination detection: a single atomic live-node counter.  Sending
 * a child increments it *before* the expanded parent decrements
 * itself, so the counter can never transiently read zero while work
 * exists; once it reaches zero it stays zero, and every worker
 * observes quiescence.  A worker whose open-list minimum reaches the
 * incumbent drops its whole list (all entries are provably unable to
 * improve), which is what lets pruned searches quiesce early.
 *
 * Determinism: the final cost (and with threads == 1, every counter)
 * is deterministic; with T > 1 the expansion order, node counts and
 * which optimal-cost schedule is returned may vary run to run.
 */

#ifndef JITSCHED_CORE_ASTAR_PAR_HH
#define JITSCHED_CORE_ASTAR_PAR_HH

#include "core/astar.hh"

namespace jitsched {

/**
 * Hash-distributed parallel anytime A*.
 *
 * Honors AStarConfig::{threads, memoryBudget, maxExpansions,
 * anytimeDeadlineMs, duplicateDetection}; incumbent pruning is always
 * on (it is what makes the anytime contract possible).  cfg.pool and
 * cfg.incumbentPruning are ignored.
 *
 * @returns status Optimal with the proven-optimal schedule, or
 *          Incumbent with the best-so-far schedule, its make-span and
 *          res.gapBound (see AStarResult) when a budget tripped.
 */
AStarResult aStarParallel(const Workload &w,
                          const AStarConfig &cfg = {});

} // namespace jitsched

#endif // JITSCHED_CORE_ASTAR_PAR_HH
