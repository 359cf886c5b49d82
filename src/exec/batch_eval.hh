/**
 * @file
 * Parallel batch evaluation of make-span jobs.
 *
 * The paper's methodology (Sec. 6) is large sweeps: thousands of
 * (trace, schedule, core-count) evaluations comparing IAR, the
 * single-level approximations, A*, and the lower bound.  Each
 * evaluation is independent, so a batch fans out over all hardware
 * threads; a memoizing EvalCache lets sweeps that revisit a
 * configuration (ablation grids, A* re-expansions, repeated figure
 * rows) skip the simulate() entirely.
 *
 * Determinism contract: evaluate() returns results in job order, and
 * both the results and the cache hit/miss counts are identical for
 * every pool concurrency.  This is enforced structurally — the cache
 * probe and insert phases run sequentially on the calling thread, in
 * job order; only the pure simulate() calls run on the pool — and
 * verified by tests/exec/test_batch_determinism.cc.
 */

#ifndef JITSCHED_EXEC_BATCH_EVAL_HH
#define JITSCHED_EXEC_BATCH_EVAL_HH

#include <vector>

#include "core/schedule.hh"
#include "exec/eval_cache.hh"
#include "exec/thread_pool.hh"
#include "sim/makespan.hh"
#include "trace/workload.hh"

namespace jitsched {

/**
 * One evaluation job: simulate `schedule` on `*workload` under
 * `opts`.  The workload is referenced (instances are large and
 * long-lived); the schedule is owned (benches routinely pass
 * freshly built temporaries).
 */
struct EvalJob
{
    const Workload *workload = nullptr;
    Schedule schedule;
    SimOptions opts;
};

/**
 * Batch front-end over a ThreadPool and an optional EvalCache.
 */
class BatchEvaluator
{
  public:
    /**
     * @param pool executor; must outlive the evaluator
     * @param cache memo table, or nullptr to evaluate everything;
     *              must outlive the evaluator when given
     */
    explicit BatchEvaluator(ThreadPool &pool,
                            EvalCache *cache = nullptr)
        : pool_(pool), cache_(cache)
    {
    }

    /**
     * Evaluate a batch; results come back in job order.  Jobs that
     * hit the cache (or duplicate an earlier job in the same batch)
     * are not simulated again.
     */
    std::vector<SimResult>
    evaluate(const std::vector<EvalJob> &jobs);

    /** Evaluate one job through the same cache. */
    SimResult evaluateOne(const Workload &w, const Schedule &s,
                          const SimOptions &opts = {});

    ThreadPool &pool() { return pool_; }
    EvalCache *cache() { return cache_; }

    /**
     * Process-wide evaluator over ThreadPool::global() and a shared
     * cache; what the benches and figure sweeps use.  Never serve
     * untrusted requests through it (see eval_cache.hh).
     */
    static BatchEvaluator &global();

  private:
    ThreadPool &pool_;
    EvalCache *cache_;
};

} // namespace jitsched

#endif // JITSCHED_EXEC_BATCH_EVAL_HH
