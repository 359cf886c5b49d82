/**
 * @file
 * Work-queue thread pool for parallel batch evaluation.
 *
 * A fixed set of worker threads serves fork-join parallel-for batches:
 * the caller publishes a batch (body, size), workers and the caller
 * claim indices from a shared atomic counter, and the call returns
 * once every index has been executed.  Results are deterministic by
 * construction as long as the body writes only to per-index state —
 * which index runs on which thread never influences what is computed,
 * only when.
 *
 * The pool is the execution substrate of the batch-evaluation engine
 * (exec/batch_eval.hh); it deliberately knows nothing about it.
 */

#ifndef JITSCHED_EXEC_THREAD_POOL_HH
#define JITSCHED_EXEC_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jitsched {

/**
 * Fork-join pool with a deterministic parallel-for.
 *
 * Thread accounting: a pool of concurrency N spawns N - 1 workers;
 * the thread calling parallelFor() is the Nth executor.  A pool of
 * concurrency 1 therefore has no workers at all and runs every batch
 * inline — the sequential reference the determinism tests compare
 * against.
 *
 * parallelFor() may be called from one thread at a time (concurrent
 * calls serialize on an internal mutex) and must not be called from
 * inside a batch body (the pool is not reentrant).
 */
class ThreadPool
{
  public:
    /**
     * @param concurrency total number of executing threads including
     *        the caller (>= 1); 0 means hardware concurrency.
     */
    explicit ThreadPool(std::size_t concurrency = 0);

    /** Joins all workers; outstanding batches finish first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total executor count, caller included. */
    std::size_t concurrency() const { return workers_.size() + 1; }

    /**
     * Run body(0) ... body(n - 1), distributed over all executors.
     * Returns after every index has completed.  The body must confine
     * its writes to per-index state and must not throw.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Run a batch of heterogeneous closures through one fork-join
     * publish: tasks[0] ... tasks[n - 1] execute distributed over
     * all executors, and the call returns once every one has
     * completed.  Same contract as parallelFor (one caller at a
     * time, non-reentrant, tasks must not throw and must confine
     * writes to per-task state); same determinism guarantee —
     * which task runs on which thread never changes what is
     * computed.  Bulk callers (exec/batch_eval.cc phase 2, parallel
     * search drivers) use this instead of hand-rolling an index ->
     * closure dispatch body.
     */
    void submitBatch(const std::vector<std::function<void()>> &tasks);

    /**
     * Process-wide pool at hardware concurrency (or the value of the
     * JITSCHED_THREADS environment variable when set), lazily
     * constructed.  Shared by the benches and the global
     * BatchEvaluator.
     */
    static ThreadPool &global();

    /**
     * Parse a JITSCHED_THREADS value.  The contract the global pool
     * documents: unset or empty means "auto" (returns 0); anything
     * else must be a clean integer >= 1 — non-numeric text, values
     * below 1, and trailing garbage ("4x") are all user errors and
     * fatal().  Exposed so the contract is unit-testable without
     * touching the process environment.
     */
    static std::size_t parseThreadsEnv(const char *env);

  private:
    void workerLoop();
    void runTasks(const std::function<void(std::size_t)> *body,
                  std::size_t n);

    std::vector<std::thread> workers_;

    /** Serializes concurrent parallelFor() callers. */
    std::mutex run_mutex_;

    /** Guards the batch hand-off state below. */
    std::mutex mutex_;
    std::condition_variable wake_cv_; ///< signals workers: new batch
    std::condition_variable done_cv_; ///< signals caller: batch done

    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t batch_size_ = 0;
    std::uint64_t generation_ = 0; ///< bumped per batch
    bool shutdown_ = false;

    std::atomic<std::size_t> next_index_{0}; ///< next unclaimed index
    std::atomic<std::size_t> pending_{0};    ///< tasks not yet finished
    std::size_t active_runners_ = 0; ///< workers inside runTasks()
};

} // namespace jitsched

#endif // JITSCHED_EXEC_THREAD_POOL_HH
