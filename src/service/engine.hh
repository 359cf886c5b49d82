/**
 * @file
 * ServiceEngine: one parsed request in, one response out.
 *
 * The engine is the library-call form of the service — the daemon's
 * connection handlers call it concurrently, each solving the request
 * it parsed, the CLI can call it in-process, and the loopback tests
 * compare daemon responses byte-for-byte against it.  It owns the
 * EvalCache that makes duplicate requests cheap and routes every
 * static-schedule evaluation through a BatchEvaluator on the global
 * thread pool.
 *
 * serve() is safe for overlapping calls.  It builds a per-request
 * BatchEvaluator (pool + shared cache + that request's own
 * EvalCounters tally), so the response's cache-hits/-misses stats
 * count exactly that request's probes even when serves overlap —
 * before/after deltas of the shared cache's global counters would
 * misattribute concurrent requests' probes to each other.  The
 * cache is capped at kEvalCacheEntries so a daemon serving distinct
 * workloads for days does not grow without bound.
 */

#ifndef JITSCHED_SERVICE_ENGINE_HH
#define JITSCHED_SERVICE_ENGINE_HH

#include "exec/eval_cache.hh"
#include "exec/thread_pool.hh"
#include "service/policy.hh"
#include "service/protocol.hh"

namespace jitsched {

class ServiceEngine
{
  public:
    /** Entry cap of the engine's EvalCache. */
    static constexpr std::size_t kEvalCacheEntries = 4096;

    /**
     * Starts ThreadPool::global() now, so a bad JITSCHED_THREADS
     * fails at startup rather than at the first request.
     */
    ServiceEngine()
        : pool_(ThreadPool::global()), cache_(kEvalCacheEntries)
    {
    }

    ServiceEngine(const ServiceEngine &) = delete;
    ServiceEngine &operator=(const ServiceEngine &) = delete;

    /**
     * Serve one request synchronously.  Always returns a response —
     * unknown policies, empty workloads and solver refusals come back
     * as structured errors, never as process exits.  Fills every
     * response field except stats.queueNs (the server's admission
     * time).
     */
    ServiceResponse serve(const ServiceRequest &req);

    const PolicyRegistry &registry() const
    {
        return PolicyRegistry::builtin();
    }
    EvalCache &cache() { return cache_; }

  private:
    ThreadPool &pool_;
    EvalCache cache_;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_ENGINE_HH
