/**
 * @file
 * ServiceEngine: one parsed request in, one response out.
 *
 * The engine is the library-call form of the service — the daemon's
 * connection handlers call it concurrently, each solving the request
 * it parsed, the CLI can call it in-process, and the loopback tests
 * compare daemon responses byte-for-byte against it.  Every policy
 * evaluation runs simulate() through a BatchEvaluator on the global
 * thread pool with no EvalCache: the cache's keys are fingerprints
 * with no full compare, so sharing one across clients would let a
 * crafted workload be answered with another's make-span.  Repeats are
 * the job of the server's ResultCache, which compares the full key.
 *
 * serve() is safe for overlapping calls; the evaluator holds no
 * per-request state.  The response's cache-hits/-misses stats are
 * always 0.
 */

#ifndef JITSCHED_SERVICE_ENGINE_HH
#define JITSCHED_SERVICE_ENGINE_HH

#include "exec/batch_eval.hh"
#include "exec/thread_pool.hh"
#include "service/policy.hh"
#include "service/protocol.hh"

namespace jitsched {

class ServiceEngine
{
  public:
    /**
     * Starts ThreadPool::global() now, so a bad JITSCHED_THREADS
     * fails at startup rather than at the first request.
     */
    ServiceEngine() : evaluator_(ThreadPool::global()) {}

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

  private:
    BatchEvaluator evaluator_;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_ENGINE_HH
