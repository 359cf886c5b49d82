/**
 * @file
 * The policy registry: every scheduler in the repository behind one
 * request-shaped interface.
 *
 * A runtime asking the service "given this call sequence and cost
 * profile, what should I compile, in what order, at what levels?"
 * names a *policy*.  The built-in registry exposes the paper's whole
 * cast:
 *
 *   iar          the IAR heuristic (Sec. 5.1) — the near-optimal one
 *   astar        A* search (Sec. 5.3); optimal or an explicit refusal
 *   astar-par    hash-distributed parallel anytime A*
 *                (core/astar_par.hh); optimal when it finishes, best
 *                incumbent + gap when a budget trips — never refuses
 *   base-only    single-level approximation, most responsive level
 *   opt-only     single-level approximation, cost-effective level
 *   lower-bound  the make-span lower bound only (Sec. 5.2)
 *   jikes        the Jikes RVM adaptive scheme, replayed online
 *   v8           the V8 scheme on the two lowest levels (Sec. 6.2.4)
 *
 * Policies are pure with respect to a request: the same workload and
 * options always produce the same outcome, which is what lets the
 * service memoize evaluations across clients.
 */

#ifndef JITSCHED_SERVICE_POLICY_HH
#define JITSCHED_SERVICE_POLICY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/schedule.hh"
#include "sim/makespan.hh"
#include "support/types.hh"
#include "trace/workload.hh"
#include "vm/cost_benefit.hh"

namespace jitsched {

class BatchEvaluator;

/** Per-request solver options, carried on the wire as `option` lines. */
struct ServiceOptions
{
    /** Compilation cores for the make-span evaluation. */
    std::size_t compileCores = 1;

    /**
     * Cost-benefit model used for candidate levels and the adaptive
     * runtime's recompilation test (the Fig. 5 / Fig. 6 axis).
     * Oracle is the default: deterministic and what a client asking
     * "what is the limit?" means.
     */
    ModelKind model = ModelKind::Oracle;

    /** Per-invocation execution-time jitter sigma (0 = off). */
    double jitterSigma = 0.0;

    /** Seed of the jitter draws. */
    std::uint64_t jitterSeed = 1;

    /**
     * Expansion cap for the astar policy.  A service cannot afford
     * the open-ended exponential search the offline study runs, so
     * the cap is finite by default and the policy answers with an
     * explicit solver-limit error when it is hit.
     */
    std::uint64_t astarMaxExpansions = 250'000;

    /** Node-store budget for the astar policy, in MiB. */
    std::uint64_t astarMemoryMb = 256;

    /**
     * Worker threads for the astar-par policy (`option threads N`,
     * jitsched-cli --threads).  0 = unset: fall back to the
     * JITSCHED_THREADS environment variable (strict-parse rules of
     * ThreadPool::parseThreadsEnv), then to hardware concurrency.
     */
    std::size_t astarThreads = 0;

    /**
     * Request deadline in milliseconds from admission; -1 = none.
     * Enforced at admission by the server (astar-par also takes a
     * positive one as its anytime budget).
     */
    std::int64_t deadlineMs = -1;

    bool operator==(const ServiceOptions &) const = default;
};

/** What one policy run produces. */
struct PolicyOutcome
{
    /** False when the solver refused (e.g. A* hit its budget). */
    bool ok = true;

    /** Refusal description (valid when !ok). */
    std::string error;

    /** The candidate-level lower bound (always computed). */
    Tick lowerBound = 0;

    /** Whether the policy produced a schedule (lower-bound does not). */
    bool hasSchedule = false;

    /** The compilation schedule (static or induced). */
    Schedule schedule;

    /** Whether `sim` holds a make-span evaluation. */
    bool hasSim = false;

    /** Make-span evaluation of the schedule under the options. */
    SimResult sim;
};

/**
 * One scheduling algorithm behind the service interface.
 * Implementations must be stateless (the registry shares one
 * instance across all requests and threads).
 */
class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    /** Registry key, e.g. "iar". */
    virtual const char *name() const = 0;

    /** One-line human description for listings. */
    virtual const char *describe() const = 0;

    /**
     * Run the policy.
     * @param w the workload (validated by the protocol layer)
     * @param opts per-request options
     * @param eval shared evaluator; policies that evaluate a schedule
     *        route their simulate() through it, so an evaluator
     *        with an EvalCache memoizes repeats
     */
    virtual PolicyOutcome run(const Workload &w,
                              const ServiceOptions &opts,
                              BatchEvaluator &eval) const = 0;
};

/**
 * Name -> policy table.  The built-in instance holds the eight
 * standard policies; tests can build registries of their own.
 */
class PolicyRegistry
{
  public:
    PolicyRegistry() = default;

    PolicyRegistry(const PolicyRegistry &) = delete;
    PolicyRegistry &operator=(const PolicyRegistry &) = delete;

    /** Add a policy; replaces an existing entry of the same name. */
    void registerPolicy(std::unique_ptr<SchedulerPolicy> policy);

    /** Look up by name; nullptr when unknown. */
    const SchedulerPolicy *find(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    std::size_t size() const { return policies_.size(); }

    /** The process-wide registry with the eight built-in policies. */
    static const PolicyRegistry &builtin();

  private:
    std::map<std::string, std::unique_ptr<SchedulerPolicy>> policies_;
};

/** Register the eight built-in policies into @p reg. */
void registerBuiltinPolicies(PolicyRegistry &reg);

} // namespace jitsched

#endif // JITSCHED_SERVICE_POLICY_HH
