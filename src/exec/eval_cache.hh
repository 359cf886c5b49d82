/**
 * @file
 * Memoizing cache for make-span evaluations.
 *
 * Large sweeps (A* re-expansions, ablation grids, figure tables)
 * revisit the same (workload, schedule, simulation options)
 * configuration many times; the cache lets them skip the redundant
 * simulate() calls.  Entries are keyed on content fingerprints — a
 * hash of the trace and profile table, a hash of the compile events,
 * and a hash of the simulation knobs — so two structurally identical
 * workloads share entries regardless of object identity.  The keys
 * are fingerprints with no full compare behind them, so a cache must
 * never be shared across untrusted requests: a crafted workload can
 * collide with another and be answered with its make-span.
 *
 * The map is sharded by key hash, each shard behind its own mutex, so
 * concurrent probes from a thread-pool batch do not serialize on one
 * lock.  Hit/miss counters are atomics; for the deterministic counts
 * the property tests rely on, BatchEvaluator probes sequentially and
 * only the simulations themselves run in parallel.  The table is
 * unbounded: it is meant for one process's own sweeps.
 */

#ifndef JITSCHED_EXEC_EVAL_CACHE_HH
#define JITSCHED_EXEC_EVAL_CACHE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/schedule.hh"
#include "sim/makespan.hh"
#include "trace/workload.hh"

namespace jitsched {

/** Content fingerprint of one evaluation configuration. */
struct EvalKey
{
    std::uint64_t workload = 0; ///< hashWorkload() of the instance
    std::uint64_t schedule = 0; ///< hashSchedule() of the events
    std::uint64_t options = 0;  ///< hashSimOptions() of the knobs

    bool operator==(const EvalKey &) const = default;
};

/** Fingerprint of a workload: name, profiles, and call sequence. */
std::uint64_t hashWorkload(const Workload &w);

/** Fingerprint of a schedule's event list. */
std::uint64_t hashSchedule(const Schedule &s);

/** Fingerprint of the simulation knobs. */
std::uint64_t hashSimOptions(const SimOptions &opts);

/** Convenience: the full key of one evaluation. */
EvalKey makeEvalKey(const Workload &w, const Schedule &s,
                    const SimOptions &opts);

/**
 * Sharded, thread-safe memo table from EvalKey to SimResult.
 */
class EvalCache
{
  public:
    EvalCache() = default;

    EvalCache(const EvalCache &) = delete;
    EvalCache &operator=(const EvalCache &) = delete;

    /**
     * Look up a key.  Counts one hit or one miss.
     * @return the cached result, or nullopt on miss.
     */
    std::optional<SimResult> lookup(const EvalKey &key);

    /** Insert (or overwrite) the result for a key. */
    void insert(const EvalKey &key, const SimResult &result);

    /** Number of lookup() calls that found an entry. */
    std::uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    /** Number of lookup() calls that found nothing. */
    std::uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    /** Number of entries currently stored. */
    std::size_t size() const;

    /** Drop all entries and reset the counters. */
    void clear();

  private:
    struct KeyHash
    {
        std::size_t operator()(const EvalKey &k) const;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<EvalKey, SimResult, KeyHash> map;
    };

    static constexpr std::size_t kNumShards = 16;

    Shard &shardFor(const EvalKey &key);
    const Shard &shardFor(const EvalKey &key) const;

    Shard shards_[kNumShards];
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace jitsched

#endif // JITSCHED_EXEC_EVAL_CACHE_HH
