/**
 * @file
 * Request-level result cache with singleflight collapsing and
 * warm-restart snapshots.
 *
 * The solvers are deterministic: the same (policy, options, workload)
 * always produces the same response body, yet ServiceEngine re-runs
 * the full solve — up to a multi-second A* search — for every
 * byte-identical repeat.  The cluster layer already routes repeats to
 * the same backend via requestFingerprint(); this cache is the final
 * step: a repeat costs one hash lookup plus a serialize, not a solve.
 *
 * What is stored: the *serialized response body* — every line of the
 * response frame between the `jitsched-response <id>` header and the
 * volatile `stats` line.  The protocol documents everything above
 * `stats` as a pure function of the request, so a hit rewrites only
 * the id (header) and trace-id/stats fields and is otherwise
 * byte-identical to a fresh solve.  Only ok responses are admitted.
 *
 * Keying: a canonical key material string — the request re-serialized
 * in requestText()'s normalized option order with the non-semantic
 * fields (id, deadline-ms, trace-id) dropped and jitter-seed
 * canonicalized to requestText()'s omit-when-sigma-is-zero rule —
 * hashed with the repo's standard splitmix64 chain.  The hash indexes
 * a sharded LRU; every hit compares the full key material, so hash
 * collisions degrade to misses, never to wrong answers.  `threads`
 * stays in the key: the parallel A* guarantees cost determinism
 * across worker counts, not schedule identity, and the cache promises
 * byte identity.
 *
 * Singleflight: N concurrent identical requests collapse onto one
 * solve.  The first prober becomes the *leader* (Kind::Leader) and
 * solves through the normal admission path; later identical probers
 * become *followers* (Kind::Follower) that block on the leader's
 * flight — with their own deadline still respected — and are answered
 * from its published body.  The waiter list is bounded; overflow
 * probers fall back to an independent solve (Kind::Bypass) so a
 * thundering herd can degrade to today's behavior but never queue
 * unboundedly behind one flight.
 *
 * Snapshots: a versioned, checksummed, size-capped file of the cached
 * entries, written on clean shutdown and on demand (SNAPSHOT wire
 * verb), loaded at startup behind strict validation — corrupt,
 * truncated, or version-skewed files are rejected wholesale and the
 * cache starts cold.  Format (entry bytes are raw, length-prefixed):
 *
 *   jitsched-result-cache v1
 *   entries <N>
 *   entry <key-bytes> <body-bytes>      (N times, MRU first)
 *   <key bytes><body bytes>
 *   checksum <16 hex digits>
 *   end
 *
 * A capacity of 0 disables everything: begin() answers Bypass without
 * touching the request, so a cache-off server is byte-for-byte
 * today's server.
 */

#ifndef JITSCHED_SERVICE_RESULT_CACHE_HH
#define JITSCHED_SERVICE_RESULT_CACHE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/protocol.hh"

namespace jitsched {

/** Knobs of the result cache. */
struct ResultCacheConfig
{
    /** Total body+key budget in bytes; 0 disables the cache. */
    std::size_t capacityBytes = 0;

    /** Shard count (clamped to [1, 64]); per-shard budget is
     * capacityBytes / shards. */
    std::size_t shards = 8;

    /**
     * Followers allowed to wait on one in-flight solve; probers past
     * the bound solve independently instead of queueing.
     */
    std::size_t maxWaiters = 64;

    /**
     * Largest single entry admitted (key + body bytes); 0 derives
     * capacityBytes / 8.  Oversized results are still served and
     * published to followers, just never stored.
     */
    std::size_t maxEntryBytes = 0;
};

/**
 * One in-flight solve that identical requests collapse onto.  done /
 * ok / body are guarded by `mutex`; `waiters` is guarded by the
 * owning shard's mutex (admission decisions happen there).
 */
struct ResultCacheFlight
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    std::string body;
    std::size_t waiters = 0;
};

class ResultCache
{
  public:
    /** Monotone counters (see counters()). */
    struct Counters
    {
        std::uint64_t hits = 0;        ///< begin() served from store
        std::uint64_t misses = 0;      ///< begin() found nothing
        std::uint64_t collapsed = 0;   ///< followers answered by a leader
        std::uint64_t collapseTimeouts = 0; ///< followers that hit their deadline
        std::uint64_t insertions = 0;  ///< bodies admitted to the store
        std::uint64_t evictions = 0;   ///< entries evicted by LRU
        std::uint64_t oversized = 0;   ///< bodies rejected: too large
        std::uint64_t waiterOverflow = 0; ///< probers past maxWaiters
        std::uint64_t snapshotSaves = 0;  ///< successful saveSnapshot()
        std::uint64_t snapshotLoads = 0;  ///< successful loadSnapshot()
    };

    /** What one begin() probe resolved to. */
    struct Probe
    {
        enum class Kind
        {
            Bypass,   ///< cache off / waiter overflow: solve normally
            Hit,      ///< `body` is the cached response body
            Leader,   ///< solve, then publish() the body
            Follower, ///< waitFollower() for the leader's body
        };

        Kind kind = Kind::Bypass;
        std::string body; ///< Hit only
        std::string key;  ///< canonical key material (Leader/Follower)
        std::uint64_t hash = 0;
        std::shared_ptr<ResultCacheFlight> flight;
    };

    /** Why a follower's wait ended. */
    enum class WaitOutcome
    {
        Ready,   ///< leader published; *ok / *body are filled
        Timeout, ///< the follower's own deadline expired first
    };

    explicit ResultCache(ResultCacheConfig cfg = {});

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** True when capacityBytes > 0. */
    bool enabled() const { return cfg_.capacityBytes > 0; }

    /**
     * Probe for @p req.  Hit returns the stored body; Miss makes the
     * caller the leader of a new flight (it MUST publish() exactly
     * once) or a follower of an existing one (it MUST waitFollower()).
     */
    Probe begin(const ServiceRequest &req);

    /**
     * Leader hand-off: wake every follower with (@p ok, @p body) and
     * admit the body to the store when @p ok.  @p probe must be the
     * Leader probe begin() returned.
     */
    void publish(const Probe &probe, bool ok, std::string body);

    /**
     * Block until the leader publishes or @p deadline (when set)
     * expires.  On Ready, *ok and *body receive the leader's result.
     */
    WaitOutcome
    waitFollower(const Probe &probe,
                 std::optional<std::chrono::steady_clock::time_point>
                     deadline,
                 bool *ok, std::string *body);

    /**
     * Write every cached entry to @p path (MRU first), versioned and
     * checksummed.  @return true on success; false with *error set.
     */
    bool saveSnapshot(const std::string &path,
                      std::string *error = nullptr,
                      std::size_t *entries_out = nullptr,
                      std::size_t *bytes_out = nullptr);

    /**
     * Load a snapshot written by saveSnapshot().  Strict: a corrupt,
     * truncated, or version-skewed file is rejected wholesale (false,
     * *error set) and the cache is left unchanged.  Entries beyond
     * the configured capacity are skipped, MRU-first surviving.
     */
    bool loadSnapshot(const std::string &path,
                      std::string *error = nullptr,
                      std::size_t *entries_out = nullptr);

    std::size_t entries() const;

    /** Charged bytes currently stored (keys + bodies + overhead). */
    std::size_t bytes() const;

    Counters counters() const;

    /** Drop every entry and in-flight record (counters survive). */
    void clear();

    /**
     * Canonical key material: the request re-serialized without id,
     * deadline-ms, or trace-id, with jitter-seed omitted when
     * jitter-sigma is 0 (requestText()'s own normalization).  Two
     * requests with equal material are answered from one entry.
     */
    static std::string keyMaterial(const ServiceRequest &req);

    /** splitmix64-chain hash of key material. */
    static std::uint64_t keyHash(const std::string &material);

  private:
    struct Entry
    {
        std::string key;
        std::string body;
        std::uint64_t hash = 0;
    };

    using Lru = std::list<Entry>;

    struct Shard
    {
        mutable std::mutex mutex;
        Lru lru; ///< front = most recently used
        /** hash -> colliding entries; hits compare the full key. */
        std::unordered_map<std::uint64_t, std::vector<Lru::iterator>>
            index;
        std::unordered_map<std::string,
                           std::shared_ptr<ResultCacheFlight>>
            flights;
        std::size_t bytes = 0;
    };

    /** Fixed per-entry accounting overhead (list/map nodes). */
    static constexpr std::size_t kEntryOverhead = 64;

    Shard &shardFor(std::uint64_t hash);
    std::size_t shardCapacity() const;
    std::size_t maxEntryBytes() const;
    Lru::iterator findLocked(Shard &shard, std::uint64_t hash,
                             const std::string &material);
    void insertLocked(Shard &shard, std::string key, std::string body,
                      std::uint64_t hash, bool count_insertion);
    void eraseIndexLocked(Shard &shard, Lru::iterator it);

    const ResultCacheConfig cfg_;
    const std::size_t nshards_;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex counters_mutex_;
    Counters counters_;
};

/**
 * The deterministic block of a response: every serialized line
 * between the `jitsched-response <id>` header and the `stats` line —
 * exactly what the result cache stores.
 */
std::string responseBodyText(const ServiceResponse &resp);

/**
 * Assemble a full response frame from a cached body: header for
 * @p id, the body verbatim, then a fresh volatile stats line.
 */
std::string cachedResponseText(std::uint64_t id,
                               const std::string &body,
                               const ServiceStats &stats);

/**
 * Parse a JITSCHED_RESULT_CACHE_MB value.  Strict like
 * JITSCHED_SLOW_MS: unset or empty means disabled (returns 0); a
 * non-negative integer is the capacity in MiB; anything else is
 * fatal() — a typo must not silently disable the cache.
 */
std::size_t parseResultCacheMbEnv(const char *env);

} // namespace jitsched

#endif // JITSCHED_SERVICE_RESULT_CACHE_HH
