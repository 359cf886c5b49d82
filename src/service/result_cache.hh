/**
 * @file
 * Request-level result cache: a sharded, full-key LRU of response
 * bodies with warm-restart snapshots.
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
 * Concurrent identical misses each solve and each insert: the
 * solvers are deterministic, so the bodies agree, and an insert that
 * finds its key already stored leaves it as is.
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
 * A capacity of 0 disables everything: the server builds no key and
 * probes nothing, so a cache-off server is byte-for-byte the
 * cacheless one.
 */

#ifndef JITSCHED_SERVICE_RESULT_CACHE_HH
#define JITSCHED_SERVICE_RESULT_CACHE_HH

#include <array>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/protocol.hh"

namespace jitsched {

class ResultCache
{
  public:
    /** Shard count; each shard holds capacityBytes / kShards, and no
     * entry larger than one shard is stored. */
    static constexpr std::size_t kShards = 8;

    /** Monotone counters (see counters()). */
    struct Counters
    {
        std::uint64_t hits = 0;        ///< lookup() served from store
        std::uint64_t misses = 0;      ///< lookup() found nothing
        std::uint64_t insertions = 0;  ///< bodies admitted to the store
        std::uint64_t evictions = 0;   ///< entries evicted by LRU
        std::uint64_t oversized = 0;   ///< bodies rejected: too large
        std::uint64_t snapshotSaves = 0;  ///< successful saveSnapshot()
        std::uint64_t snapshotLoads = 0;  ///< successful loadSnapshot()
    };

    /** A request's canonical key material and its hash, built once
     * per miss and moved into the entry by insert(). */
    struct Key
    {
        explicit Key(const ServiceRequest &req);

        std::string material;
        std::uint64_t hash;
    };

    /** @param capacityBytes key+body budget; 0 disables the cache. */
    explicit ResultCache(std::size_t capacityBytes);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** True when capacityBytes > 0. */
    bool enabled() const { return capacity_ > 0; }

    /**
     * The body stored under @p key, now most recently used; nullopt
     * on a miss or when the cache is off.
     */
    std::optional<std::string> lookup(const Key &key);

    /**
     * Store @p body — an ok response's body — under @p key, evicting
     * the shard's least recently used entries to fit.  A body larger
     * than one shard is counted oversized and not stored; a key
     * already stored is left as is.  No-op when the cache is off.
     */
    void insert(Key key, std::string body);

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
        std::size_t bytes = 0;
    };

    /** Fixed per-entry accounting overhead (list/map nodes). */
    static constexpr std::size_t kEntryOverhead = 64;

    Shard &shardFor(std::uint64_t hash);
    Lru::iterator findLocked(Shard &shard, std::uint64_t hash,
                             const std::string &material);
    void eraseIndexLocked(Shard &shard, Lru::iterator it);

    const std::size_t capacity_;
    const std::size_t shardBytes_; ///< per-shard and per-entry cap
    std::array<Shard, kShards> shards_;

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
