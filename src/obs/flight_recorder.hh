/**
 * @file
 * In-memory flight recorder: a fixed ring of the last N completed
 * request records, always on.
 *
 * Where spans answer "where did this request's time go", the flight
 * recorder answers "what were the last requests this process served"
 * — after a crash, a hang, or a p99 blowup, when nobody thought to
 * attach a tracer beforehand.  Each completed request costs exactly
 * one slot write: a global sequence fetch_add picks the slot, a
 * striped mutex guards only that stripe, so concurrent handler
 * threads almost never contend.
 *
 * The ring is dumped three ways:
 *  - the DUMP wire verb (`jitsched-dump <id>`), answered inline on
 *    jitschedd and jitsched-router like STATS/PING, surfaced as the
 *    `jitsched-cli dump` subcommand;
 *  - automatically to stderr when panic() fires (via the
 *    support/logging panic hook — see installPanicDump());
 *  - automatically to stderr when a request exceeds the
 *    JITSCHED_SLOW_MS threshold (slow-request log).
 *
 * Memory bound: capacity() records of a few small strings each — the
 * default 256-slot ring is a few tens of KiB, fixed at construction.
 */

#ifndef JITSCHED_OBS_FLIGHT_RECORDER_HH
#define JITSCHED_OBS_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace jitsched {
namespace obs {

/** One completed request, as remembered by the flight recorder. */
struct FlightRecord
{
    std::uint64_t seq = 0;     ///< global completion order (assigned)
    std::uint64_t traceId = 0; ///< 0 when the request was untraced
    std::uint64_t requestId = 0;
    std::string policy;
    std::string status;        ///< "ok" or the wire error code
    std::int64_t queueNs = 0;
    std::int64_t solveNs = 0;
    std::uint64_t bytes = 0;   ///< response frame size
    std::uint32_t hops = 0;    ///< route attempts consumed; 0 direct
    /** Answered from the result cache's store. */
    bool cached = false;
};

/**
 * Lock-striped bounded ring of FlightRecords.  record() is one
 * relaxed fetch_add plus one striped lock; snapshot() locks all
 * stripes and returns records sorted by completion order.
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t capacity = 256);

    /** Remember one completed request (seq is assigned here). */
    void record(FlightRecord r);

    /** Retained records, oldest completion first. */
    std::vector<FlightRecord> snapshot() const;

    /**
     * One line per record, the same shape the DUMP verb carries:
     *
     *   trace <hex> request <id> policy <p> status <s>
     *     queue-ns <q> solve-ns <n> bytes <b> hops <h> cached <0|1>
     */
    std::string dumpText() const;

    /** Render one record as its dump/DUMP line (no newline). */
    static std::string recordLine(const FlightRecord &r);

    /** Drop every retained record (tests). */
    void clear();

    std::size_t capacity() const { return capacity_; }

    /** Requests recorded since construction (monotone). */
    std::uint64_t recorded() const;

    /** The process-wide recorder the service and router feed. */
    static FlightRecorder &global();

  private:
    static constexpr std::size_t kStripes = 8;

    struct Stripe
    {
        mutable std::mutex mutex;
        std::vector<FlightRecord> slots; ///< fixed size, seq==0 empty
    };

    const std::size_t capacity_;   ///< total slots across stripes
    const std::size_t per_stripe_; ///< slots per stripe
    std::atomic<std::uint64_t> seq_{0};
    Stripe stripes_[kStripes];
};

/**
 * Register the panic hook that dumps FlightRecorder::global() to
 * stderr before abort().  Idempotent; called by the service server
 * and router on startup so any later panic leaves the ring behind.
 */
void installPanicDump();

/**
 * Parse a JITSCHED_SLOW_MS value.  Strict like JITSCHED_THREADS:
 * unset or empty disables the slow-request log (returns -1); a
 * non-negative integer is the threshold in milliseconds; anything
 * else is fatal() — a typo must not silently disable the log.
 */
std::int64_t parseSlowMsEnv(const char *env);

/**
 * The slow-request threshold in nanoseconds, read once from
 * JITSCHED_SLOW_MS; negative when disabled.
 */
std::int64_t slowThresholdNs();

/**
 * Called with a request's total visible latency; when the
 * JITSCHED_SLOW_MS threshold is breached, logs the offender (tagged
 * with @p layer, e.g. "service" or "cluster") and dumps the flight
 * recorder to stderr.
 */
void noteRequestLatency(std::uint64_t traceId, std::int64_t totalNs,
                        const char *layer);

} // namespace obs
} // namespace jitsched

#endif // JITSCHED_OBS_FLIGHT_RECORDER_HH
