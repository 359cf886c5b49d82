/**
 * @file
 * The scheduling service's request/response wire protocol.
 *
 * Text, line-oriented, built on the workload grammar of
 * trace/trace_io.hh so any trace a client can save to disk it can
 * also submit over a socket.  `#` comments and blank lines are
 * tolerated everywhere; every frame ends with a lone `end` line,
 * which is what lets a connection recover framing after a malformed
 * request.
 *
 * Request frame:
 *
 *   jitsched-request <id>
 *   policy <name>
 *   option <key> <value>        (zero or more)
 *   payload
 *   <workload text grammar>     (trace/trace_io.hh)
 *   end
 *
 * Option keys: compile-cores, model (oracle|default), jitter-sigma,
 * jitter-seed, astar-max-expansions, astar-memory-mb, deadline-ms,
 * trace-id (1..16 hex digits, nonzero — the request's distributed
 * trace id, minted at first contact by jitsched-cli or the router
 * and deliberately excluded from requestFingerprint(), so tracing a
 * request never changes cache merging or cluster affinity).
 *
 * Response frame:
 *
 *   jitsched-response <id>
 *   status ok                   | status error <CODE>
 *   error <message>             (error frames only)
 *   policy <name>
 *   lower-bound <ticks>
 *   makespan <ticks>            ┐
 *   compile-end <ticks>         │
 *   exec-end <ticks>            │
 *   total-bubble <ticks>        │ present when the policy
 *   bubble-count <n>            │ evaluated a schedule
 *   total-exec <ticks>          │
 *   total-compile <ticks>       │
 *   calls-at-level <n0> <n1> …  ┘
 *   schedule <K>                present when a schedule exists,
 *   <func> <level>              followed by K event lines
 *   stats cache-hits <h> cache-misses <m> queue-ns <q> solve-ns <s>
 *     [result-cache <r>] [trace-id <hex>]
 *   end
 *
 * Everything above the `stats` line is a pure function of the request
 * — byte-identical to a direct library call — with one exception:
 * astar-par with `option threads` > 1 promises only the optimal cost.
 * Its workers race, so identical frames can get different schedules
 * (and so different sim lines) of that one cost.  The `stats` line is
 * the only volatile part for every other policy (cache behaviour,
 * queueing, wall time, and the echoed trace id when the request
 * carried one), so clients comparing results strip exactly that
 * line.  `cache-hits` and `cache-misses` stay in the grammar, but
 * jitschedd always writes 0 in both: the daemon no longer keeps the
 * per-evaluation memo table they counted.  `result-cache` appears
 * only when the response came out of the request-level result cache
 * (1 = served from the store, 2 = collapsed onto a concurrent
 * identical solve); a cache-off daemon never emits the token, so its
 * frames are byte-identical to pre-cache builds.
 *
 * Besides scheduling requests, a connection can scrape the daemon's
 * metrics registry (obs/metrics.hh) with a STATS frame:
 *
 *   jitsched-stats <id> [prom]
 *   end
 *
 * answered by
 *
 *   jitsched-stats-response <id>
 *   status ok                   | status error <CODE>
 *   error <message>             (error frames only)
 *   [format prom]               (prom requests only)
 *   snapshot <N>                followed by N raw snapshot lines in
 *   <type> <name> <values...>   MetricsRegistry::snapshotText() form
 *   end
 *
 * With the `prom` argument the N snapshot lines are instead
 * MetricsRegistry::snapshotProm() Prometheus text exposition.
 * Because exposition comment lines start with '#', the N lines after
 * `snapshot` are read raw (no comment stripping) — they are counted,
 * not grammar.
 *
 * The server answers STATS frames inline on the connection handler,
 * off the solve path — a scrape never waits for a solve of its own,
 * which is when a loaded daemon needs it most.
 *
 * The in-memory flight recorder (obs/flight_recorder.hh) is scraped
 * with a DUMP frame, also answered inline:
 *
 *   jitsched-dump <id>
 *   end
 *
 * answered by
 *
 *   jitsched-dump-response <id>
 *   status ok                   | status error <CODE>
 *   error <message>             (error frames only)
 *   records <N>                 followed by N record lines:
 *   record trace <hex> request <id> policy <p> status <s>
 *     queue-ns <q> solve-ns <n> bytes <b> hops <h> cached <0|1>
 *   end
 *
 * The result cache (service/result_cache.hh) is snapshotted to its
 * configured file on demand with a SNAPSHOT frame, also answered
 * inline:
 *
 *   jitsched-snapshot <id>
 *   end
 *
 * answered by
 *
 *   jitsched-snapshot-response <id>
 *   status ok                   | status error <CODE>
 *   error <message>             (error frames only)
 *   entries <N>                 entries written
 *   bytes <B>                   key+body payload bytes written
 *   end
 *
 * A daemon without a result cache or snapshot path answers
 * `status error INVALID_ARGUMENT` — the verb reports the
 * misconfiguration instead of silently writing nothing.
 *
 * Liveness is probed with a PING frame:
 *
 *   jitsched-ping <id>
 *   end
 *
 * answered by
 *
 *   jitsched-pong <id>
 *   status ok                   | status error <CODE>
 *   error <message>             (error frames only)
 *   end
 *
 * Like STATS, PING is answered inline on the connection handler,
 * off the solve path: a health check must answer while the daemon is
 * loaded — a loaded backend is still a live backend.  The cluster router's health-state machine
 * (cluster/backend.hh) is driven entirely by this verb.
 *
 * Every verb shares one envelope: a `<tag> <id> [args]` header line,
 * for responses a `status` line and on error an `error` line, the
 * verb's own key lines, and `end`.  One reader and one writer in
 * protocol.cc handle that envelope for all of them; each verb only
 * adds its keys.  Unsigned fields (ids, counts, sizes, hops, schedule
 * events) are read through one range-checked reader, so a negative
 * or oversized value is a parse error, never a wrapped number.
 */

#ifndef JITSCHED_SERVICE_PROTOCOL_HH
#define JITSCHED_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/schedule.hh"
#include "obs/flight_recorder.hh"
#include "service/policy.hh"
#include "sim/makespan.hh"
#include "trace/workload.hh"

namespace jitsched {

/** One scheduling query. */
struct ServiceRequest
{
    /** Client-chosen id, echoed in the response. */
    std::uint64_t id = 0;

    /** Policy name (see service/policy.hh). */
    std::string policy;

    /** Solver options. */
    ServiceOptions options;

    /**
     * Distributed trace id; 0 means untraced.  Carried as the
     * optional `option trace-id <hex>` line, lives outside
     * ServiceOptions on purpose: requestFingerprint() and
     * ServiceOptions::operator== must never see it (tracing a
     * request must not split the result cache or move it to another
     * backend).
     */
    std::uint64_t traceId = 0;

    /** The OCSP instance to schedule. */
    Workload workload;
};

/** Machine-readable error codes carried on `status error` lines. */
namespace errcode {
inline constexpr const char *invalidArgument = "INVALID_ARGUMENT";
inline constexpr const char *deadlineExceeded = "DEADLINE_EXCEEDED";
inline constexpr const char *resourceExhausted = "RESOURCE_EXHAUSTED";
inline constexpr const char *solverLimit = "SOLVER_LIMIT";
inline constexpr const char *unavailable = "UNAVAILABLE";
} // namespace errcode

/** Volatile per-request serving statistics (the `stats` line). */
struct ServiceStats
{
    std::uint64_t cacheHits = 0;   ///< always 0 from jitschedd
    std::uint64_t cacheMisses = 0; ///< always 0 from jitschedd
    std::int64_t queueNs = 0;      ///< admission -> answer, minus solve
    std::int64_t solveNs = 0;      ///< processing wall time

    /**
     * How the result cache served this response: 0 = not served from
     * it (miss, or cache off — the token is then omitted from the
     * wire), 1 = answered from the store, 2 = collapsed onto a
     * concurrent identical solve (singleflight follower).
     */
    std::uint64_t resultCache = 0;

    std::uint64_t traceId = 0;     ///< echoed trace id; 0 untraced
};

/** One scheduling answer. */
struct ServiceResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;

    /** Policy that served the request (empty if never resolved). */
    std::string policy;

    Tick lowerBound = 0;

    /** Whether `sim` is populated. */
    bool hasSim = false;

    /** Make-span evaluation (subset of SimResult serialized). */
    SimResult sim;

    /** Whether `schedule` is populated. */
    bool hasSchedule = false;

    /** The compilation schedule, as bare events. */
    std::vector<CompileEvent> schedule;

    /** Volatile serving statistics. */
    ServiceStats stats;
};

/** A metrics scrape: no payload, just the echoed id. */
struct StatsRequest
{
    std::uint64_t id = 0;

    /** Ask for Prometheus text exposition instead of snapshotText. */
    bool prom = false;
};

/** A registry snapshot, one raw snapshot line per entry. */
struct StatsResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;

    /** Lines are snapshotProm() exposition, not snapshotText(). */
    bool prom = false;

    /** Snapshot lines, e.g. `counter exec.cache.hits 12`. */
    std::vector<std::string> lines;
};

/** A flight-recorder scrape: no payload, just the echoed id. */
struct DumpRequest
{
    std::uint64_t id = 0;
};

/** The flight recorder's retained records, oldest first. */
struct DumpResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;

    /** Retained records (seq is not carried over the wire). */
    std::vector<obs::FlightRecord> records;
};

/** A result-cache snapshot trigger: no payload, just the echoed id. */
struct SnapshotRequest
{
    std::uint64_t id = 0;
};

/** What the snapshot wrote. */
struct SnapshotResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;

    /** Entries written to the snapshot file. */
    std::uint64_t entries = 0;

    /** Key + body payload bytes written. */
    std::uint64_t bytes = 0;
};

/** A liveness probe: no payload, just the echoed id. */
struct PingRequest
{
    std::uint64_t id = 0;
};

/** The probe's answer. */
struct PongResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;
};

/** Header tags, one per verb. */
namespace tag {
inline constexpr std::string_view request = "jitsched-request";
inline constexpr std::string_view response = "jitsched-response";
inline constexpr std::string_view stats = "jitsched-stats";
inline constexpr std::string_view statsResponse = "jitsched-stats-response";
inline constexpr std::string_view dump = "jitsched-dump";
inline constexpr std::string_view dumpResponse = "jitsched-dump-response";
inline constexpr std::string_view snapshot = "jitsched-snapshot";
inline constexpr std::string_view snapshotResponse =
    "jitsched-snapshot-response";
inline constexpr std::string_view ping = "jitsched-ping";
inline constexpr std::string_view pong = "jitsched-pong";
} // namespace tag

/** Any one frame; the alternatives are the verbs the codec speaks. */
using AnyFrame =
    std::variant<ServiceRequest, ServiceResponse, StatsRequest,
                 StatsResponse, DumpRequest, DumpResponse,
                 SnapshotRequest, SnapshotResponse, PingRequest,
                 PongResponse>;

/**
 * Serialize one frame; @p T is one of AnyFrame's alternatives.  Every
 * verb shares one envelope writer, so the header, status/error lines
 * and `end` are written the same way for all of them.
 */
template <typename T>
std::string frameText(const T &frame);

/** Serialize whichever frame @p frame holds. */
std::string frameText(const AnyFrame &frame);

/**
 * Parse one frame of verb @p T (one of AnyFrame's alternatives).
 * Parsing ends at the frame's `end` line; anything after it is
 * ignored.
 * @param error receives a description of the first problem
 * @return the frame, or nullopt on malformed input
 */
template <typename T>
std::optional<T> tryReadFrame(std::string_view text,
                              std::string *error = nullptr);

/**
 * Parse a frame of whichever verb its header tag names.  A tag no
 * verb claims is parsed — and rejected — as a request, exactly as a
 * connection handler treats it.
 */
std::optional<AnyFrame> tryReadAnyFrame(std::string_view text,
                                        std::string *error = nullptr);

/** First token of a frame's first meaningful line: its verb's tag. */
std::string_view frameTag(std::string_view text);

/**
 * Append the lines between a request frame's header and its `end`:
 * `policy`, the option lines in canonical order, `payload` and the
 * workload.  With @p volatile_options false the non-semantic
 * deadline-ms and trace-id options are left out — the result
 * cache's key material.
 */
void appendRequestBody(std::string &out, const ServiceRequest &req,
                       bool volatile_options);

/** Request frame as a string (what the client sends). */
std::string requestText(const ServiceRequest &req);

/** Parse one request frame: tryReadFrame<ServiceRequest>. */
std::optional<ServiceRequest>
tryReadRequest(std::string_view frame, std::string *error = nullptr);

/**
 * Stream adapter: buffers lines through the frame's first `end`
 * line (leaving the rest unread) and parses them with the parser
 * above.
 */
std::optional<ServiceRequest>
tryReadRequest(std::istream &is, std::string *error = nullptr);

/**
 * Response frame as a string.
 * @param include_stats when false the volatile `stats` line is
 *        omitted — the deterministic block clients compare on
 */
std::string responseText(const ServiceResponse &resp,
                         bool include_stats = true);

/**
 * Append just the volatile `stats ...` line (newline included) —
 * what responseText() emits and what the result cache stitches
 * onto a stored body to rebuild a full frame.
 */
void appendStatsLine(std::string &out, const ServiceStats &stats);

/**
 * Stream adapter for responses, like the request one: consumes
 * through the frame's first `end` line.
 */
std::optional<ServiceResponse>
tryReadResponse(std::istream &is, std::string *error = nullptr);

/** Build an error response. */
ServiceResponse makeErrorResponse(std::uint64_t id,
                                  const std::string &code,
                                  const std::string &message);

/**
 * Build an ok stats response from snapshotText() or (@p prom)
 * snapshotProm() output.
 */
StatsResponse makeStatsResponse(std::uint64_t id,
                                const std::string &snapshot_text,
                                bool prom = false);

/** Build an ok dump response from a recorder snapshot. */
DumpResponse
makeDumpResponse(std::uint64_t id,
                 const std::vector<obs::FlightRecord> &records);

/** Build an ok snapshot response. */
SnapshotResponse makeSnapshotResponse(std::uint64_t id,
                                      std::uint64_t entries,
                                      std::uint64_t bytes);

/** Build an ok pong for @p id. */
PongResponse makePongResponse(std::uint64_t id);

/**
 * True when @p raw_line (after comment/whitespace stripping) is the
 * `end` frame terminator — the framing test connection handlers use.
 */
bool isFrameEnd(std::string_view raw_line);

/**
 * Content fingerprint of a request: policy + options + workload.
 * Identical requests — the ones whose evaluations the cache merges —
 * have identical fingerprints.  The trace id is deliberately NOT
 * hashed: tracing is an observer, and an observed request must cache
 * and route exactly like an unobserved one.
 */
std::uint64_t requestFingerprint(const ServiceRequest &req);

} // namespace jitsched

#endif // JITSCHED_SERVICE_PROTOCOL_HH
