/**
 * @file
 * Request-scoped tracing: trace ids, spans, and the process-wide
 * span collector.
 *
 * A trace id is a nonzero 64-bit token minted at first contact
 * (jitsched-cli or the router) and propagated over the wire as the
 * optional `option trace-id <hex>` request line.  It is deliberately
 * fingerprint-neutral: requestFingerprint() never sees it, so the
 * result cache and consistent-hash affinity behave identically
 * whether or not a request is traced (DESIGN.md Sec. 5g).
 *
 * A span is one named interval attributed to a trace:
 *
 *   service.admission_wait   admission -> solve start on the
 *                            connection handler
 *   service.solve            PolicyRegistry solver run
 *   service.serialize        response serialization
 *   cluster.route_attempt    one router try (tagged backend+outcome)
 *
 * Spans land in the SpanCollector: a bounded in-memory ring guarded
 * by one mutex (3-4 records per request; contention is negligible
 * next to a solve).  exportTo() replays the ring into the existing
 * TraceEventSink, giving every trace id its own virtual thread track
 * so slices of one request nest strictly even when worker threads
 * interleave requests — the property jitsched-trace-check enforces.
 * jitschedd and jitsched-router read the ring only for --trace-out,
 * so without it they disable recording (setEnabled(false)) and never
 * touch the ring or its mutex; in-process users keep the default,
 * enabled.
 *
 * Memory bound: exactly capacity() x sizeof(SpanRecord) bytes — the
 * default 65536 slots of 96 bytes are 6 MiB — allocated once, never
 * value-initialised, and overwritten oldest-first (dropped() counts
 * evictions).  Recording never allocates.
 */

#ifndef JITSCHED_OBS_SPAN_HH
#define JITSCHED_OBS_SPAN_HH

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jitsched {
namespace obs {

class TraceEventSink;

/** Mint a fresh nonzero trace id (time + pid + counter mixed). */
std::uint64_t mintTraceId();

/** Lowercase hex rendering of a trace id, no 0x prefix. */
std::string traceIdHex(std::uint64_t id);

/**
 * Strict parse of a wire trace id: 1..16 hex digits (either case),
 * nonzero.  Anything else — empty, 0, overlong, stray characters —
 * returns nullopt so the protocol layer can reject the frame.
 */
std::optional<std::uint64_t> parseTraceIdHex(std::string_view s);

/** One completed interval attributed to a trace. */
struct Span
{
    std::uint64_t traceId = 0;
    std::string name;        ///< span taxonomy name, e.g. service.solve
    std::int64_t startNs = 0; ///< since the collector's epoch
    std::int64_t durNs = 0;
    std::vector<std::pair<std::string, std::string>> tags;
};

/** One tag of a span being recorded: a static key, a copied value. */
struct SpanTag
{
    const char *key;        ///< must outlive the collector
    std::string_view value; ///< copied (and cut to fit) on record
};

/**
 * A span as the ring stores it, in a fixed 96 bytes.  The name and
 * tag keys point at static strings; tag values are copied into `text`
 * as length-prefixed strings, sharing its room fairly when they do
 * not all fit.  A cut value comes back from snapshot() ending in
 * kTruncationMarker.  Strings that arrive off the wire (a client
 * picks the policy name) are only ever copied here, never interned.
 * Trivially constructible, so the ring's storage is never touched
 * before a record lands in it.
 */
struct SpanRecord
{
    static constexpr std::size_t kMaxTags = 3; ///< more are dropped
    static constexpr std::size_t kTextBytes = 39;

    std::uint64_t traceId;
    std::int64_t startNs;
    std::int64_t durNs;
    const char *name;           ///< static, non-null
    const char *keys[kMaxTags]; ///< static, non-null
    std::uint8_t numTags;
    char text[kTextBytes];      ///< the numTags values, packed
};
static_assert(sizeof(SpanRecord) == 96);

/** What snapshot() appends to a tag value that was cut to fit. */
inline constexpr std::string_view kTruncationMarker = "...";

/**
 * Bounded ring of completed spans.  record() is one lock + one
 * 96-byte slot copy; snapshot() returns spans oldest-first;
 * exportTo() writes Chrome slices with one virtual tid per trace id.
 */
class SpanCollector
{
  public:
    explicit SpanCollector(std::size_t capacity = 65536);

    /**
     * Record [t0, t1) measured on the steady clock.  Skipped when
     * traceId is 0 or the collector is disabled.
     * @param name a static string (the ring keeps the pointer)
     * @param tags static keys; values are copied, cut to fit
     */
    void recordBetween(std::uint64_t traceId, const char *name,
                       std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1,
                       std::initializer_list<SpanTag> tags = {});

    /** Spans currently retained, oldest first. */
    std::vector<Span> snapshot() const;

    /** Drop every retained span (tests). */
    void clear();

    std::size_t capacity() const { return capacity_; }

    /** Spans evicted because the ring was full. */
    std::uint64_t dropped() const;

    /**
     * Replay retained spans into @p sink: pid 1, one virtual tid per
     * trace id (first-seen order), cat "span", thread named
     * `trace <hex>`.  Tags become slice args, plus the trace id.
     */
    void exportTo(TraceEventSink &sink) const;

    /** Nanoseconds since this collector's epoch (steady clock). */
    std::int64_t nowNs() const;

    /** Nanoseconds between the epoch and @p tp. */
    std::int64_t
    sinceEpochNs(std::chrono::steady_clock::time_point tp) const;

    /** The process-wide collector the service and router feed. */
    static SpanCollector &global();

    /**
     * Run-time switch for span recording (flight recorder is not
     * affected — it is always on).  @return the previous setting.
     */
    static bool setEnabled(bool enabled);
    static bool enabled();

  private:
    friend class ScopedSpan;

    /** Append one packed span (no-op when disabled). */
    void record(const SpanRecord &r);

    const std::size_t capacity_;
    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::unique_ptr<SpanRecord[]> ring_; ///< capacity_ slots
    std::size_t size_ = 0;     ///< slots holding a record
    std::size_t next_ = 0;     ///< ring slot the next record lands in
    std::uint64_t recorded_ = 0;
};

/**
 * RAII span: starts timing at construction, records into the global
 * collector at destruction.  A zero trace id (untraced request) or a
 * disabled collector makes the whole object a no-op.
 */
class ScopedSpan
{
  public:
    /** @param name a static string (the ring keeps the pointer) */
    ScopedSpan(std::uint64_t traceId, const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /**
     * Attach a tag emitted with the span; @p key must be static,
     * @p value is copied.  Tags past SpanRecord::kMaxTags are dropped.
     */
    void tag(const char *key, std::string_view value);

  private:
    bool active_;
    SpanRecord rec_; ///< tags' keys; text packed at destruction
    char values_[SpanRecord::kMaxTags][SpanRecord::kTextBytes];
    std::uint8_t value_lens_[SpanRecord::kMaxTags];
};

} // namespace obs
} // namespace jitsched

#endif // JITSCHED_OBS_SPAN_HH
