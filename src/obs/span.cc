#include "obs/span.hh"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include <unistd.h>

#include "obs/trace_event.hh"
#include "support/hash.hh"

namespace jitsched {
namespace obs {

namespace {

std::atomic<bool> spansEnabled{true};

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** A fresh record: no tags, empty text. */
SpanRecord
blankRecord(std::uint64_t traceId, const char *name)
{
    SpanRecord r;
    r.traceId = traceId;
    r.startNs = 0;
    r.durNs = 0;
    r.name = name;
    std::fill(std::begin(r.keys), std::end(r.keys), nullptr);
    r.numTags = 0;
    return r;
}

/**
 * Fill the record's text with the tag values @p texts, in order, each
 * as a length byte plus bytes.  When they do not all fit, the room is shared
 * max-min fairly — short strings stay whole and the long ones are
 * cut to a common length — so one hostile value cannot crowd out
 * the rest.  The length byte's top bit marks a cut.
 */
void
packTexts(SpanRecord &r, const std::string_view *texts, std::size_t n)
{
    std::size_t lens[SpanRecord::kMaxTags];
    for (std::size_t i = 0; i < n; ++i)
        lens[i] = texts[i].size();
    std::sort(lens, lens + n);
    std::size_t room = SpanRecord::kTextBytes - n; // after length bytes
    std::size_t cap = room;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t share = room / (n - i);
        if (lens[i] > share) {
            cap = share;
            break;
        }
        room -= lens[i];
    }
    std::size_t used = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = std::min(texts[i].size(), cap);
        const auto cut =
            static_cast<unsigned char>(len < texts[i].size() ? 0x80 : 0);
        r.text[used] = static_cast<char>(len | cut);
        std::copy_n(texts[i].data(), len, r.text + used + 1);
        used += 1 + len;
    }
}

/** Unpack a ring slot into the export form. */
Span
unpack(const SpanRecord &r)
{
    Span s;
    s.traceId = r.traceId;
    s.name = r.name;
    s.startNs = r.startNs;
    s.durNs = r.durNs;
    s.tags.reserve(r.numTags);
    // The values packTexts() wrote, in order; a cut one gets the
    // marker.
    std::size_t pos = 0;
    for (std::size_t i = 0; i < r.numTags; ++i) {
        const auto len_byte = static_cast<unsigned char>(r.text[pos]);
        const std::size_t n = len_byte & 0x7f;
        std::string value(r.text + pos + 1, n);
        if (len_byte & 0x80)
            value += kTruncationMarker;
        pos += 1 + n;
        s.tags.emplace_back(r.keys[i], std::move(value));
    }
    return s;
}

} // namespace

std::uint64_t
mintTraceId()
{
    static std::atomic<std::uint64_t> counter{0};
    const auto now = std::chrono::steady_clock::now()
                         .time_since_epoch()
                         .count();
    const std::uint64_t seed =
        static_cast<std::uint64_t>(now) ^
        (static_cast<std::uint64_t>(::getpid()) << 32) ^
        counter.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t id = mix64(seed);
    // Zero means "untraced"; re-mix until nonzero (astronomically
    // rare, but the contract is a nonzero id).
    while (id == 0)
        id = mix64(id + counter.fetch_add(1, std::memory_order_relaxed) + 1);
    return id;
}

std::string
traceIdHex(std::uint64_t id)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    do {
        out.push_back(digits[id & 0xf]);
        id >>= 4;
    } while (id != 0);
    std::reverse(out.begin(), out.end());
    return out;
}

std::optional<std::uint64_t>
parseTraceIdHex(std::string_view s)
{
    if (s.empty() || s.size() > 16)
        return std::nullopt;
    std::uint64_t v = 0;
    for (char c : s) {
        const int d = hexDigit(c);
        if (d < 0)
            return std::nullopt;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    if (v == 0)
        return std::nullopt;
    return v;
}

SpanCollector::SpanCollector(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()),
      ring_(std::make_unique_for_overwrite<SpanRecord[]>(capacity_))
{
}

void
SpanCollector::record(const SpanRecord &r)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ring_[next_] = r;
    next_ = (next_ + 1) % capacity_;
    if (size_ < capacity_)
        ++size_;
    ++recorded_;
}

void
SpanCollector::recordBetween(std::uint64_t traceId, const char *name,
                             std::chrono::steady_clock::time_point t0,
                             std::chrono::steady_clock::time_point t1,
                             std::initializer_list<SpanTag> tags)
{
    if (traceId == 0 || !enabled())
        return;
    SpanRecord r = blankRecord(traceId, name);
    r.startNs = sinceEpochNs(t0);
    r.durNs = std::max<std::int64_t>(0, sinceEpochNs(t1) - r.startNs);
    std::string_view texts[SpanRecord::kMaxTags];
    for (const SpanTag &t : tags) {
        if (r.numTags == SpanRecord::kMaxTags)
            break;
        r.keys[r.numTags] = t.key;
        texts[r.numTags++] = t.value;
    }
    packTexts(r, texts, r.numTags);
    record(r);
}

std::vector<Span>
SpanCollector::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    out.reserve(size_);
    // Oldest first: the size_ slots ending just before next_.
    const std::size_t first = (next_ + capacity_ - size_) % capacity_;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(unpack(ring_[(first + i) % capacity_]));
    return out;
}

void
SpanCollector::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_ = 0;
    next_ = 0;
    recorded_ = 0;
}

std::uint64_t
SpanCollector::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorded_ - size_;
}

void
SpanCollector::exportTo(TraceEventSink &sink) const
{
    const std::vector<Span> spans = snapshot();
    sink.processName(1, "jitsched spans");
    // One virtual thread track per trace id, assigned in first-seen
    // order — keeps one request's slices strictly nested even when
    // worker threads interleave several requests.
    std::unordered_map<std::uint64_t, std::uint32_t> tids;
    for (const Span &s : spans) {
        auto it = tids.find(s.traceId);
        std::uint32_t tid;
        if (it == tids.end()) {
            tid = static_cast<std::uint32_t>(tids.size() + 1);
            tids.emplace(s.traceId, tid);
            sink.threadName(1, tid, "trace " + traceIdHex(s.traceId));
        } else {
            tid = it->second;
        }
        auto args = s.tags;
        args.emplace_back("trace", traceIdHex(s.traceId));
        sink.slice(s.name, "span", 1, tid, s.startNs, s.durNs,
                   std::move(args));
    }
}

std::int64_t
SpanCollector::nowNs() const
{
    return sinceEpochNs(std::chrono::steady_clock::now());
}

std::int64_t
SpanCollector::sinceEpochNs(
    std::chrono::steady_clock::time_point tp) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               tp - epoch_)
        .count();
}

SpanCollector &
SpanCollector::global()
{
    static SpanCollector collector;
    return collector;
}

bool
SpanCollector::setEnabled(bool enabled)
{
    return spansEnabled.exchange(enabled, std::memory_order_relaxed);
}

bool
SpanCollector::enabled()
{
    return spansEnabled.load(std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(std::uint64_t traceId, const char *name)
    : active_(traceId != 0 && SpanCollector::enabled()),
      rec_(blankRecord(traceId, name))
{
    if (active_)
        rec_.startNs = SpanCollector::global().nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    rec_.durNs = std::max<std::int64_t>(
        0, SpanCollector::global().nowNs() - rec_.startNs);
    std::string_view texts[SpanRecord::kMaxTags];
    for (std::size_t i = 0; i < rec_.numTags; ++i)
        texts[i] = std::string_view(values_[i], value_lens_[i]);
    packTexts(rec_, texts, rec_.numTags);
    SpanCollector::global().record(rec_);
}

void
ScopedSpan::tag(const char *key, std::string_view value)
{
    if (!active_ || rec_.numTags == SpanRecord::kMaxTags)
        return;
    // Keeping kTextBytes is enough to know a longer value gets cut.
    const std::size_t len = std::min(value.size(), sizeof(values_[0]));
    std::copy_n(value.data(), len, values_[rec_.numTags]);
    value_lens_[rec_.numTags] = static_cast<std::uint8_t>(len);
    rec_.keys[rec_.numTags++] = key;
}

} // namespace obs
} // namespace jitsched
