/**
 * @file
 * SpanCollector and trace-id unit tests: id minting/parsing, the
 * bounded ring, Chrome export with per-trace virtual tids, and a
 * concurrency hammer (SpanConcurrency*, which the TSan job runs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "obs/span.hh"
#include "obs/trace_check.hh"
#include "obs/trace_event.hh"

using namespace jitsched;
using namespace jitsched::obs;

TEST(TraceId, MintedIdsAreNonzeroAndDistinct)
{
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t id = mintTraceId();
        EXPECT_NE(id, 0u);
        seen.insert(id);
    }
    // splitmix64-mixed ids: collisions in 1000 draws would mean the
    // mixing is broken, not bad luck.
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(TraceId, HexRoundTrip)
{
    for (const std::uint64_t id :
         {std::uint64_t{1}, std::uint64_t{0xdeadbeef},
          std::uint64_t{0xffffffffffffffffULL}, mintTraceId()}) {
        const std::string hex = traceIdHex(id);
        const auto back = parseTraceIdHex(hex);
        ASSERT_TRUE(back.has_value()) << hex;
        EXPECT_EQ(*back, id);
    }
    EXPECT_EQ(traceIdHex(0), "0");
    EXPECT_EQ(traceIdHex(0x1a2b), "1a2b");
}

TEST(TraceId, ParseAcceptsBothCasesAndLeadingZeros)
{
    EXPECT_EQ(parseTraceIdHex("DeadBeef"),
              std::optional<std::uint64_t>(0xdeadbeefULL));
    EXPECT_EQ(parseTraceIdHex("0001"),
              std::optional<std::uint64_t>(1));
    EXPECT_EQ(parseTraceIdHex("ffffffffffffffff"),
              std::optional<std::uint64_t>(0xffffffffffffffffULL));
}

TEST(TraceId, ParseRejectsMalformedIds)
{
    EXPECT_FALSE(parseTraceIdHex("").has_value());
    EXPECT_FALSE(parseTraceIdHex("0").has_value());   // zero = untraced
    EXPECT_FALSE(parseTraceIdHex("0000").has_value());
    EXPECT_FALSE(parseTraceIdHex("xyz").has_value());
    EXPECT_FALSE(parseTraceIdHex("12g4").has_value());
    EXPECT_FALSE(parseTraceIdHex("0x12").has_value()); // no prefix
    EXPECT_FALSE(parseTraceIdHex(" 12").has_value());
    EXPECT_FALSE(parseTraceIdHex("12 ").has_value());
    EXPECT_FALSE(parseTraceIdHex("-1").has_value());
    // 17 digits overflows the 64-bit id even if all are valid hex.
    EXPECT_FALSE(parseTraceIdHex("11111111111111111").has_value());
}

namespace {

/** Span names are static strings; ten distinct ones for the ring. */
const char *const kNames[] = {"s0", "s1", "s2", "s3", "s4",
                              "s5", "s6", "s7", "s8", "s9"};

} // namespace

TEST(SpanCollector, RecordsAndSnapshotsInOrder)
{
    SpanCollector c(8);
    const auto now = std::chrono::steady_clock::now();
    for (int i = 0; i < 5; ++i) {
        const auto t0 = now + std::chrono::nanoseconds(i * 10);
        c.recordBetween(7, kNames[i], t0,
                        t0 + std::chrono::nanoseconds(5));
    }
    const auto spans = c.snapshot();
    ASSERT_EQ(spans.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(spans[i].name, kNames[i]);
        EXPECT_EQ(spans[i].startNs - spans[0].startNs, i * 10);
        EXPECT_EQ(spans[i].durNs, 5);
    }
    EXPECT_EQ(c.dropped(), 0u);
}

TEST(SpanCollector, RingOverwritesOldestFirst)
{
    SpanCollector c(4);
    const auto now = std::chrono::steady_clock::now();
    for (int i = 0; i < 10; ++i)
        c.recordBetween(1, kNames[i], now, now);
    const auto spans = c.snapshot();
    ASSERT_EQ(spans.size(), 4u);
    // The last 4 of 10, oldest first.
    EXPECT_EQ(spans[0].name, "s6");
    EXPECT_EQ(spans[3].name, "s9");
    EXPECT_EQ(c.dropped(), 6u);

    c.clear();
    EXPECT_TRUE(c.snapshot().empty());
    EXPECT_EQ(c.dropped(), 0u);
}

TEST(SpanCollector, RecordBetweenSkipsUntracedAndClampsDuration)
{
    SpanCollector c(8);
    const auto now = std::chrono::steady_clock::now();
    c.recordBetween(0, "untraced", now,
                    now + std::chrono::milliseconds(1));
    EXPECT_TRUE(c.snapshot().empty());

    // t1 < t0 (clock shuffle across threads) clamps to zero, never
    // negative — Chrome refuses negative durations.
    c.recordBetween(5, "backwards", now + std::chrono::seconds(1),
                    now);
    const auto spans = c.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].durNs, 0);
}

TEST(SpanCollector, DisabledCollectorDropsEverything)
{
    SpanCollector c(8);
    const bool was = SpanCollector::setEnabled(false);
    const auto now = std::chrono::steady_clock::now();
    c.recordBetween(9, "dropped", now, now);
    ScopedSpan scoped(9, "also.dropped");
    SpanCollector::setEnabled(was);
    EXPECT_TRUE(c.snapshot().empty());
}

TEST(SpanCollector, ExportAssignsOneVirtualTidPerTrace)
{
    SpanCollector c(16);
    const auto now = std::chrono::steady_clock::now();
    const auto at = [now](int ns) {
        return now + std::chrono::nanoseconds(ns);
    };
    // Two traces, interleaved as a worker pool would produce them.
    for (int i = 0; i < 3; ++i) {
        c.recordBetween(0xaaa, "service.solve", at(i * 100),
                        at(i * 100 + 10));
        c.recordBetween(0xbbb, "service.solve", at(i * 100 + 50),
                        at(i * 100 + 60));
    }
    TraceEventSink sink;
    c.exportTo(sink);

    std::set<std::uint32_t> tids_a, tids_b;
    bool named_a = false, named_b = false;
    for (const TraceEvent &e : sink.events()) {
        if (e.ph == 'M' && e.name == "thread_name") {
            for (const auto &[k, v] : e.args) {
                named_a = named_a || v == "trace aaa";
                named_b = named_b || v == "trace bbb";
            }
            continue;
        }
        if (e.ph != 'X')
            continue;
        for (const auto &[k, v] : e.args) {
            if (k != "trace")
                continue;
            if (v == "aaa")
                tids_a.insert(e.tid);
            else if (v == "bbb")
                tids_b.insert(e.tid);
        }
        EXPECT_EQ(e.cat, "span");
    }
    EXPECT_TRUE(named_a);
    EXPECT_TRUE(named_b);
    ASSERT_EQ(tids_a.size(), 1u);
    ASSERT_EQ(tids_b.size(), 1u);
    EXPECT_NE(*tids_a.begin(), *tids_b.begin());
}

TEST(SpanCollector, ExportedTraceValidates)
{
    SpanCollector c(16);
    const auto now = std::chrono::steady_clock::now();
    const auto at = [now](int ns) {
        return now + std::chrono::nanoseconds(ns);
    };
    // One request's shape: wait then solve-with-nested-serialize on
    // the same trace (one virtual track).
    c.recordBetween(0x77, "service.admission_wait", at(0), at(100));
    c.recordBetween(0x77, "service.solve", at(100), at(300));
    c.recordBetween(0x77, "service.serialize", at(300), at(350));
    TraceEventSink sink;
    c.exportTo(sink);
    std::ostringstream os;
    sink.write(os);

    TraceCheckResult res;
    std::string error;
    EXPECT_TRUE(checkTraceText(os.str(), &res, &error)) << error;
    EXPECT_EQ(res.slices, 3u);
}

TEST(ScopedSpan, RecordsIntoGlobalWithTags)
{
    SpanCollector::global().clear();
    {
        ScopedSpan span(0x42, "test.scope");
        span.tag("k", "v");
    }
    const auto spans = SpanCollector::global().snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].traceId, 0x42u);
    EXPECT_EQ(spans[0].name, "test.scope");
    ASSERT_EQ(spans[0].tags.size(), 1u);
    EXPECT_EQ(spans[0].tags[0].first, "k");
    EXPECT_EQ(spans[0].tags[0].second, "v");
    EXPECT_GE(spans[0].durNs, 0);
    SpanCollector::global().clear();
}

TEST(ScopedSpan, ZeroTraceIdIsANoOp)
{
    SpanCollector::global().clear();
    {
        ScopedSpan span(0, "never.recorded");
        span.tag("k", "v");
    }
    EXPECT_TRUE(SpanCollector::global().snapshot().empty());
}

// The ring's memory is fixed: capacity() records of a fixed size,
// however many spans arrive and whatever their tag values hold.
static_assert(sizeof(SpanRecord) <= 96,
              "the span ring's worst case is capacity x 96 bytes");

TEST(SpanCollector, FixedSizeRingCutsLongValuesAndCountsDrops)
{
    SpanCollector c(64);
    const auto now = std::chrono::steady_clock::now();
    const std::string hostile(500, 'p');
    // Twice the capacity, every span tagged with a different
    // client-chosen policy name; the last one absurdly long.
    const std::size_t total = 2 * c.capacity();
    for (std::size_t i = 0; i < total; ++i) {
        const std::string policy =
            i + 1 == total ? hostile
                           : "client-policy-" + std::to_string(i);
        c.recordBetween(i + 1, "service.solve", now, now,
                        {{"policy", policy}});
    }
    const auto spans = c.snapshot();
    ASSERT_EQ(spans.size(), c.capacity());
    EXPECT_EQ(c.dropped(), total - c.capacity());

    // Oldest retained first, values intact when they fit.
    ASSERT_EQ(spans.front().tags.size(), 1u);
    EXPECT_EQ(spans.front().traceId, c.capacity() + 1);
    EXPECT_EQ(spans.front().tags[0].first, "policy");
    EXPECT_EQ(spans.front().tags[0].second,
              "client-policy-" + std::to_string(c.capacity()));

    // The long value comes back cut, with the marker.
    const std::string &cut = spans.back().tags[0].second;
    ASSERT_GT(cut.size(), kTruncationMarker.size());
    EXPECT_LT(cut.size(), hostile.size());
    EXPECT_EQ(cut.substr(cut.size() - kTruncationMarker.size()),
              kTruncationMarker);
    EXPECT_EQ(cut.substr(0, cut.size() - kTruncationMarker.size()),
              hostile.substr(0, cut.size() - kTruncationMarker.size()));
}

TEST(SpanCollector, RouteAttemptTagsFitUncut)
{
    // The widest span the router records: three tags, a host:port
    // backend label among them.
    SpanCollector c(4);
    const auto now = std::chrono::steady_clock::now();
    c.recordBetween(1, "cluster.route_attempt", now, now,
                    {{"backend", "127.0.0.1:65535"},
                     {"outcome", "hedge-lost"},
                     {"attempt", "12"}});
    const auto spans = c.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    const std::vector<std::pair<std::string, std::string>> want = {
        {"backend", "127.0.0.1:65535"},
        {"outcome", "hedge-lost"},
        {"attempt", "12"}};
    EXPECT_EQ(spans[0].tags, want);
}

TEST(SpanCollector, ExtraTagsAreDroppedAndLongValuesCut)
{
    SpanCollector c(4);
    const auto now = std::chrono::steady_clock::now();
    const std::string long_value(80, 'v');
    c.recordBetween(3, "service.solve", now, now,
                    {{"k1", "v1"},
                     {"k2", long_value},
                     {"k3", "v3"},
                     {"k4", "dropped"}});
    const auto spans = c.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    const Span &got = spans[0];
    // Tags past SpanRecord::kMaxTags are dropped; the short values
    // stay whole beside the cut one.
    ASSERT_EQ(got.tags.size(), SpanRecord::kMaxTags);
    EXPECT_EQ(got.tags[0], std::make_pair(std::string("k1"),
                                          std::string("v1")));
    EXPECT_EQ(got.tags[1].first, "k2");
    const std::string &cut = got.tags[1].second;
    EXPECT_LT(cut.size(), long_value.size());
    EXPECT_EQ(cut.substr(cut.size() - kTruncationMarker.size()),
              kTruncationMarker);
    EXPECT_EQ(got.tags[2], std::make_pair(std::string("k3"),
                                          std::string("v3")));
}

TEST(ScopedSpan, ExtraTagsAreDroppedAndLongValuesCut)
{
    SpanCollector::global().clear();
    {
        ScopedSpan span(0x43, "test.scope");
        span.tag("a", std::string(200, 'a'));
        span.tag("b", "bee");
        span.tag("c", "sea");
        span.tag("d", "never kept");
    }
    const auto spans = SpanCollector::global().snapshot();
    ASSERT_EQ(spans.size(), 1u);
    ASSERT_EQ(spans[0].tags.size(), SpanRecord::kMaxTags);
    const std::string &a = spans[0].tags[0].second;
    EXPECT_EQ(a.substr(a.size() - kTruncationMarker.size()),
              kTruncationMarker);
    EXPECT_EQ(spans[0].tags[1].second, "bee");
    EXPECT_EQ(spans[0].tags[2].second, "sea");
    SpanCollector::global().clear();
}

/** TSan target: concurrent record/snapshot/export must be clean. */
TEST(SpanConcurrency, HammerRecordSnapshotExport)
{
    SpanCollector c(256);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c, t] {
            const auto now = std::chrono::steady_clock::now();
            for (int i = 0; i < kPerThread; ++i) {
                c.recordBetween(
                    static_cast<std::uint64_t>(t) * 100000 + i + 1,
                    "hammer", now, now + std::chrono::nanoseconds(1));
                if (i % 512 == 0) {
                    (void)c.snapshot();
                    TraceEventSink sink;
                    c.exportTo(sink);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.snapshot().size(), 256u);
    EXPECT_EQ(c.dropped(),
              static_cast<std::uint64_t>(kThreads) * kPerThread - 256);
}
