/**
 * @file
 * Unit and concurrency tests for the metrics registry.
 *
 * The concurrency suites are the satellite the TSan job runs: N
 * threads hammer counters and histograms, and the scrape must equal
 * the deterministic totals — striped relaxed atomics lose nothing.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/instruments.hh"
#include "obs/metrics.hh"

namespace jitsched {
namespace obs {
namespace {

TEST(Metrics, CounterStartsAtZeroAndAccumulates)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name returns the same instrument.
    EXPECT_EQ(&reg.counter("test.counter"), &c);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, GaugeSetAddSetMax)
{
    MetricsRegistry reg;
    Gauge &g = reg.gauge("test.gauge");
    g.set(7);
    EXPECT_EQ(g.value(), 7);
    g.add(-3);
    EXPECT_EQ(g.value(), 4);
    g.setMax(10);
    EXPECT_EQ(g.value(), 10);
    g.setMax(2); // lower values do not stick
    EXPECT_EQ(g.value(), 10);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBounds)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("test.hist", {10, 100});
    h.observe(10);  // le_10 (inclusive)
    h.observe(11);  // le_100
    h.observe(100); // le_100
    h.observe(101); // le_inf
    const Histogram::Snapshot s = h.snapshot();
    ASSERT_EQ(s.counts.size(), 3u);
    EXPECT_EQ(s.counts[0], 1u);
    EXPECT_EQ(s.counts[1], 2u);
    EXPECT_EQ(s.counts[2], 1u);
    EXPECT_EQ(s.count, 4u);
    EXPECT_EQ(s.sum, 10 + 11 + 100 + 101);
}

TEST(Metrics, SnapshotTextIsSortedAndTyped)
{
    MetricsRegistry reg;
    reg.counter("b.counter").add(2);
    reg.gauge("c.gauge").set(-5);
    reg.histogram("a.hist", {10}).observe(3);
    EXPECT_EQ(reg.snapshotText(),
              "histogram a.hist count 1 sum 3 le_10 1 le_inf 0\n"
              "counter b.counter 2\n"
              "gauge c.gauge -5\n");
}

TEST(Metrics, NamesMayEmbedHyphenatedIdentifiers)
{
    MetricsRegistry reg;
    // Policy names like "lower-bound" ride inside instrument names.
    reg.histogram("service.solve_ns.lower-bound", {10});
    EXPECT_NE(reg.snapshotText().find("service.solve_ns.lower-bound"),
              std::string::npos);
}

TEST(MetricsDeath, KindMismatchPanics)
{
    MetricsRegistry reg;
    reg.counter("test.name");
    EXPECT_DEATH(reg.gauge("test.name"), "registered as a different");
}

TEST(MetricsDeath, HistogramBoundsMismatchPanics)
{
    MetricsRegistry reg;
    reg.histogram("test.hist", {10, 100});
    EXPECT_DEATH(reg.histogram("test.hist", {10, 200}),
                 "different bounds");
}

TEST(MetricsDeath, InvalidNamesPanic)
{
    MetricsRegistry reg;
    EXPECT_DEATH(reg.counter(""), "invalid instrument name");
    EXPECT_DEATH(reg.counter("Upper.Case"), "invalid instrument name");
    EXPECT_DEATH(reg.counter(".leading"), "invalid instrument name");
    EXPECT_DEATH(reg.counter("has space"), "invalid instrument name");
}

TEST(Metrics, RuntimeDisableDropsUpdates)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("test.counter");
    Histogram &h = reg.histogram("test.hist", {10});
    const bool was = MetricsRegistry::setEnabled(false);
    c.add(5);
    h.observe(3);
    MetricsRegistry::setEnabled(was);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.snapshot().count, 0u);
    c.add(5);
    EXPECT_EQ(c.value(), 5u);
}

TEST(Metrics, RegisterStandardInstrumentsIsIdempotent)
{
    // The standard inventory lives in the global registry; the count
    // must not grow on re-registration.
    registerStandardInstruments({"iar", "astar"});
    const std::size_t n = MetricsRegistry::global().size();
    registerStandardInstruments({"iar", "astar"});
    EXPECT_EQ(MetricsRegistry::global().size(), n);
    const std::string snap = MetricsRegistry::global().snapshotText();
    EXPECT_NE(snap.find("counter exec.cache.hits"),
              std::string::npos);
    EXPECT_NE(snap.find("counter solver.astar.nodes_expanded"),
              std::string::npos);
    EXPECT_NE(snap.find("gauge service.queue.depth"),
              std::string::npos);
    EXPECT_NE(snap.find("histogram service.solve_ns.iar"),
              std::string::npos);
}

/**
 * The satellite concurrency check: deterministic totals under a
 * thread hammer (run under TSan by scripts/check.sh --tsan).
 */
TEST(MetricsConcurrency, CountersSumExactlyAcrossThreads)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("test.hammered");
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kAddsPerThread = 99'999; // multiple of 3
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kAddsPerThread; ++i)
                c.add(i % 3 + 1); // 1, 2, 3, 1, 2, 3, ...
        });
    }
    for (std::thread &t : threads)
        t.join();
    // Each thread adds 1+2+3 per 3 iterations: exactly 2 per add.
    EXPECT_EQ(c.value(), kThreads * kAddsPerThread * 2);
}

TEST(MetricsConcurrency, HistogramTotalsSurviveThreadHammer)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("test.hammered_hist", {10, 100});
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kObsPerThread = 50'000;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h] {
            for (std::uint64_t i = 0; i < kObsPerThread; ++i)
                h.observe(static_cast<std::int64_t>(i % 200));
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Per thread, i % 200 walks 0..199 exactly kObsPerThread / 200
    // times: 11 values land in le_10 (0..10), 90 in le_100 (11..100),
    // 99 in le_inf (101..199); the sum of 0..199 is 19900.
    const std::uint64_t cycles = kThreads * (kObsPerThread / 200);
    const Histogram::Snapshot s = h.snapshot();
    ASSERT_EQ(s.counts.size(), 3u);
    EXPECT_EQ(s.counts[0], cycles * 11);
    EXPECT_EQ(s.counts[1], cycles * 90);
    EXPECT_EQ(s.counts[2], cycles * 99);
    EXPECT_EQ(s.count, kThreads * kObsPerThread);
    EXPECT_EQ(s.sum, static_cast<std::int64_t>(cycles * 19900));
}

TEST(Metrics, PrometheusExposition)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("prom.requests.total");
    c.add(3);
    Gauge &g = reg.gauge("prom.in-flight");
    g.set(-2);
    Histogram &h = reg.histogram("prom.wait_ns", {10, 100});
    h.observe(5);    // le 10
    h.observe(50);   // le 100
    h.observe(5000); // +Inf

    // Byte-exact: names gain the jitsched_ prefix with '.'/'-'
    // mapped to '_'; histograms emit *cumulative* le buckets plus
    // +Inf, _sum and _count; map order keeps the output sorted.
    EXPECT_EQ(reg.snapshotProm(),
              "# TYPE jitsched_prom_in_flight gauge\n"
              "jitsched_prom_in_flight -2\n"
              "# TYPE jitsched_prom_requests_total counter\n"
              "jitsched_prom_requests_total 3\n"
              "# TYPE jitsched_prom_wait_ns histogram\n"
              "jitsched_prom_wait_ns_bucket{le=\"10\"} 1\n"
              "jitsched_prom_wait_ns_bucket{le=\"100\"} 2\n"
              "jitsched_prom_wait_ns_bucket{le=\"+Inf\"} 3\n"
              "jitsched_prom_wait_ns_sum 5055\n"
              "jitsched_prom_wait_ns_count 3\n");
}

TEST(Metrics, PrometheusExpositionOfAnEmptyRegistryIsEmpty)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.snapshotProm(), "");
}

TEST(MetricsConcurrency, RegistrationRacesResolveToOneInstrument)
{
    MetricsRegistry reg;
    constexpr std::size_t kThreads = 8;
    std::vector<Counter *> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, &seen, t] {
            Counter &c = reg.counter("test.raced");
            c.add();
            seen[t] = &c;
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::size_t t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(reg.counter("test.raced").value(), kThreads);
}

} // anonymous namespace
} // namespace obs
} // namespace jitsched
