/**
 * @file
 * perfbench — the repository benchmark's load generator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --bin-dir DIR --out-dir DIR
 *   perfbench --canary --bin-dir DIR --out-dir DIR
 *
 * A run generates the workload from the seed, spawns the system nine
 * times (the median time to the first PING answer is `setup_s`),
 * warms it up for a second, measures one closed-loop window, checks
 * every answer, and prints the metrics.  `--trace 1` measures an
 * untraced window first, then a traced one, and prints the per-layer
 * metrics, the per-layer table and the tracing overhead.  The last
 * stdout line is always the JSON result.
 *
 * `--canary` is the self-test of the checks: answers from a live
 * daemon must pass, and the same answers with the make-span moved by
 * one tick or the id changed must be rejected.
 */

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "layers.hh"
#include "load.hh"
#include "mixes.hh"
#include "obs/trace_event.hh"
#include "procs.hh"
#include "util.hh"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool canary = false;
    std::string binDir;
    std::string outDir;
};

constexpr std::size_t kSetups = 9;
constexpr double kWarmupSeconds = 1.0;
constexpr std::uint64_t kWarmupK = std::uint64_t(1) << 20;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --bin-dir DIR --out-dir DIR\n"
                 "       perfbench --canary --bin-dir DIR --out-dir DIR\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(next().c_str(), nullptr);
        else if (a == "--trace")
            o.trace = next() == "1";
        else if (a == "--bin-dir")
            o.binDir = next();
        else if (a == "--out-dir")
            o.outDir = next();
        else if (a == "--canary")
            o.canary = true;
        else
            usage("unknown argument '" + a + "'");
    }
    if (o.binDir.empty() || o.outDir.empty())
        usage("--bin-dir and --out-dir are required");
    if (!o.canary) {
        bool known = false;
        for (const std::string &n : mixNames())
            known = known || n == o.workload;
        if (!known)
            usage("unknown workload '" + o.workload + "'");
        if (!(o.seconds > 0.0))
            usage("--seconds must be positive");
    }
    return o;
}

std::size_t
hardwareCores()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/** What one measured window yields end to end. */
struct EndToEnd
{
    CheckReport report;
    std::vector<Metric> metrics;
};

EndToEnd
measure(const Mix &mix, System &sys, const Options &o, double setup_s,
        std::uint64_t id0, BodyLedger &ledger,
        jitsched::obs::SpanCollector *spans, Window *keep)
{
    const double cpu0 = sys.cpuMs();
    const HostTicks host0 = hostTicks();
    Window w = runWindow(mix, sys.entryPort(), o.seconds, 0, id0,
                         mix.minRequests(), mix.cycle(), spans);
    const HostTicks host1 = hostTicks();
    const double cpu1 = sys.cpuMs();
    EndToEnd e;
    e.report = checkWindow(mix, w, ledger);
    const CheckReport &r = e.report;

    std::vector<double> lat;
    double log_sum = 0.0, n_ratio = 0.0;
    for (const Answer &a : r.answers) {
        lat.push_back(a.latencyMs);
        if (a.ok && a.resp.hasSim && a.resp.lowerBound > 0) {
            log_sum += std::log(static_cast<double>(a.resp.sim.makespan) /
                                static_cast<double>(a.resp.lowerBound));
            n_ratio += 1.0;
        }
    }
    const double completed = static_cast<double>(r.completed);
    e.metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_rps", ratio(completed, w.elapsedS), "req/s"},
        {"latency_p50_ms", percentile(lat, 0.5), "ms"},
        {"latency_p90_ms", percentile(lat, 0.9), "ms"},
        {"ok_frac",
         ratio(static_cast<double>(r.ok), static_cast<double>(r.attempted)),
         "ratio"},
        {"makespan_over_lb",
         n_ratio > 0 ? std::exp(log_sum / n_ratio) : 0.0, "ratio"},
        {"cpu_ms_per_req", ratio(cpu1 - cpu0, completed), "ms"},
        {"peak_rss_mb", sys.peakRssMb(), "MiB"},
    };
    std::printf("%s: %llu attempted, %llu ok, %llu refused, %llu failed "
                "in %.3f s; %llu answers below their lower-bound line, "
                "%llu instances with varying incumbent costs\n",
                mix.name().c_str(),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.refused),
                static_cast<unsigned long long>(r.failed), w.elapsedS,
                static_cast<unsigned long long>(r.belowStatedBound),
                static_cast<unsigned long long>(r.incumbentCostsVaried));
    // On a shared host, other guests' load shows up as steal time;
    // timings from a window with a large share are not comparable.
    std::printf("host steal time during the window: %.1f%% of CPU time\n",
                100.0 * ratio(host1.steal - host0.steal,
                              host1.total - host0.total));
    if (keep != nullptr)
        *keep = std::move(w);
    return e;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &ms)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonString(ms[i].name) + ": {\"value\": " +
               jsonNumber(ms[i].value) +
               ", \"unit\": " + jsonString(ms[i].unit) + "}";
    }
    return out + "}}";
}

int
run(const Options &o)
{
    const std::size_t cores = hardwareCores();
    // Inputs first: nothing is spawned until the workload exists.
    const Mix mix(o.workload, o.seed, cores);

    System sys(o.binDir, o.outDir);
    std::vector<double> setups;
    std::string error;
    for (std::size_t i = 0; i < kSetups; ++i) {
        if (i > 0)
            sys.stop();
        const double s = sys.start(mix.backends(), mix.routed(), &error);
        if (s < 0) {
            std::cerr << "perfbench: set-up failed: " << error << "\n";
            return 1;
        }
        setups.push_back(s);
    }
    const double setup_s = median(setups);

    std::vector<std::string> violations;
    BodyLedger ledger;
    // Warm-up on requests the window never sends.
    {
        const Window warm =
            runWindow(mix, sys.entryPort(), kWarmupSeconds, kWarmupK,
                      std::uint64_t(1) << 40, 0, 1);
        const CheckReport r = checkWindow(mix, warm, ledger);
        violations.insert(violations.end(), r.violations.begin(),
                          r.violations.end());
    }

    EndToEnd e = measure(mix, sys, o, setup_s, 1, ledger, nullptr, nullptr);
    violations.insert(violations.end(), e.report.violations.begin(),
                      e.report.violations.end());
    std::vector<Metric> reported = e.metrics;
    std::uint64_t attempted = e.report.attempted;
    std::uint64_t failed = e.report.failed;

    if (o.trace) {
        std::vector<std::uint16_t> router;
        if (mix.routed())
            router.push_back(sys.entryPort());
        TracedRun tr;
        tr.mix = &mix;
        tr.backendPorts = sys.backendPorts();
        tr.cores = cores;
        // The router's pooled connections hold every backend handler
        // while it runs, so behind a router the backends are scraped
        // only once it has stopped, against their zero start: those
        // deltas span warm-up and both windows.
        if (!mix.routed())
            tr.daemonBefore = scrapeStats(tr.backendPorts);
        tr.routerBefore = scrapeStats(router);
        jitsched::obs::SpanCollector spans(std::size_t(1) << 21);
        Window w;
        EndToEnd traced = measure(mix, sys, o, setup_s,
                                  std::uint64_t(1) << 32, ledger, &spans,
                                  &w);
        tr.routerAfter = scrapeStats(router);
        sys.stopRouter();
        tr.daemonAfter = scrapeStats(tr.backendPorts);
        tr.window = &w;
        tr.report = &traced.report;
        violations.insert(violations.end(),
                          traced.report.violations.begin(),
                          traced.report.violations.end());
        reported = analyzeLayers(tr, spans, violations);
        attempted = traced.report.attempted;
        failed = traced.report.failed;

        // setup_s is shared and peak RSS is a lifetime high-water
        // mark, so neither has a per-window difference.
        std::printf("tracing overhead (traced - untraced window):\n");
        for (std::size_t i = 1; i + 1 < e.metrics.size(); ++i)
            std::printf("  %-20s %+14.6f %s\n", e.metrics[i].name.c_str(),
                        traced.metrics[i].value - e.metrics[i].value,
                        e.metrics[i].unit.c_str());

        const std::string path = o.outDir + "/trace-" + o.workload +
                                 "-" + std::to_string(o.seed) + ".json";
        jitsched::obs::TraceEventSink sink;
        spans.exportTo(sink);
        sink.writeFile(path);
        const int rc = runToCompletion(
            {o.binDir + "/jitsched-trace-check", path},
            o.outDir + "/trace-check.log");
        std::printf("chrome trace %s: %zu events, jitsched-trace-check "
                    "exit %d\n",
                    path.c_str(), sink.size(), rc);
        if (rc != 0)
            violations.push_back("jitsched-trace-check rejected " + path);
    }
    sys.stop();

    for (std::size_t i = 0; i < violations.size() && i < 10; ++i)
        std::printf("VIOLATION %s\n", violations[i].c_str());
    const bool correct = violations.empty();
    std::printf("%s metrics, %s, seed %llu:\n",
                o.trace ? "per-layer" : "end-to-end", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed));
    printMetrics(reported);

    std::printf("%s\n",
                resultLine(correct, attempted, failed, reported).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/** Bump the `makespan` line of a raw response by one tick. */
std::string
bumpMakespan(const std::string &raw)
{
    const auto at = raw.find("\nmakespan ");
    if (at == std::string::npos)
        return raw;
    const auto begin = at + 10;
    const auto end = raw.find('\n', begin);
    const long long v = std::stoll(raw.substr(begin, end - begin));
    return raw.substr(0, begin) + std::to_string(v + 1) + raw.substr(end);
}

int
canary(const Options &o)
{
    const Mix mix("serve-distinct", 2, hardwareCores());
    System sys(o.binDir, o.outDir);
    std::string error;
    if (sys.start(1, false, &error) < 0) {
        std::cerr << "perfbench: set-up failed: " << error << "\n";
        return 1;
    }
    const Window w = runWindow(mix, sys.entryPort(), 0.5, 0, 1, 20, 1);
    sys.stop();
    int checked = 0, failures = 0;
    for (const Sample &s : w.samples) {
        jitsched::ServiceResponse resp;
        if (!s.transportOk ||
            !checkResponse(mix, s.id, s.pick, s.raw, &resp).empty()) {
            std::printf("canary: a genuine answer failed its check\n");
            ++failures;
            continue;
        }
        if (!resp.hasSchedule)
            continue;
        ++checked;
        const std::string bumped = bumpMakespan(s.raw);
        if (checkResponse(mix, s.id, s.pick, bumped, &resp).empty()) {
            std::printf("canary: a one-tick make-span change passed\n");
            ++failures;
        }
        if (checkResponse(mix, s.id + 1, s.pick, s.raw, &resp).empty()) {
            std::printf("canary: a wrong response id passed\n");
            ++failures;
        }
    }
    std::printf("canary: %d answers with a schedule, each rejected when "
                "its make-span moves one tick; %d failures\n",
                checked, failures);
    return failures == 0 && checked > 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    // Every exit path below reaps the children; a stuck run is cut
    // by the alarm well inside the 180 s a run may take.
    installReaper(170);
    return o.canary ? canary(o) : run(o);
}
