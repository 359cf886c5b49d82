/**
 * @file
 * jitsched-router — the cluster front end.
 *
 * Binds a loopback TCP port, prints the bound address, and routes
 * scheduling requests over a set of jitschedd backends until
 * SIGINT/SIGTERM.  Speaks the same wire protocol as jitschedd on
 * both sides, so existing clients (jitsched-cli included) work
 * unchanged.  All the interesting machinery lives in the library
 * (cluster/router.hh); this file is argument parsing and signal
 * plumbing.
 *
 * Usage:
 *   jitsched-router --backend HOST:PORT [--backend HOST:PORT ...]
 *                   [--address A] [--port P] [--handlers N]
 *                   [--mode affinity|round-robin] [--tries N]
 *                   [--try-timeout-ms T] [--hedge-ms T]
 *                   [--trace-out FILE]
 */

#include <signal.h>

#include <climits>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/router.hh"
#include "obs/instruments.hh"
#include "obs/span.hh"
#include "obs/trace_event.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

using namespace jitsched;
using namespace jitsched::cluster;

namespace {

[[noreturn]] void
usage(int rc)
{
    std::cerr <<
        "usage: jitsched-router --backend HOST:PORT [...] [options]\n"
        "  --backend H:P        a jitschedd backend (repeatable,\n"
        "                       at least one required)\n"
        "  --address A          bind address (default 127.0.0.1)\n"
        "  --port P             bind port; 0 = ephemeral (default 0)\n"
        "  --handlers N         connection handler threads, 1..64\n"
        "                       (default 4)\n"
        "  --mode M             affinity | round-robin (default affinity)\n"
        "  --tries N            tries per request (default 3)\n"
        "  --try-timeout-ms T   per-try response deadline (default 5000)\n"
        "  --hedge-ms T         hedge delay; negative disables (default -1)\n"
        "  --trace-out FILE     at shutdown, write collected route\n"
        "                       spans as Chrome/Perfetto trace JSON\n"
        "  --help               this text\n";
    std::exit(rc);
}

/** @p value as an integer in [@p min, @p max]; fatal otherwise. */
int
intArg(const std::string &flag, const std::string &value, int min,
       int max = INT_MAX)
{
    const auto v = parseInt(value);
    if (!v || *v < min || *v > max)
        JITSCHED_FATAL(flag, " must be an integer in ", min, "..", max,
                       ", got '", value, "'");
    return static_cast<int>(*v);
}

BackendEndpoint
parseBackend(const std::string &spec)
{
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size())
        JITSCHED_FATAL("--backend needs HOST:PORT, got '", spec,
                       "'");
    BackendEndpoint ep;
    ep.address = spec.substr(0, colon);
    const auto port = parseInt(spec.substr(colon + 1));
    if (!port || *port <= 0 || *port > 65535)
        JITSCHED_FATAL("--backend port out of range in '", spec,
                       "'");
    ep.port = static_cast<std::uint16_t>(*port);
    return ep;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    RouterConfig cfg;
    std::string trace_out;
    std::vector<BackendEndpoint> backends;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                JITSCHED_FATAL(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--backend") {
            backends.push_back(parseBackend(next()));
        } else if (arg == "--address") {
            cfg.bindAddress = next();
        } else if (arg == "--port") {
            cfg.port =
                static_cast<std::uint16_t>(intArg(arg, next(), 0, 65535));
        } else if (arg == "--handlers") {
            cfg.handlerThreads = static_cast<std::size_t>(
                intArg(arg, next(), 1, kMaxHandlerThreads));
        } else if (arg == "--mode") {
            const std::string m = next();
            if (m == "affinity")
                cfg.mode = RoutingMode::Affinity;
            else if (m == "round-robin")
                cfg.mode = RoutingMode::RoundRobin;
            else
                JITSCHED_FATAL("--mode must be affinity or "
                               "round-robin, got '", m, "'");
        } else if (arg == "--tries") {
            cfg.maxTries = intArg(arg, next(), 1);
        } else if (arg == "--try-timeout-ms") {
            cfg.tryTimeoutMs = intArg(arg, next(), 1);
        } else if (arg == "--hedge-ms") {
            cfg.hedgeDelayMs = intArg(arg, next(), INT_MIN);
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else {
            std::cerr << "jitsched-router: unknown option '" << arg
                      << "'\n";
            usage(2);
        }
    }
    if (backends.empty()) {
        std::cerr << "jitsched-router: at least one --backend is "
                     "required\n";
        usage(2);
    }

    // Spans are read only by --trace-out at shutdown; without it,
    // recording them would only fill the ring.
    obs::SpanCollector::setEnabled(!trace_out.empty());

    sigset_t wait_set;
    sigemptyset(&wait_set);
    sigaddset(&wait_set, SIGINT);
    sigaddset(&wait_set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &wait_set, nullptr);

    // Pre-create the cluster instrument inventory so a STATS scrape
    // of a fresh router already carries the complete key set.
    {
        std::vector<std::string> labels;
        labels.reserve(backends.size());
        for (const BackendEndpoint &ep : backends)
            labels.push_back(ep.label());
        obs::registerClusterInstruments(labels);
    }

    Router router(backends, cfg);
    std::string error;
    if (!router.start(&error))
        JITSCHED_FATAL("cannot start: ", error);

    // One line on stdout so scripts can scrape the ephemeral port.
    std::cout << "jitsched-router listening on "
              << router.bindAddress() << ":" << router.port()
              << std::endl;
    {
        std::cout << "backends:";
        for (const BackendEndpoint &ep : backends)
            std::cout << " " << ep.label();
        std::cout << std::endl;
    }

    int sig = 0;
    while (sigwait(&wait_set, &sig) != 0) {
    }

    std::cout << "jitsched-router: shutting down ("
              << router.framesServed() << " frames, "
              << router.requestsSpilled() << " spilled, "
              << router.requestsFailed() << " failed)" << std::endl;
    router.stop();

    if (!trace_out.empty()) {
        // Stopped first, so every in-flight route's spans landed.
        // An idle router writes nothing: --trace-smoke only checks
        // files that exist.
        obs::SpanCollector &spans = obs::SpanCollector::global();
        if (spans.snapshot().empty()) {
            std::cout << "jitsched-router: no spans collected; "
                         "skipping " << trace_out << std::endl;
        } else {
            obs::TraceEventSink sink;
            spans.exportTo(sink);
            sink.writeFile(trace_out);
            std::cout << "jitsched-router: wrote " << sink.size()
                      << " trace events to " << trace_out
                      << std::endl;
        }
    }
    return 0;
}
