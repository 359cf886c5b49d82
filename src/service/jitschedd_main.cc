/**
 * @file
 * jitschedd — the scheduling-as-a-service daemon.
 *
 * Binds a loopback TCP port, prints the bound address, and serves
 * scheduling requests until SIGINT/SIGTERM.  All the interesting
 * machinery lives in the library (service/server.hh); this file is
 * argument parsing and signal plumbing.
 *
 * Usage:
 *   jitschedd [--address A] [--port P] [--handlers N]
 *             [--result-cache-mb M] [--snapshot-file FILE]
 *             [--trace-out FILE]
 */

#include <signal.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/instruments.hh"
#include "obs/span.hh"
#include "obs/trace_event.hh"
#include "service/server.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

using namespace jitsched;

namespace {

[[noreturn]] void
usage(int rc)
{
    std::cerr <<
        "usage: jitschedd [options]\n"
        "  --address A          bind address (default 127.0.0.1)\n"
        "  --port P             bind port; 0 = ephemeral (default 0)\n"
        "  --handlers N         connection handler threads, 1..64; each\n"
        "                       solves the requests it reads, so N\n"
        "                       solves run at once (default 4)\n"
        "  --result-cache-mb M  request-level result cache budget in MiB;\n"
        "                       0 disables (default: JITSCHED_RESULT_CACHE_MB,\n"
        "                       else 0)\n"
        "  --snapshot-file FILE warm-restart snapshot: loaded at startup,\n"
        "                       written on clean shutdown and on the\n"
        "                       SNAPSHOT verb; needs the cache on\n"
        "                       (default: JITSCHED_RESULT_CACHE_SNAPSHOT,\n"
        "                       else none)\n"
        "  --trace-out FILE     at shutdown, write collected request\n"
        "                       spans as Chrome/Perfetto trace JSON\n"
        "  --help               this text\n";
    std::exit(rc);
}

std::uint64_t
intArg(const std::string &flag, const std::string &value)
{
    const auto v = parseInt(value);
    if (!v || *v < 0)
        JITSCHED_FATAL(flag, " needs a non-negative integer, got '",
                       value, "'");
    return static_cast<std::uint64_t>(*v);
}

/** @p mb MiB in bytes; fatal, naming @p what, if that overflows. */
std::size_t
mibToBytes(const char *what, std::uint64_t mb)
{
    if (mb > (SIZE_MAX >> 20))
        JITSCHED_FATAL(what, " must be at most ", SIZE_MAX >> 20,
                       " (MiB), got ", mb);
    return static_cast<std::size_t>(mb) << 20;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    ServerConfig cfg;
    // Env defaults first; flags below override.
    cfg.resultCacheBytes = mibToBytes(
        "JITSCHED_RESULT_CACHE_MB",
        parseResultCacheMbEnv(std::getenv("JITSCHED_RESULT_CACHE_MB")));
    const char *snapshot_source = "JITSCHED_RESULT_CACHE_SNAPSHOT";
    if (const char *snap = std::getenv(snapshot_source))
        cfg.snapshotPath = snap;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                JITSCHED_FATAL(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--address") {
            cfg.bindAddress = next();
        } else if (arg == "--port") {
            const std::uint64_t port = intArg(arg, next());
            if (port > 65535)
                JITSCHED_FATAL("--port must be 0..65535, got ", port);
            cfg.port = static_cast<std::uint16_t>(port);
        } else if (arg == "--handlers") {
            const std::uint64_t handlers = intArg(arg, next());
            if (handlers == 0 || handlers > kMaxHandlerThreads)
                JITSCHED_FATAL("--handlers must be 1..",
                               kMaxHandlerThreads, ", got ", handlers);
            cfg.handlerThreads = static_cast<std::size_t>(handlers);
        } else if (arg == "--result-cache-mb") {
            cfg.resultCacheBytes =
                mibToBytes("--result-cache-mb", intArg(arg, next()));
        } else if (arg == "--snapshot-file") {
            cfg.snapshotPath = next();
            snapshot_source = "--snapshot-file";
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else {
            std::cerr << "jitschedd: unknown option '" << arg
                      << "'\n";
            usage(2);
        }
    }
    // After the loop, so flag order does not matter: with the cache
    // off no snapshot is ever loaded or written.
    if (!cfg.snapshotPath.empty() && cfg.resultCacheBytes == 0)
        JITSCHED_FATAL(snapshot_source, " needs --result-cache-mb > 0");

    // Block the shutdown signals before any thread exists so every
    // thread the server spawns inherits the mask and only the main
    // thread's sigwait() sees them.
    sigset_t wait_set;
    sigemptyset(&wait_set);
    sigaddset(&wait_set, SIGINT);
    sigaddset(&wait_set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &wait_set, nullptr);

    // Spans are read only by --trace-out at shutdown; without it,
    // recording them would only fill the ring.
    obs::SpanCollector::setEnabled(!trace_out.empty());

    ServiceEngine engine;
    // Pre-create the standard instrument inventory so a STATS scrape
    // of a fresh daemon already carries the complete key set.
    obs::registerStandardInstruments(engine.registry().names());
    ServiceServer server(engine, cfg);
    std::string error;
    if (!server.start(&error))
        JITSCHED_FATAL("cannot start: ", error);

    // One line on stdout so scripts can scrape the ephemeral port.
    std::cout << "jitschedd listening on " << server.bindAddress()
              << ":" << server.port() << std::endl;
    if (cfg.resultCacheBytes > 0)
        std::cout << "result-cache: " << (cfg.resultCacheBytes >> 20)
                  << " MiB"
                  << (cfg.snapshotPath.empty()
                          ? std::string()
                          : ", snapshot " + cfg.snapshotPath)
                  << std::endl;
    {
        const auto &pols = engine.registry().names();
        std::cout << "policies:";
        for (const std::string &p : pols)
            std::cout << " " << p;
        std::cout << std::endl;
    }

    int sig = 0;
    while (sigwait(&wait_set, &sig) != 0) {
    }

    std::cout << "jitschedd: shutting down ("
              << server.framesServed() << " frames over "
              << server.connectionsAccepted() << " connections)"
              << std::endl;
    server.stop();

    if (!trace_out.empty()) {
        // Stopped first, so every in-flight request's spans landed.
        // An idle daemon writes nothing: --trace-smoke only checks
        // files that exist.
        obs::SpanCollector &spans = obs::SpanCollector::global();
        if (spans.snapshot().empty()) {
            std::cout << "jitschedd: no spans collected; skipping "
                      << trace_out << std::endl;
        } else {
            obs::TraceEventSink sink;
            spans.exportTo(sink);
            sink.writeFile(trace_out);
            std::cout << "jitschedd: wrote " << sink.size()
                      << " trace events to " << trace_out
                      << std::endl;
        }
    }
    return 0;
}
