/**
 * @file
 * jitsched-cli — loopback client for jitschedd.
 *
 * Reads a workload (text trace format) from a file or stdin, submits
 * it to a running daemon under a named policy, and prints the
 * response frame.  The output *is* the wire format, so what the CLI
 * prints is exactly what any client would parse.
 *
 * Usage:
 *   jitsched-cli [--host H] [--port P] [--policy NAME]
 *                [--option K V]... [--id N] [--no-stats]
 *                [--trace-id HEX] [--trace-out FILE]
 *                [<workload-file> | -]
 *   jitsched-cli stats [--host H] [--port P] [--id N] [--prom]
 *   jitsched-cli dump  [--host H] [--port P] [--id N]
 *   jitsched-cli snapshot [--host H] [--port P] [--id N]
 *   jitsched-cli --list-policies
 *
 * Every request the CLI submits carries a trace id: minted here (the
 * CLI is the first contact) unless --trace-id pins one, so a request
 * followed through the router and a backend is one trace end to end.
 */

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hh"
#include "obs/schedule_timeline.hh"
#include "obs/span.hh"
#include "service/client.hh"
#include "service/policy.hh"
#include "support/logging.hh"
#include "support/strutil.hh"
#include "trace/trace_io.hh"

using namespace jitsched;

namespace {

[[noreturn]] void
usage(int rc)
{
    std::cerr <<
        "usage: jitsched-cli [options] [<workload-file> | -]\n"
        "       jitsched-cli stats [--host H] [--port P] [--id N]"
        " [--prom]\n"
        "       jitsched-cli ping  [--host H] [--port P] [--id N]\n"
        "       jitsched-cli dump  [--host H] [--port P] [--id N]\n"
        "       jitsched-cli snapshot [--host H] [--port P] [--id N]\n"
        "  --host H             daemon address (default 127.0.0.1)\n"
        "  --port P             daemon port (required)\n"
        "  --timeout-ms T       connect/read/write deadline; a hung\n"
        "                       daemon fails the call instead of\n"
        "                       blocking forever (default: block)\n"
        "  --policy NAME        scheduling policy (default iar)\n"
        "  --option K V         request option (repeatable); keys:\n"
        "                       compile-cores, model, jitter-sigma,\n"
        "                       jitter-seed, astar-max-expansions,\n"
        "                       astar-memory-mb, threads, deadline-ms\n"
        "  --threads N          worker count for --policy astar-par\n"
        "                       (shorthand for --option threads N)\n"
        "  --id N               request id echoed in the response\n"
        "  --no-stats           omit the volatile stats line\n"
        "  --trace-id HEX       pin the request's trace id (1..16 hex\n"
        "                       digits, nonzero); default: mint one\n"
        "  --prom               (stats) Prometheus text exposition\n"
        "  --trace-out FILE     write the response schedule's timeline\n"
        "                       as Chrome/Perfetto trace JSON\n"
        "  --list-policies      print the built-in policies and exit\n"
        "  --help               this text\n"
        "With no file argument (or '-') the workload is read from "
        "stdin.\n"
        "The 'stats' subcommand scrapes the daemon's metrics registry\n"
        "and prints the snapshot frame (--prom prints the bare\n"
        "Prometheus exposition).  The 'ping' subcommand sends one\n"
        "liveness probe and exits 0 iff an ok pong came back.  The\n"
        "'dump' subcommand scrapes the peer's in-memory flight\n"
        "recorder: one line per remembered request.  The 'snapshot'\n"
        "subcommand asks the daemon to save its result cache to the\n"
        "configured --snapshot-file.\n";
    std::exit(rc);
}

void
listPolicies()
{
    const PolicyRegistry &reg = PolicyRegistry::builtin();
    for (const std::string &name : reg.names())
        std::cout << name << "\t" << reg.find(name)->describe()
                  << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    int port = -1;
    std::string policy = "iar";
    std::vector<std::pair<std::string, std::string>> options;
    std::uint64_t id = 1;
    bool with_stats = true;
    bool stats_mode = false;
    bool ping_mode = false;
    bool dump_mode = false;
    bool snapshot_mode = false;
    bool prom = false;
    int timeout_ms = -1;
    std::uint64_t trace_id = 0;
    std::string trace_out;
    std::string workload_path = "-";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                JITSCHED_FATAL(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--list-policies") {
            listPolicies();
            return 0;
        } else if (arg == "--host") {
            host = next();
        } else if (arg == "--port") {
            const auto v = parseInt(next());
            if (!v || *v < 1 || *v > 65535)
                JITSCHED_FATAL("--port needs a port number");
            port = static_cast<int>(*v);
        } else if (arg == "--policy") {
            policy = next();
        } else if (arg == "--option") {
            const std::string k = next();
            const std::string v = next();
            options.emplace_back(k, v);
        } else if (arg == "--threads") {
            // Validated by the wire parser below, like any option.
            options.emplace_back("threads", next());
        } else if (arg == "--id") {
            const auto v = parseInt(next());
            if (!v || *v < 0)
                JITSCHED_FATAL("--id needs a non-negative integer");
            id = static_cast<std::uint64_t>(*v);
        } else if (arg == "--no-stats") {
            with_stats = false;
        } else if (arg == "--timeout-ms") {
            const auto v = parseInt(next());
            if (!v || *v < 0)
                JITSCHED_FATAL("--timeout-ms needs a non-negative "
                               "integer");
            timeout_ms = static_cast<int>(*v);
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--trace-id") {
            const auto v = obs::parseTraceIdHex(next());
            if (!v)
                JITSCHED_FATAL("--trace-id needs 1..16 hex digits, "
                               "nonzero");
            trace_id = *v;
        } else if (arg == "--prom") {
            prom = true;
        } else if (arg == "stats" && !stats_mode && !ping_mode &&
                   !dump_mode && !snapshot_mode &&
                   workload_path == "-") {
            stats_mode = true;
        } else if (arg == "ping" && !stats_mode && !ping_mode &&
                   !dump_mode && !snapshot_mode &&
                   workload_path == "-") {
            ping_mode = true;
        } else if (arg == "dump" && !stats_mode && !ping_mode &&
                   !dump_mode && !snapshot_mode &&
                   workload_path == "-") {
            dump_mode = true;
        } else if (arg == "snapshot" && !stats_mode && !ping_mode &&
                   !dump_mode && !snapshot_mode &&
                   workload_path == "-") {
            snapshot_mode = true;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::cerr << "jitsched-cli: unknown option '" << arg
                      << "'\n";
            usage(2);
        } else {
            workload_path = arg;
        }
    }
    if (port < 0)
        JITSCHED_FATAL("--port is required (see jitschedd's "
                       "'listening on' line)");

    const ClientConfig client_cfg{timeout_ms, timeout_ms,
                                  timeout_ms};

    if (ping_mode) {
        ServiceClient client(client_cfg);
        std::string error;
        if (!client.connect(host, static_cast<std::uint16_t>(port),
                            &error))
            JITSCHED_FATAL("cannot reach daemon: ", error);
        if (!client.ping(id, &error))
            JITSCHED_FATAL("ping failed: ", error);
        std::cout << "pong " << id << "\n";
        return 0;
    }

    if (stats_mode) {
        ServiceClient client(client_cfg);
        std::string error;
        if (!client.connect(host, static_cast<std::uint16_t>(port),
                            &error))
            JITSCHED_FATAL("cannot reach jitschedd: ", error);
        auto resp = client.stats(id, &error, prom);
        if (!resp)
            JITSCHED_FATAL(error);
        if (prom && resp->ok) {
            // Bare exposition: what a scraper pastes into Prometheus,
            // no frame wrapper.
            for (const std::string &line : resp->lines)
                std::cout << line << "\n";
        } else {
            std::cout << frameText(*resp);
        }
        return resp->ok ? 0 : 1;
    }

    if (dump_mode) {
        ServiceClient client(client_cfg);
        std::string error;
        if (!client.connect(host, static_cast<std::uint16_t>(port),
                            &error))
            JITSCHED_FATAL("cannot reach peer: ", error);
        auto resp = client.dump(id, &error);
        if (!resp)
            JITSCHED_FATAL(error);
        if (!resp->ok)
            JITSCHED_FATAL("dump refused: ", resp->error);
        for (const obs::FlightRecord &r : resp->records)
            std::cout << obs::FlightRecorder::recordLine(r) << "\n";
        return 0;
    }

    if (snapshot_mode) {
        ServiceClient client(client_cfg);
        std::string error;
        if (!client.connect(host, static_cast<std::uint16_t>(port),
                            &error))
            JITSCHED_FATAL("cannot reach jitschedd: ", error);
        auto resp = client.snapshot(id, &error);
        if (!resp)
            JITSCHED_FATAL(error);
        if (!resp->ok)
            JITSCHED_FATAL("snapshot refused: ", resp->error);
        std::cout << "snapshot " << resp->entries << " entries, "
                  << resp->bytes << " bytes\n";
        return 0;
    }

    // The CLI is a *user* front end: parse the workload and options
    // locally so typos die with a clear message instead of a wire
    // error, then rebuild the canonical frame via requestText().
    Workload w = [&] {
        if (workload_path == "-")
            return readWorkload(std::cin);
        return readWorkloadFile(workload_path);
    }();

    ServiceRequest req;
    req.id = id;
    req.policy = policy;
    req.workload = std::move(w);
    {
        // Round-trip the option pairs through the wire parser so the
        // CLI accepts exactly the keys the daemon does.
        std::string frame = "jitsched-request " + std::to_string(id) +
                            "\npolicy " + policy + "\n";
        for (const auto &[k, v] : options)
            frame += "option " + k + " " + v + "\n";
        frame += "payload\n";
        appendWorkload(frame, req.workload);
        frame += "end\n";
        std::string err;
        auto parsed = tryReadRequest(frame, &err);
        if (!parsed)
            JITSCHED_FATAL(err);
        req = *std::move(parsed);
    }
    // The CLI is the trace's first contact: pin the id the user gave
    // (--trace-id beats an `--option trace-id` duplicate) or mint
    // one, so every submitted request is followable end to end.
    if (trace_id != 0)
        req.traceId = trace_id;
    else if (req.traceId == 0)
        req.traceId = obs::mintTraceId();

    ServiceClient client(client_cfg);
    std::string error;
    if (!client.connect(host, static_cast<std::uint16_t>(port),
                        &error))
        JITSCHED_FATAL("cannot reach jitschedd: ", error);
    auto resp = client.call(req, &error);
    if (!resp)
        JITSCHED_FATAL(error);

    std::cout << responseText(*resp, with_stats);

    if (!trace_out.empty()) {
        // The timeline is rebuilt client-side from the request's
        // workload and the response's schedule — the same pure
        // simulate() the daemon ran, so the trace shows exactly what
        // the response priced.
        if (!resp->ok || !resp->hasSchedule)
            JITSCHED_FATAL("--trace-out: the response carries no "
                           "schedule to trace (policy '",
                           resp->policy, "')");
        SimOptions so;
        so.compileCores = req.options.compileCores;
        so.execJitterSigma = req.options.jitterSigma;
        so.jitterSeed = req.options.jitterSeed;
        obs::writeScheduleTraceFile(trace_out, req.workload,
                                    Schedule(resp->schedule), so);
        std::cerr << "jitsched-cli: wrote trace to " << trace_out
                  << "\n";
    }
    return resp->ok ? 0 : 1;
}
