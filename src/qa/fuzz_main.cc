/**
 * @file
 * jitsched-fuzz — the differential fuzzing driver.
 *
 * Subcommands:
 *
 *   solvers    random + mutated OCSP instances through the full
 *              cross-solver oracle chain (qa/oracles.hh)
 *   protocol   byte-level parser fuzzing plus the loopback fault
 *              injector against a live in-process daemon
 *   cluster    fault injection against a live in-process cluster
 *              (backends + tarpit + router): kills, hangs, mangled
 *              frames — see qa/cluster_fuzz.hh
 *   result-cache
 *              byte-identity differential for the request-level
 *              result cache: published bodies and snapshot round
 *              trips must match fresh solves exactly — see
 *              qa/result_cache_fuzz.hh
 *   replay     re-run corpus files (*.workload / *.frame) through
 *              the oracles appropriate to their extension
 *
 * Every case is driven by Rng::caseStream(seed, case), so a failure
 * is reproducible from the `--seed` value and the printed case id
 * alone.  On the first failure the driver stops, greedily minimizes
 * the case, writes a reproducer file into `--corpus-dir`, and exits
 * nonzero — the file replays directly with `jitsched-fuzz replay`.
 *
 * Usage:
 *   jitsched-fuzz solvers  [--seconds S] [--iterations N] [--seed K]
 *                          [--corpus-dir D] [--no-exact]
 *                          [--break-oracle lower-bound|astar-par]
 *   jitsched-fuzz protocol [--seconds S] [--iterations N] [--seed K]
 *                          [--corpus-dir D]
 *   jitsched-fuzz cluster  [--seconds S] [--iterations N] [--seed K]
 *                          [--corpus-dir D]
 *   jitsched-fuzz result-cache
 *                          [--seconds S] [--iterations N] [--seed K]
 *                          [--corpus-dir D]
 *                          [--break-oracle result-cache]
 *   jitsched-fuzz replay <case-file>...
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "qa/cluster_fuzz.hh"
#include "qa/corpus.hh"
#include "qa/fuzz_workload.hh"
#include "qa/minimize.hh"
#include "qa/oracles.hh"
#include "qa/proto_fuzz.hh"
#include "qa/result_cache_fuzz.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strutil.hh"

using namespace jitsched;
using namespace jitsched::qa;

namespace {

[[noreturn]] void
usage(int rc)
{
    std::cerr <<
        "usage: jitsched-fuzz "
        "<solvers|protocol|cluster|result-cache|replay> [options]\n"
        "  --seconds S        wall-clock budget (default 10)\n"
        "  --iterations N     case budget; 0 = until time runs out\n"
        "                     (default 0)\n"
        "  --seed K           base seed (default 1); case i draws\n"
        "                     from Rng::caseStream(K, i)\n"
        "  --corpus-dir D     reproducer directory (default\n"
        "                     fuzz-corpus)\n"
        "  --no-exact         solvers: skip brute force and A*\n"
        "  --break-oracle lower-bound\n"
        "                     solvers: deliberately invert the\n"
        "                     lower-bound oracle; the run must FAIL\n"
        "                     (harness self-check)\n"
        "  --break-oracle astar-par\n"
        "                     solvers: deliberately perturb the\n"
        "                     parallel A*'s reported cost; the run\n"
        "                     must FAIL (harness self-check)\n"
        "  --break-oracle result-cache\n"
        "                     result-cache: deliberately corrupt one\n"
        "                     byte of the published body; the run\n"
        "                     must FAIL (harness self-check)\n"
        "  replay <file>...   re-run corpus files; nonzero on any\n"
        "                     failure\n";
    std::exit(rc);
}

struct FuzzArgs
{
    std::string command;
    double seconds = 10.0;
    std::uint64_t iterations = 0; // 0 = unbounded
    std::uint64_t seed = 1;
    std::string corpusDir = "fuzz-corpus";
    bool noExact = false;
    bool breakLowerBound = false;
    bool breakAstarPar = false;
    bool breakResultCache = false;
    std::vector<std::string> files;
};

std::uint64_t
intArg(const std::string &flag, const std::string &value)
{
    const auto v = parseInt(value);
    if (!v || *v < 0)
        JITSCHED_FATAL(flag, " needs a non-negative integer, got '",
                       value, "'");
    return static_cast<std::uint64_t>(*v);
}

FuzzArgs
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage(2);
    FuzzArgs args;
    args.command = argv[1];
    if (args.command == "--help" || args.command == "-h")
        usage(0);
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                JITSCHED_FATAL(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--seconds") {
            args.seconds =
                static_cast<double>(intArg(arg, next()));
        } else if (arg == "--iterations") {
            args.iterations = intArg(arg, next());
        } else if (arg == "--seed") {
            args.seed = intArg(arg, next());
        } else if (arg == "--corpus-dir") {
            args.corpusDir = next();
        } else if (arg == "--no-exact") {
            args.noExact = true;
        } else if (arg == "--break-oracle") {
            const std::string which = next();
            if (which == "lower-bound")
                args.breakLowerBound = true;
            else if (which == "astar-par")
                args.breakAstarPar = true;
            else if (which == "result-cache")
                args.breakResultCache = true;
            else
                JITSCHED_FATAL("--break-oracle knows 'lower-bound', "
                               "'astar-par' and 'result-cache', "
                               "got '", which, "'");
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "jitsched-fuzz: unknown option '" << arg
                      << "'\n";
            usage(2);
        } else {
            args.files.push_back(arg);
        }
    }
    return args;
}

/** Simple wall-clock + iteration budget. */
class Budget
{
  public:
    Budget(double seconds, std::uint64_t iterations)
        : deadline_(std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds))),
          iterations_(iterations)
    {
    }

    bool
    more(std::uint64_t done) const
    {
        if (iterations_ != 0 && done >= iterations_)
            return false;
        return std::chrono::steady_clock::now() < deadline_;
    }

  private:
    std::chrono::steady_clock::time_point deadline_;
    std::uint64_t iterations_;
};

/** The instance for one solvers-mode case: random, then mutated. */
Workload
solverCase(Rng &rng, const FuzzDomain &domain)
{
    Workload w = randomWorkload(rng, domain);
    const std::uint64_t mutations = rng.nextBelow(4);
    for (std::uint64_t m = 0; m < mutations; ++m)
        w = mutateWorkload(w, rng, domain);
    return w;
}

int
runSolvers(const FuzzArgs &args)
{
    OracleConfig cfg;
    cfg.runExact = !args.noExact;
    cfg.invertLowerBound = args.breakLowerBound;
    cfg.perturbAstarPar = args.breakAstarPar;
    const FuzzDomain domain;
    const Budget budget(args.seconds, args.iterations);
    OracleStats ostats;
    std::uint64_t cases = 0;

    for (; budget.more(cases); ++cases) {
        Rng rng = Rng::caseStream(args.seed, cases);
        const Workload w = solverCase(rng, domain);
        const std::vector<Violation> violations =
            checkAll(w, cfg, &ostats);
        if (violations.empty())
            continue;

        std::cerr << "jitsched-fuzz: solvers case " << cases
                  << " (seed " << args.seed << ") FAILED:\n"
                  << describeViolations(violations);

        const FailPredicate still_fails =
            [&](const Workload &candidate) {
                return !checkAll(candidate, cfg).empty();
            };
        MinimizeStats mstats;
        const Workload minimal =
            minimizeWorkload(w, still_fails, 2000, &mstats);
        std::cerr << "minimized: " << mstats.callsBefore << " -> "
                  << mstats.callsAfter << " calls, "
                  << mstats.functionsBefore << " -> "
                  << mstats.functionsAfter << " functions ("
                  << mstats.probes << " probes)\n";

        std::ostringstream comment;
        comment << "jitsched-fuzz solvers reproducer\n"
                << "seed " << args.seed << " case " << cases << "\n"
                << describeViolations(
                       checkAll(minimal, cfg)); // post-minimize
        std::string error;
        const std::string path = writeWorkloadCase(
            args.corpusDir,
            "solvers-seed" + std::to_string(args.seed) + "-case" +
                std::to_string(cases),
            minimal, comment.str(), &error);
        if (path.empty())
            std::cerr << "jitsched-fuzz: cannot write reproducer: "
                      << error << "\n";
        else
            std::cerr << "reproducer: " << path
                      << " (replay with: jitsched-fuzz replay "
                      << path << ")\n";
        return 1;
    }

    std::cout << "jitsched-fuzz solvers: " << cases
              << " cases clean (seed " << args.seed << ", "
              << ostats.exactRuns << " exact solves, "
              << ostats.exactSkipped << " budget-skipped)\n";
    return 0;
}

/**
 * Greedy line-drop minimization of a failing byte case: keep
 * deleting lines while the parser harness still reports a violation.
 */
std::string
minimizeFrameBytes(std::string bytes)
{
    const auto fails = [](const std::string &candidate) {
        std::vector<Violation> v;
        checkProtocolBytes(candidate, v);
        return !v.empty();
    };
    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        std::vector<std::string> lines;
        std::istringstream is(bytes);
        for (std::string line; std::getline(is, line);)
            lines.push_back(line);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            std::string candidate;
            for (std::size_t j = 0; j < lines.size(); ++j)
                if (j != i)
                    candidate += lines[j] + "\n";
            if (fails(candidate)) {
                bytes = std::move(candidate);
                shrunk = true;
                break;
            }
        }
    }
    return bytes;
}

int
runProtocol(const FuzzArgs &args)
{
    const FuzzDomain domain;
    LoopbackFuzzer injector;
    if (!injector.ok())
        JITSCHED_FATAL("loopback server failed to start: ",
                       injector.error());
    const Budget budget(args.seconds, args.iterations);
    ProtoFuzzStats stats;
    std::uint64_t cases = 0;

    for (; budget.more(cases); ++cases) {
        Rng rng = Rng::caseStream(args.seed, cases);
        std::vector<Violation> violations;

        // Parser harness: a valid frame of any verb put through 0-3
        // byte-level mutations, then its verb's parser.
        std::string bytes = randomFrame(rng, domain);
        const std::uint64_t mutations = rng.nextBelow(4);
        for (std::uint64_t m = 0; m < mutations; ++m)
            bytes = mutateFrameBytes(bytes, rng);
        checkProtocolBytes(bytes, violations);
        ++stats.parserCases;
        const bool parser_failed = !violations.empty();

        // Loopback injector: one adversarial connection scenario.
        if (!parser_failed)
            injector.runCase(rng, domain, violations, &stats);

        if (violations.empty())
            continue;

        std::cerr << "jitsched-fuzz: protocol case " << cases
                  << " (seed " << args.seed << ") FAILED:\n"
                  << describeViolations(violations);

        std::ostringstream comment;
        comment << "jitsched-fuzz protocol reproducer\n"
                << "seed " << args.seed << " case " << cases << "\n"
                << (parser_failed
                        ? "parser harness bytes below"
                        : "loopback scenario; bytes below are the "
                          "case's parser-harness input — replay the "
                          "scenario itself from the (seed, case) "
                          "pair")
                << "\n"
                << describeViolations(violations);
        if (parser_failed)
            bytes = minimizeFrameBytes(bytes);
        std::string error;
        const std::string path = writeFrameCase(
            args.corpusDir,
            "protocol-seed" + std::to_string(args.seed) + "-case" +
                std::to_string(cases),
            bytes, comment.str(), &error);
        if (path.empty())
            std::cerr << "jitsched-fuzz: cannot write reproducer: "
                      << error << "\n";
        else
            std::cerr << "reproducer: " << path << "\n";
        return 1;
    }

    std::cout << "jitsched-fuzz protocol: " << cases
              << " cases clean (seed " << args.seed << ", "
              << stats.parserCases << " parser, "
              << stats.loopbackCases << " loopback, " << stats.served
              << " served, " << stats.disconnects
              << " forced disconnects)\n";
    return 0;
}

int
runCluster(const FuzzArgs &args)
{
    const FuzzDomain domain;
    ClusterFuzzer injector;
    if (!injector.ok())
        JITSCHED_FATAL("cluster failed to start: ",
                       injector.error());
    const Budget budget(args.seconds, args.iterations);
    ClusterFuzzStats stats;
    std::uint64_t cases = 0;

    for (; budget.more(cases); ++cases) {
        Rng rng = Rng::caseStream(args.seed, cases);
        std::vector<Violation> violations;
        injector.runCase(rng, domain, violations, &stats);
        if (violations.empty())
            continue;

        std::cerr << "jitsched-fuzz: cluster case " << cases
                  << " (seed " << args.seed << ") FAILED:\n"
                  << describeViolations(violations);
        // Cluster scenarios are stateful (kills, health machines);
        // the reproducer is the (seed, case) pair, not a byte file.
        std::cerr << "replay with: jitsched-fuzz cluster --seed "
                  << args.seed << " --iterations " << (cases + 1)
                  << "\n";
        return 1;
    }

    std::cout << "jitsched-fuzz cluster: " << cases
              << " cases clean (seed " << args.seed << ", "
              << stats.served << " served, " << stats.kills
              << " kills, " << stats.readmissions
              << " re-admissions, " << stats.mangled
              << " mangled frames)\n";
    return 0;
}

int
runResultCache(const FuzzArgs &args)
{
    const FuzzDomain domain;
    ResultCacheFuzzer fuzzer(args.corpusDir +
                             "/result-cache.snapshot.tmp");
    const Budget budget(args.seconds, args.iterations);
    ResultCacheFuzzStats stats;
    std::uint64_t cases = 0;

    for (; budget.more(cases); ++cases) {
        Rng rng = Rng::caseStream(args.seed, cases);
        std::vector<Violation> violations;
        fuzzer.runCase(rng, domain, violations, &stats,
                       args.breakResultCache);
        if (violations.empty())
            continue;

        std::cerr << "jitsched-fuzz: result-cache case " << cases
                  << " (seed " << args.seed << ") FAILED:\n"
                  << describeViolations(violations);
        // The case is fully determined by (seed, case); replay it by
        // bounding the iteration count.
        std::cerr << "replay with: jitsched-fuzz result-cache --seed "
                  << args.seed << " --iterations " << (cases + 1)
                  << "\n";
        return 1;
    }

    std::cout << "jitsched-fuzz result-cache: " << cases
              << " cases clean (seed " << args.seed << ", "
              << stats.published << " published, " << stats.storeHits
              << " store identities, " << stats.roundTrips
              << " snapshot round trips, " << stats.errorSkips
              << " error skips)\n";
    return 0;
}

int
runReplay(const FuzzArgs &args)
{
    if (args.files.empty())
        JITSCHED_FATAL("replay needs at least one corpus file");
    OracleConfig cfg;
    cfg.runExact = !args.noExact;
    int failures = 0;
    for (const std::string &file : args.files) {
        const ReplayResult result = replayFile(file, cfg);
        if (result.ok) {
            std::cout << "PASS " << file << "\n";
        } else {
            ++failures;
            std::cout << "FAIL " << file << "\n"
                      << result.detail << "\n";
        }
    }
    std::cout << "jitsched-fuzz replay: "
              << (args.files.size() - failures) << "/"
              << args.files.size() << " passed\n";
    return failures == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const FuzzArgs args = parseArgs(argc, argv);
    if (args.command == "solvers")
        return runSolvers(args);
    if (args.command == "protocol")
        return runProtocol(args);
    if (args.command == "cluster")
        return runCluster(args);
    if (args.command == "result-cache")
        return runResultCache(args);
    if (args.command == "replay")
        return runReplay(args);
    std::cerr << "jitsched-fuzz: unknown command '" << args.command
              << "'\n";
    usage(2);
}
