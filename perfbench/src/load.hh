/**
 * @file
 * The closed-loop load generator and the output checks.
 *
 * Each client thread holds one connection and sends its next frame
 * only after the previous answer's `end` line arrived.  Latency runs
 * from just before the first byte is written to just after `end` is
 * read.  Responses are kept raw and checked after the window closes,
 * so checking costs the loop nothing.
 */

#ifndef PERFBENCH_LOAD_HH
#define PERFBENCH_LOAD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mixes.hh"
#include "obs/span.hh"
#include "service/protocol.hh"
#include "util.hh"

namespace perfbench {

/** One request of a window. */
struct Sample
{
    std::uint64_t id = 0;
    Pick pick;
    Clock::time_point t0;
    Clock::time_point t1;
    bool transportOk = false;
    std::string raw;
};

/** Everything a measured window produced. */
struct Window
{
    std::vector<Sample> samples;
    double elapsedS = 0.0;
};

/**
 * Drive @p mix against 127.0.0.1:@p port for at least @p seconds.
 * Request k of the window is mix.pick(k0 + k) with id id0 + k.  The
 * window also lasts for @p min_requests requests and ends on a
 * multiple of @p cycle requests, but never runs past 5 x @p seconds.
 * With @p spans set, every request is recorded there as it
 * completes.
 */
Window runWindow(const Mix &mix, std::uint16_t port, double seconds,
                 std::uint64_t k0, std::uint64_t id0,
                 std::size_t min_requests, std::size_t cycle,
                 jitsched::obs::SpanCollector *spans = nullptr);

/** A checked response. */
struct Answer
{
    bool transportOk = false;
    bool ok = false;      ///< status ok
    bool refused = false; ///< the astar policy's SOLVER_LIMIT refusal
    double latencyMs = 0.0;
    jitsched::ServiceResponse resp;
};

/** Outcome of checking a whole window. */
struct CheckReport
{
    std::vector<Answer> answers;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0; ///< any response frame came back
    std::uint64_t ok = 0;
    std::uint64_t refused = 0;
    /** Transport errors and error responses other than refusals. */
    std::uint64_t failed = 0;
    /** Answers whose make-span is below their `lower-bound` line. */
    std::uint64_t belowStatedBound = 0;
    /** Refused instances whose astar-par incumbents differed in cost. */
    std::uint64_t incumbentCostsVaried = 0;
    std::vector<std::string> violations;
};

/**
 * Check one raw response to request @p id (sent as @p pick).
 * @return an empty string when it passes, else what is wrong; the
 *         parsed response lands in *out either way when it parses
 */
std::string checkResponse(const Mix &mix, std::uint64_t id,
                          const Pick &pick, const std::string &raw,
                          jitsched::ServiceResponse *out);

/**
 * Hash of each answered frame's stable body, keyed by (template,
 * variant): kept across every window of a run so repeats are compared
 * wherever they occur.
 */
using BodyLedger =
    std::map<std::pair<std::size_t, std::uint64_t>, std::size_t>;

/**
 * Check every sample (ids, references, lower bounds, the time
 * decomposition, repeated-frame identity against @p ledger,
 * astar == astar-par cost).
 */
CheckReport checkWindow(const Mix &mix, const Window &w,
                        BodyLedger &ledger);

/** Response text without its id line and `stats` line. */
std::string stableBody(const std::string &raw);

} // namespace perfbench

#endif // PERFBENCH_LOAD_HH
