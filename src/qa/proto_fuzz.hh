/**
 * @file
 * Byte-level fuzzing of the service wire protocol plus a
 * deterministic fault injector for the loopback server.
 *
 * Two layers, mirroring how a hostile client can hurt the daemon:
 *
 *  - Parser harness: arbitrary bytes through the frame parser of
 *    whichever verb their header names (tryReadAnyFrame; requests
 *    embed trace_io's tryReadWorkload).  The contract is
 *    "reject or parse, never crash, never allocate by declared
 *    size"; successful parses must additionally round-trip (parse →
 *    serialize → parse → serialize is a fixpoint) and serve without
 *    taking the engine down.
 *
 *  - Loopback injector: a real in-process ServiceServer attacked
 *    over TCP with mutated frames, writes split at arbitrary byte
 *    boundaries, mid-frame disconnects, and oversize declared
 *    counts.  The server must answer every terminated frame with a
 *    parseable response (or deliberately drop the connection), stay
 *    up, keep the connection usable after an error, and keep its
 *    answers byte-identical to a direct library call.
 */

#ifndef JITSCHED_QA_PROTO_FUZZ_HH
#define JITSCHED_QA_PROTO_FUZZ_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qa/fuzz_workload.hh"
#include "qa/oracles.hh"
#include "service/protocol.hh"
#include "support/rng.hh"

namespace jitsched {
namespace qa {

/**
 * Run @p bytes through the frame parser of every verb and append any
 * contract violation.  With @p serve_parsed, frames that parse as
 * requests (and carry a sane call count) are also served by a
 * process-local ServiceEngine — a parse-accepting input must never
 * crash the solve path either.
 */
void checkProtocolBytes(const std::string &bytes,
                        std::vector<Violation> &out,
                        bool serve_parsed = true);

/** A valid request frame over a random fuzz workload. */
std::string randomRequestFrame(Rng &rng, const FuzzDomain &domain);

/**
 * A valid frame of verb @p verb, an index into AnyFrame's
 * alternatives (taken modulo their count), with random field values.
 */
AnyFrame randomFrameOf(std::size_t verb, Rng &rng,
                       const FuzzDomain &domain);

/**
 * A valid frame of a random verb: a request half the time, else any
 * other verb's frame — responses included — from randomFrameOf().
 */
std::string randomFrame(Rng &rng, const FuzzDomain &domain);

/**
 * Whether @p raw parses as a well-formed response frame of any verb.
 * A mutated request can legitimately turn into any verb the server
 * speaks (a byte flip in the header makes a ping, a dump, ...), and
 * the server then answers in that verb's response grammar — all of
 * them are "the server stayed coherent".
 */
bool parseableAsAnyResponse(const std::string &raw);

/**
 * One random byte-level mutation: truncation, byte flip, line
 * duplication/deletion/swap, garbage insertion, frame splicing, or
 * an oversize declared count (`calls`/`schedule`/`snapshot`).
 */
std::string mutateFrameBytes(const std::string &frame, Rng &rng);

/** Aggregate counters from a protocol fuzz run. */
struct ProtoFuzzStats
{
    std::uint64_t parserCases = 0;
    std::uint64_t loopbackCases = 0;
    std::uint64_t served = 0;       ///< loopback frames answered
    std::uint64_t disconnects = 0;  ///< injector-forced disconnects
};

/**
 * The loopback fault injector.  Construction starts an in-process
 * daemon on an ephemeral loopback port; each runCase() drives one
 * adversarial connection scenario against it.
 */
class LoopbackFuzzer
{
  public:
    LoopbackFuzzer();
    ~LoopbackFuzzer();

    LoopbackFuzzer(const LoopbackFuzzer &) = delete;
    LoopbackFuzzer &operator=(const LoopbackFuzzer &) = delete;

    /** False when the server failed to start (error() says why). */
    bool ok() const;
    const std::string &error() const;

    /**
     * Run one injection scenario, appending violations.  Scenario
     * choice and all payloads come from @p rng, so a failing case
     * replays from its (seed, case) pair alone.
     */
    void runCase(Rng &rng, const FuzzDomain &domain,
                 std::vector<Violation> &out, ProtoFuzzStats *stats);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace qa
} // namespace jitsched

#endif // JITSCHED_QA_PROTO_FUZZ_HH
