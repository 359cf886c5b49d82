/**
 * @file
 * Differential oracle for the request codec: the production
 * string_view parser (and its istream adapter) against the frozen
 * iostream parser in legacy_codec.cc, over seeded mutated frames —
 * DaCapo-shaped and small.  Every frame must get the same
 * accept/reject decision and the same error string, and every
 * accepted frame must re-serialize to the same requestText.  The
 * writers are compared byte for byte against the frozen ostream
 * writers as well.
 */

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "legacy_codec.hh"
#include "qa/fuzz_workload.hh"
#include "qa/proto_fuzz.hh"
#include "service/protocol.hh"
#include "support/rng.hh"
#include "support/strutil.hh"
#include "trace/dacapo.hh"
#include "trace/trace_io.hh"

namespace jitsched {
namespace {

/** Frames per shard; four shards run as separate ctest cases. */
constexpr std::size_t kFramesPerShard = 25000;

/** One in this many frames is DaCapo-shaped (the rest are small). */
constexpr std::size_t kDacapoEvery = 250;

/**
 * Request frames over the nine DaCapo-shaped workloads, 30-180 KB
 * each: full function tables, call sequences cut to ~1500 calls.
 */
const std::vector<std::string> &
dacapoFrames()
{
    static const std::vector<std::string> frames = [] {
        std::vector<std::string> out;
        std::uint64_t id = 1;
        for (const DacapoSpec &spec : dacapoSpecs()) {
            ServiceRequest req;
            req.id = id++;
            req.policy = "iar";
            req.options.deadlineMs = 250;
            req.workload = makeDacapoWorkload(
                spec.name, std::max<std::size_t>(
                               1, spec.numCalls / 1500));
            out.push_back(requestText(req));
        }
        return out;
    }();
    return frames;
}

/** A valid small request with randomized options. */
std::string
smallFrame(Rng &rng)
{
    std::string frame = qa::randomRequestFrame(rng, qa::FuzzDomain{});
    // Splice random option lines in after the policy line, so the
    // option grammar is mutated too.
    static const char *const kOptions[] = {
        "option jitter-sigma 0.125\n", "option jitter-seed 9\n",
        "option threads 2\n",          "option deadline-ms 40\n",
        "option trace-id 00aBc\n",     "option model oracle\n",
        "option astar-memory-mb 8\n",  "option compile-cores +3\n",
    };
    const std::size_t at = frame.find("\noption ");
    if (at != std::string::npos && rng.nextBool(0.5))
        frame.insert(at + 1,
                     kOptions[rng.nextBelow(std::size(kOptions))]);
    if (rng.nextBool(0.2))
        frame.insert(0, "# a comment line\n\n");
    return frame;
}

/** Bytes that move parsers between branches when inserted. */
std::string
insertion(Rng &rng)
{
    static const char *const kSnippets[] = {
        "\n",       "\r\n",     "#",        " ",       "\t",
        "\n\n",     "end\n",    "\nend\n",  "payload\n", "option ",
        "policy ",  "calls ",   "func ",    "levels ", "workload ",
        "-",        "+",        "0",        "9",       "x",
        "99999999999999999999", "-1",       "\v",      "#end\n",
        "\n  end  # c\n",       "jitsched-request 7\n",
    };
    if (rng.nextBool(0.15))
        return std::string(1, static_cast<char>(rng.nextBelow(256)));
    return kSnippets[rng.nextBelow(std::size(kSnippets))];
}

/** One to three random byte-level edits. */
std::string
mutate(std::string frame, Rng &rng)
{
    const std::size_t edits = 1 + rng.nextBelow(3);
    for (std::size_t e = 0; e < edits && !frame.empty(); ++e) {
        const std::size_t pos = rng.nextBelow(frame.size());
        switch (rng.nextBelow(6)) {
        case 0: // byte flip
            frame[pos] = static_cast<char>(rng.nextBelow(256));
            break;
        case 1: // insert
            frame.insert(pos, insertion(rng));
            break;
        case 2: // delete a short run
            frame.erase(pos, 1 + rng.nextBelow(8));
            break;
        case 3: { // cut the frame at a line boundary
            const std::size_t nl = frame.find('\n', pos);
            frame.resize(nl == std::string::npos ? pos : nl + 1);
            break;
        }
        case 4: { // drop one line
            const std::size_t b = frame.rfind('\n', pos);
            const std::size_t start = b == std::string::npos ? 0 : b + 1;
            const std::size_t nl = frame.find('\n', pos);
            frame.erase(start, nl == std::string::npos
                                   ? std::string::npos
                                   : nl + 1 - start);
            break;
        }
        default: // the protocol fuzzer's structural mutations
            frame = qa::mutateFrameBytes(frame, rng);
            break;
        }
    }
    return frame;
}

/**
 * Checks one frame: empty on agreement (and sets @p accepted), else
 * a description of the first mismatch.
 */
std::string
compareRequest(const std::string &frame, bool *accepted)
{
    std::string old_err = "untouched";
    std::istringstream old_in(frame);
    const auto old_req = legacy::tryReadRequest(old_in, &old_err);

    std::string new_err = "untouched";
    const auto new_req = tryReadRequest(std::string_view(frame), &new_err);

    std::string adapter_err = "untouched";
    std::istringstream adapter_in(frame);
    const auto adapter_req = tryReadRequest(adapter_in, &adapter_err);

    if (old_req.has_value() != new_req.has_value())
        return "accept/reject differs: legacy '" + old_err +
               "', new '" + new_err + "'";
    if (new_req.has_value() != adapter_req.has_value() ||
        new_err != adapter_err)
        return "istream adapter differs: '" + adapter_err + "'";
    if (old_err != new_err)
        return "error differs: legacy '" + old_err + "', new '" +
               new_err + "'";
    *accepted = new_req.has_value();
    if (!new_req)
        return {};
    const std::string text = requestText(*new_req);
    if (text != requestText(*old_req))
        return "parsed requests serialize differently";
    if (text != requestText(*adapter_req))
        return "adapter-parsed request serializes differently";
    if (text != legacy::requestText(*new_req))
        return "requestText differs from the legacy writer";
    return {};
}

class CodecOracle : public ::testing::TestWithParam<int>
{
};

TEST_P(CodecOracle, MutatedFramesMatchTheLegacyParser)
{
    Rng rng(0xc0dec000 + static_cast<std::uint64_t>(GetParam()));
    const std::vector<std::string> &dacapo = dacapoFrames();
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < kFramesPerShard; ++i) {
        const bool big = i % kDacapoEvery == 0;
        const std::string base =
            big ? dacapo[rng.nextBelow(dacapo.size())]
                : smallFrame(rng);
        // One frame in eight goes through unmutated: the accept path
        // needs as much coverage as the error paths.
        const std::string frame =
            rng.nextBelow(8) == 0 ? base : mutate(base, rng);
        bool ok = false;
        const std::string why = compareRequest(frame, &ok);
        ASSERT_TRUE(why.empty())
            << why << "\nshard " << GetParam() << " frame " << i
            << ":\n" << frame;
        accepted += ok;
    }
    // Both outcomes must be well represented for the run to mean
    // anything.
    EXPECT_GT(accepted, kFramesPerShard / 10);
    EXPECT_LT(accepted, kFramesPerShard * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Shards, CodecOracle, ::testing::Range(0, 4));

TEST(CodecOracle, WorkloadParserMatchesWithAndWithoutStopLine)
{
    Rng rng(0x5709);
    for (std::size_t i = 0; i < 5000; ++i) {
        std::string text;
        appendWorkload(text, qa::randomWorkload(rng, qa::FuzzDomain{}));
        if (rng.nextBool(0.5))
            text += "end\ntrailing junk\n";
        text = mutate(text, rng);
        for (const char *stop : {"", "end"}) {
            std::string old_err = "untouched", new_err = "untouched";
            std::istringstream in(text);
            const auto old_w = legacy::tryReadWorkload(in, &old_err, stop);
            const auto new_w = tryReadWorkload(text, &new_err, stop);
            ASSERT_EQ(old_w.has_value(), new_w.has_value()) << text;
            ASSERT_EQ(old_err, new_err) << text;
            if (new_w) {
                ASSERT_EQ(legacy::workloadText(*old_w),
                          legacy::workloadText(*new_w))
                    << text;
            }
        }
    }
}

TEST(CodecOracle, StopLineAdapterLeavesTheRestUnread)
{
    std::string text;
    appendWorkload(text, makeDacapoWorkload("fop", 64));
    std::stringstream ss;
    ss << text << "  end  # terminator\nnext frame\n";
    std::string err;
    ASSERT_TRUE(tryReadWorkload(ss, &err, "end").has_value()) << err;
    std::string next;
    ASSERT_TRUE(static_cast<bool>(std::getline(ss, next)));
    EXPECT_EQ(next, "next frame");
}

TEST(CodecOracle, RequestAdapterStopsAtTheFirstEndLine)
{
    ServiceRequest req;
    req.id = 3;
    req.policy = "iar";
    Rng rng(4);
    req.workload = qa::randomWorkload(rng, qa::FuzzDomain{});
    std::stringstream ss;
    ss << requestText(req) << "jitsched-ping 9\nend\n";
    ASSERT_TRUE(tryReadRequest(ss).has_value());
    std::string next;
    ASSERT_TRUE(static_cast<bool>(std::getline(ss, next)));
    EXPECT_EQ(next, "jitsched-ping 9");
}

/** Doubles whose %.17g rendering exercises every notation. */
double
randomSigma(Rng &rng)
{
    static const double kEdges[] = {
        0.1,    0.25,   1.0 / 3.0, 1e-300, 1e300, 5e-324,
        123456789.125,  1e16,      1e17,   0.5,   2.0,
        std::numeric_limits<double>::max(),
    };
    if (rng.nextBool(0.3))
        return kEdges[rng.nextBelow(std::size(kEdges))];
    return std::ldexp(rng.nextDouble(), static_cast<int>(
                                            rng.nextRange(-60, 60)));
}

TEST(CodecOracle, WritersMatchTheLegacyWritersByteForByte)
{
    Rng rng(0xb17e);
    for (std::size_t i = 0; i < 20000; ++i) {
        ServiceRequest req;
        req.id = rng.next();
        req.policy = rng.nextBool(0.5) ? "iar" : "astar-par";
        ServiceOptions &o = req.options;
        o.compileCores = 1 + rng.nextBelow(8);
        o.model = rng.nextBool(0.5) ? ModelKind::Oracle
                                    : ModelKind::Default;
        if (rng.nextBool(0.5)) {
            o.jitterSigma = randomSigma(rng);
            o.jitterSeed = rng.next();
        }
        o.astarMaxExpansions = rng.next() >> rng.nextBelow(64);
        o.astarMemoryMb = 1 + rng.nextBelow(4096);
        o.astarThreads = rng.nextBelow(3);
        o.deadlineMs = rng.nextRange(-1, 100000);
        req.traceId = rng.nextBool(0.5) ? rng.next() : 0;
        req.workload = qa::randomWorkload(rng, qa::FuzzDomain{});
        ASSERT_EQ(requestText(req), legacy::requestText(req));

        ServiceResponse resp;
        resp.id = rng.next();
        resp.ok = rng.nextBool(0.8);
        if (!resp.ok) {
            resp.code = rng.nextBool(0.5) ? errcode::solverLimit : "";
            resp.error = "solver refused: budget " +
                         std::to_string(rng.next());
        }
        resp.policy = rng.nextBool(0.9) ? req.policy : "";
        resp.lowerBound = rng.nextRange(-5, 1 << 30);
        resp.hasSim = rng.nextBool(0.8);
        resp.sim.makespan = rng.nextRange(0, 1ll << 40);
        resp.sim.compileEnd = rng.nextRange(0, 1ll << 40);
        resp.sim.execEnd = rng.nextRange(0, 1ll << 40);
        resp.sim.totalBubble = rng.nextRange(-1, 1ll << 40);
        resp.sim.bubbleCount = rng.next();
        resp.sim.totalExec = rng.nextRange(0, 1ll << 40);
        resp.sim.totalCompile = rng.nextRange(0, 1ll << 40);
        for (std::size_t l = rng.nextBelow(4); l > 0; --l)
            resp.sim.callsAtLevel.push_back(rng.next());
        resp.hasSchedule = rng.nextBool(0.7);
        for (std::size_t k = rng.nextBelow(20); k > 0; --k)
            resp.schedule.push_back(
                {static_cast<FuncId>(rng.nextBelow(1000)),
                 static_cast<Level>(rng.nextBelow(4))});
        resp.stats.cacheHits = rng.next();
        resp.stats.cacheMisses = rng.nextBelow(100);
        resp.stats.queueNs = rng.nextRange(-10, 1ll << 50);
        resp.stats.solveNs = rng.nextRange(0, 1ll << 50);
        resp.stats.resultCache = rng.nextBelow(3);
        resp.stats.traceId = rng.nextBool(0.5) ? rng.next() : 0;
        for (const bool stats : {true, false})
            ASSERT_EQ(responseText(resp, stats),
                      legacy::responseText(resp, stats));
    }
    for (const DacapoSpec &spec : dacapoSpecs()) {
        const Workload w = makeDacapoWorkload(spec.name, 256);
        std::string text;
        appendWorkload(text, w);
        ASSERT_EQ(text, legacy::workloadText(w)) << spec.name;
    }
}

TEST(CodecOracle, ParseIntMatchesStrtollOnRandomTokens)
{
    Rng rng(0x1e3);
    static const char kAlphabet[] = "0123456789+- \t\rxe.";
    for (std::size_t i = 0; i < 200000; ++i) {
        std::string tok;
        if (rng.nextBool(0.5)) {
            // Sign and digits around the int64 range's edges.
            tok = rng.nextBool(0.5) ? "-" : rng.nextBool(0.5) ? "+" : "";
            for (std::size_t n = 1 + rng.nextBelow(21); n > 0; --n)
                tok += static_cast<char>('0' + rng.nextBelow(10));
        } else {
            for (std::size_t n = rng.nextBelow(22); n > 0; --n)
                tok += kAlphabet[rng.nextBelow(sizeof(kAlphabet) - 1)];
        }
        ASSERT_EQ(parseInt(tok), legacy::parseInt(tok)) << "'" << tok
                                                        << "'";
    }
}

} // anonymous namespace
} // namespace jitsched
