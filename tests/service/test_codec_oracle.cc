/**
 * @file
 * Differential oracle for the frame codec: the production
 * string_view parsers (and the istream adapters) against the frozen
 * iostream parsers in legacy_codec.cc, over seeded mutated frames of
 * every verb — requests DaCapo-shaped and small.  Every frame must
 * get the same accept/reject decision and the same error string, and
 * every accepted frame must re-serialize to the same bytes.  The
 * writers are compared byte for byte against the frozen ostream
 * writers as well.
 *
 * The one permitted divergence is a reply whose unsigned field holds
 * a negative or oversized value: the legacy parsers wrap it (2^64-k,
 * or modulo 2^32 for hops), the production parser rejects it.  Those
 * frames are not skipped — each is checked to be exactly that case.
 */

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <variant>
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

// --- Every other verb ---------------------------------------------

/** The frozen parser and writer of verb T. */
template <typename T>
struct Legacy;

#define JITSCHED_LEGACY_VERB(T, read, text)                           \
    template <>                                                       \
    struct Legacy<T>                                                  \
    {                                                                 \
        static std::optional<T>                                       \
        parse(const std::string &frame, std::string *error)           \
        {                                                             \
            std::istringstream in(frame);                             \
            return legacy::read(in, error);                           \
        }                                                             \
        static std::string                                            \
        write(const T &f)                                             \
        {                                                             \
            return legacy::text(f);                                   \
        }                                                             \
    };
JITSCHED_LEGACY_VERB(ServiceResponse, tryReadResponse, responseText)
JITSCHED_LEGACY_VERB(StatsRequest, tryReadStatsRequest, statsRequestText)
JITSCHED_LEGACY_VERB(StatsResponse, tryReadStatsResponse,
                     statsResponseText)
JITSCHED_LEGACY_VERB(DumpRequest, tryReadDumpRequest, dumpRequestText)
JITSCHED_LEGACY_VERB(DumpResponse, tryReadDumpResponse, dumpResponseText)
JITSCHED_LEGACY_VERB(SnapshotRequest, tryReadSnapshotRequest,
                     snapshotRequestText)
JITSCHED_LEGACY_VERB(SnapshotResponse, tryReadSnapshotResponse,
                     snapshotResponseText)
JITSCHED_LEGACY_VERB(PingRequest, tryReadPingRequest, pingRequestText)
JITSCHED_LEGACY_VERB(PongResponse, tryReadPongResponse, pongResponseText)
#undef JITSCHED_LEGACY_VERB

/** True when @p tok is an integer outside [0, @p max]. */
bool
outOfRange(std::string_view tok, std::uint64_t max)
{
    const auto v = parseInt(tok);
    return v && (*v < 0 || static_cast<std::uint64_t>(*v) > max);
}

constexpr std::uint64_t kU64 = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU8 = std::numeric_limits<std::uint8_t>::max();

/** The unsigned fields a key/value reply line carries, by key. */
std::uint64_t
unsignedMax(std::string_view line_key, std::string_view key)
{
    if (line_key == "stats" &&
        (key == "cache-hits" || key == "cache-misses" ||
         key == "result-cache"))
        return kU64;
    if (line_key == "record" && (key == "request" || key == "bytes"))
        return kU64;
    if (line_key == "record" && key == "hops")
        return kU32;
    return 0; // not an unsigned field
}

/**
 * @p frame with every unsigned-field value outside its type's range
 * replaced by 0: `bubble-count`/`entries`/`bytes` lines, the unsigned
 * pairs of `stats` and `record` lines, and schedule-event lines.
 */
std::string
clampUnsignedFields(const std::string &frame)
{
    std::string out;
    LineCursor raw_lines(frame);
    bool first = true;
    while (const auto raw = raw_lines.nextRaw()) {
        if (!first)
            out += '\n';
        first = false;
        std::string line(*raw);
        const std::size_t body = std::min(line.find('#'), line.size());
        // Token spans within the comment-free part.
        std::vector<std::pair<std::size_t, std::size_t>> toks;
        for (std::size_t i = 0; i < body;) {
            while (i < body && isSpace(line[i]))
                ++i;
            const std::size_t b = i;
            while (i < body && !isSpace(line[i]))
                ++i;
            if (i > b)
                toks.emplace_back(b, i - b);
        }
        const auto tok = [&](std::size_t k) {
            return std::string_view(line).substr(toks[k].first,
                                                 toks[k].second);
        };
        std::vector<std::size_t> clamp;
        if (toks.size() >= 2) {
            const std::string_view key = tok(0);
            if ((key == "bubble-count" || key == "entries" ||
                 key == "bytes") &&
                outOfRange(tok(1), kU64))
                clamp.push_back(1);
            for (std::size_t k = 1; k + 1 < toks.size(); k += 2)
                if (const std::uint64_t max = unsignedMax(key, tok(k));
                    max != 0 && outOfRange(tok(k + 1), max))
                    clamp.push_back(k + 1);
            // A schedule event: two non-negative integers.
            const auto f = parseInt(tok(0));
            const auto l = parseInt(tok(1));
            if (f && l && *f >= 0 && *l >= 0) {
                if (outOfRange(tok(0), kU32))
                    clamp.push_back(0);
                if (outOfRange(tok(1), kU8))
                    clamp.push_back(1);
            }
        }
        std::sort(clamp.rbegin(), clamp.rend());
        for (const std::size_t k : clamp)
            line.replace(toks[k].first, toks[k].second, "0");
        out += line;
    }
    if (!frame.empty() && frame.back() == '\n')
        out += '\n';
    return out;
}

/**
 * True when @p error is the production parser rejecting a negative
 * or oversized unsigned reply field — the one error the legacy
 * parsers never produce for an integer.
 */
bool
isUnsignedFieldError(const std::string &error)
{
    const std::string prefix = "protocol parse error: bad ";
    if (error.rfind(prefix, 0) != 0)
        return false;
    const std::string_view rest = std::string_view(error).substr(
        prefix.size());
    const std::size_t q = rest.find('\'');
    const std::size_t q2 = rest.find('\'', q + 1);
    if (q == std::string_view::npos || q2 == std::string_view::npos)
        return false;
    const std::string_view what = rest.substr(0, q);
    const std::string_view value = rest.substr(q + 1, q2 - q - 1);
    if (what == "bubble-count " || what == "stats value " ||
        what == "entries " || what == "bytes ")
        return outOfRange(value, kU64);
    if (what == "record value ") {
        const std::string_view key = rest.substr(q2 + 1);
        return outOfRange(value, key == " for 'hops'" ? kU32 : kU64);
    }
    if (what == "schedule event ") {
        Tokenizer ev(value);
        const std::string_view f = ev.next();
        const std::string_view l = ev.next();
        return outOfRange(f, kU32) || outOfRange(l, kU8);
    }
    return false;
}

/** How one frame fared. */
enum class Outcome
{
    Rejected,
    Accepted,
    Wrapped, ///< the permitted unsigned-field divergence
};

/**
 * Checks one frame of verb T: empty on agreement (and sets
 * @p outcome), else a description of the first mismatch.
 */
template <typename T>
std::string
compareFrame(const std::string &frame, Outcome *outcome)
{
    std::string old_err = "untouched";
    const auto old_f = Legacy<T>::parse(frame, &old_err);
    std::string new_err = "untouched";
    const auto new_f = tryReadFrame<T>(frame, &new_err);
    if constexpr (std::is_same_v<T, ServiceResponse>) {
        std::string adapter_err = "untouched";
        std::istringstream in(frame);
        const auto adapter_f = tryReadResponse(in, &adapter_err);
        if (adapter_f.has_value() != new_f.has_value() ||
            adapter_err != new_err ||
            (adapter_f && responseText(*adapter_f) !=
                              responseText(*new_f)))
            return "istream adapter differs: '" + adapter_err + "'";
    }

    if (old_f.has_value() != new_f.has_value() || old_err != new_err) {
        if (new_f.has_value() || !isUnsignedFieldError(new_err))
            return "accept/reject or error differs: legacy '" +
                   old_err + "', new '" + new_err + "'";
        // The permitted divergence, asserted: with the offending
        // values clamped into range the two parsers agree again.
        const std::string clamped = clampUnsignedFields(frame);
        if (clamped == frame)
            return "unsigned-field error '" + new_err +
                   "' but no value to clamp";
        Outcome again = Outcome::Rejected;
        const std::string why = compareFrame<T>(clamped, &again);
        if (!why.empty() || again == Outcome::Wrapped)
            return "clamped frame still diverges: " + why + "\n" +
                   clamped;
        *outcome = Outcome::Wrapped;
        return {};
    }
    *outcome = new_f ? Outcome::Accepted : Outcome::Rejected;
    if (!new_f)
        return {};
    const std::string text = frameText(*new_f);
    if (text != Legacy<T>::write(*old_f))
        return "parsed frames serialize differently";
    if (text != Legacy<T>::write(*new_f))
        return "frameText differs from the legacy writer";
    return {};
}

/**
 * A frame edit aimed at integer fields: negate one number, or make it
 * too large for 32 (or 8) bits.  The generic mutations reach these
 * rarely; the unsigned-field class needs them often.
 */
std::string
mutateNumber(std::string frame, Rng &rng)
{
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < frame.size(); ++i)
        if (std::isdigit(static_cast<unsigned char>(frame[i])) &&
            (i == 0 || frame[i - 1] == ' '))
            starts.push_back(i);
    if (starts.empty())
        return frame;
    const std::size_t at = starts[rng.nextBelow(starts.size())];
    std::size_t end = at;
    while (end < frame.size() &&
           std::isdigit(static_cast<unsigned char>(frame[end])))
        ++end;
    static const char *const kValues[] = {"-", "4294967297", "300",
                                          "18446744073709551615"};
    const std::string v = kValues[rng.nextBelow(std::size(kValues))];
    if (v == "-")
        frame.insert(at, v);
    else
        frame.replace(at, end - at, v);
    return frame;
}

/** T's index among AnyFrame's alternatives. */
template <typename T, std::size_t I = 0>
constexpr std::size_t
verbIndex()
{
    if constexpr (std::is_same_v<std::variant_alternative_t<I, AnyFrame>,
                                 T>)
        return I;
    else
        return verbIndex<T, I + 1>();
}

/**
 * kFramesPerShard mutated frames of verb T through both codecs, each
 * after the valid frame it was mutated from.
 */
template <typename T>
void
runVerbOracle(std::uint64_t seed, bool has_unsigned_fields)
{
    Rng rng(seed);
    std::size_t accepted = 0, wrapped = 0;
    for (std::size_t i = 0; i < kFramesPerShard; ++i) {
        const std::string base = frameText(
            qa::randomFrameOf(verbIndex<T>(), rng, qa::FuzzDomain{}));
        Outcome outcome = Outcome::Rejected;
        std::string why = compareFrame<T>(base, &outcome);
        ASSERT_TRUE(why.empty() && outcome == Outcome::Accepted)
            << why << "\nvalid frame " << i << ":\n" << base;

        const std::string frame = rng.nextBool(0.25)
                                      ? mutateNumber(base, rng)
                                      : mutate(base, rng);
        why = compareFrame<T>(frame, &outcome);
        ASSERT_TRUE(why.empty())
            << why << "\nframe " << i << ":\n" << frame;
        accepted += outcome == Outcome::Accepted;
        wrapped += outcome == Outcome::Wrapped;
    }
    // Both outcomes must be well represented among the mutants, and
    // the divergence class exercised where it can occur, and nowhere
    // else.
    EXPECT_GT(accepted, kFramesPerShard / 20);
    EXPECT_LT(accepted, kFramesPerShard * 9 / 10);
    if (has_unsigned_fields)
        EXPECT_GT(wrapped, kFramesPerShard / 100);
    else
        EXPECT_EQ(wrapped, 0u);
}

TEST(VerbOracle, ResponseFramesMatchTheLegacyParser)
{
    runVerbOracle<ServiceResponse>(0x7e5b, true);
}

TEST(VerbOracle, StatsRequestFramesMatchTheLegacyParser)
{
    runVerbOracle<StatsRequest>(0x57a7, false);
}

TEST(VerbOracle, StatsResponseFramesMatchTheLegacyParser)
{
    runVerbOracle<StatsResponse>(0x57a8, false);
}

TEST(VerbOracle, DumpRequestFramesMatchTheLegacyParser)
{
    runVerbOracle<DumpRequest>(0xd0, false);
}

TEST(VerbOracle, DumpResponseFramesMatchTheLegacyParser)
{
    runVerbOracle<DumpResponse>(0xd1, true);
}

TEST(VerbOracle, SnapshotRequestFramesMatchTheLegacyParser)
{
    runVerbOracle<SnapshotRequest>(0x5a, false);
}

TEST(VerbOracle, SnapshotResponseFramesMatchTheLegacyParser)
{
    runVerbOracle<SnapshotResponse>(0x5b, true);
}

TEST(VerbOracle, PingFramesMatchTheLegacyParser)
{
    runVerbOracle<PingRequest>(0x9196, false);
}

TEST(VerbOracle, PongFramesMatchTheLegacyParser)
{
    runVerbOracle<PongResponse>(0x9097, false);
}

TEST(VerbOracle, WritersMatchTheLegacyWritersByteForByte)
{
    Rng rng(0x3717e);
    for (std::size_t i = 0; i < 20000; ++i) {
        AnyFrame any = qa::randomFrameOf(1 + rng.nextBelow(9), rng,
                                         qa::FuzzDomain{});
        // Full-range values: the writers must render what the
        // parsers reject.
        std::visit(
            [&](auto &f) {
                using T = std::decay_t<decltype(f)>;
                f.id = rng.next();
                if constexpr (std::is_same_v<T, ServiceResponse>) {
                    f.sim.bubbleCount = rng.next();
                    f.stats.cacheHits = rng.next();
                } else if constexpr (std::is_same_v<T, DumpResponse>) {
                    for (obs::FlightRecord &r : f.records) {
                        r.requestId = rng.next();
                        r.bytes = rng.next();
                    }
                } else if constexpr (std::is_same_v<T,
                                                    SnapshotResponse>) {
                    f.entries = rng.next();
                    f.bytes = rng.next();
                }
                if constexpr (!std::is_same_v<T, ServiceRequest>) {
                    ASSERT_EQ(frameText(f), Legacy<T>::write(f));
                    ASSERT_EQ(frameText(any), frameText(f));
                }
            },
            any);
    }
}

/** One unsigned reply field holding a value its type cannot. */
struct UnsignedCase
{
    std::string frame;
    std::string error; ///< what the production parser says
    /** Parse with both codecs: legacy accepted?, production error. */
    std::function<bool(const std::string &, std::string *)> check;
};

template <typename T>
std::function<bool(const std::string &, std::string *)>
checkWith()
{
    return [](const std::string &frame, std::string *error) {
        EXPECT_FALSE(tryReadFrame<T>(frame, error).has_value());
        return Legacy<T>::parse(frame, nullptr).has_value();
    };
}

TEST(UnsignedFields, NegativeAndOversizedValuesAreRejected)
{
    const std::string ok_sim =
        "jitsched-response 1\nstatus ok\nlower-bound 0\nmakespan 1\n";
    const std::string record =
        "jitsched-dump-response 1\nstatus ok\nrecords 1\n"
        "record trace 0 request 1 policy - status - queue-ns 0 "
        "solve-ns 0 bytes 0 hops 0 cached 0";
    const auto withRecord = [&](const std::string &key,
                                const std::string &v) {
        std::string r = record;
        const std::size_t at = r.find(" " + key + " ") + key.size() + 2;
        r.replace(at, r.find(' ', at) - at, v);
        return r + "\nend\n";
    };
    const std::vector<UnsignedCase> cases = {
        {ok_sim + "bubble-count -1\nend\n",
         "bad bubble-count '-1'", checkWith<ServiceResponse>()},
        {ok_sim + "stats cache-hits -2 cache-misses 0 queue-ns 0 "
                   "solve-ns 0\nend\n",
         "bad stats value '-2'", checkWith<ServiceResponse>()},
        {ok_sim + "stats cache-hits 0 cache-misses -1\nend\n",
         "bad stats value '-1'", checkWith<ServiceResponse>()},
        {ok_sim + "stats result-cache -7\nend\n",
         "bad stats value '-7'", checkWith<ServiceResponse>()},
        {ok_sim + "schedule 1\n5 300\nend\n",
         "bad schedule event '5 300'", checkWith<ServiceResponse>()},
        {ok_sim + "schedule 1\n4294967296 1\nend\n",
         "bad schedule event '4294967296 1'",
         checkWith<ServiceResponse>()},
        {"jitsched-snapshot-response 1\nstatus ok\nentries -5\n"
         "bytes 0\nend\n",
         "bad entries '-5'", checkWith<SnapshotResponse>()},
        {"jitsched-snapshot-response 1\nstatus ok\nentries 0\n"
         "bytes -1\nend\n",
         "bad bytes '-1'", checkWith<SnapshotResponse>()},
        {withRecord("request", "-1"),
         "bad record value '-1' for 'request'",
         checkWith<DumpResponse>()},
        {withRecord("bytes", "-3"),
         "bad record value '-3' for 'bytes'", checkWith<DumpResponse>()},
        {withRecord("hops", "4294967297"),
         "bad record value '4294967297' for 'hops'",
         checkWith<DumpResponse>()},
        {withRecord("hops", "-1"),
         "bad record value '-1' for 'hops'", checkWith<DumpResponse>()},
    };
    for (const UnsignedCase &c : cases) {
        std::string error;
        // The frozen parent parser accepted every one of these,
        // wrapping the value; the production parser must not.
        EXPECT_TRUE(c.check(c.frame, &error)) << c.frame;
        EXPECT_EQ(error, "protocol parse error: " + c.error)
            << c.frame;
    }
}

} // anonymous namespace
} // namespace jitsched
