#include "qa/proto_fuzz.hh"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "service/engine.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/socket_util.hh"

namespace jitsched {
namespace qa {

namespace {

void
report(std::vector<Violation> &out, std::string oracle,
       std::string detail)
{
    out.push_back({std::move(oracle), std::move(detail)});
}

/** Engine for serving parse-accepted fuzz requests in-process. */
ServiceEngine &
localEngine()
{
    static ServiceEngine engine;
    return engine;
}

/** Keep hostile option values from turning a fuzz case into a DoS. */
void
clampOptions(ServiceRequest &req)
{
    req.options.astarMaxExpansions =
        std::min<std::uint64_t>(req.options.astarMaxExpansions,
                                1'000'000);
    req.options.astarMemoryMb =
        std::min<std::uint64_t>(req.options.astarMemoryMb, 256);
    req.options.compileCores =
        std::max<std::size_t>(1,
                              std::min<std::size_t>(
                                  req.options.compileCores, 16));
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

/** Drop the volatile `stats` line from a raw response frame. */
std::string
stripStats(const std::string &frame)
{
    std::string out;
    std::istringstream is(frame);
    for (std::string line; std::getline(is, line);) {
        if (line.rfind("stats ", 0) != 0)
            out += line + "\n";
    }
    return out;
}

} // anonymous namespace

void
checkProtocolBytes(const std::string &bytes,
                   std::vector<Violation> &out, bool serve_parsed)
{
    // Every verb's parser, picked by the header tag: reject or
    // parse, and a parse must round-trip (parse → serialize → parse
    // → serialize is a fixpoint).
    std::string err;
    const auto frame = tryReadAnyFrame(bytes, &err);
    if (!frame.has_value())
        return;
    const std::string t1 = frameText(*frame);
    const std::string verb(frameTag(t1));
    const auto again = tryReadAnyFrame(t1, &err);
    if (!again.has_value())
        report(out, "proto-roundtrip",
               "serialized accepted " + verb +
                   " frame failed to reparse: " + err);
    else if (frameText(*again) != t1)
        report(out, "proto-roundtrip",
               verb + " serialization is not a fixpoint");

    // Accepted requests must also serve, and the served response
    // round-trip.
    const auto *req = std::get_if<ServiceRequest>(&*frame);
    if (req == nullptr || !serve_parsed ||
        req->workload.numCalls() > 512 ||
        req->workload.numFunctions() > 16)
        return;
    ServiceRequest capped = *req;
    clampOptions(capped);
    const std::string r1 = responseText(localEngine().serve(capped));
    const auto back = tryReadFrame<ServiceResponse>(r1, &err);
    if (!back.has_value())
        report(out, "proto-roundtrip",
               "served response failed to reparse: " + err);
    else if (responseText(*back) != r1)
        report(out, "proto-roundtrip",
               "response serialization is not a fixpoint");
}

std::string
randomRequestFrame(Rng &rng, const FuzzDomain &domain)
{
    static const char *const kPolicies[] = {
        "iar",   "base-only", "opt-only",
        "astar", "lower-bound", "no-such-policy",
    };
    ServiceRequest req;
    req.id = rng.nextBelow(1 << 20);
    req.policy = kPolicies[rng.nextBelow(std::size(kPolicies))];
    if (rng.nextBool(0.3))
        req.options.compileCores = 1 + rng.nextBelow(4);
    req.workload = randomWorkload(rng, domain);
    return requestText(req);
}

namespace {

/** A word from @p words. */
template <std::size_t N>
const char *
pick(Rng &rng, const char *const (&words)[N])
{
    return words[rng.nextBelow(N)];
}

/** Ids and counts: small, typical, or near the top of int64. */
std::uint64_t
randomCount(Rng &rng)
{
    switch (rng.nextBelow(3)) {
    case 0:
        return rng.nextBelow(16);
    case 1:
        return rng.nextBelow(1u << 30);
    default:
        return rng.next() >> 1;
    }
}

/** Status, code and message of a random response. */
template <typename Resp>
void
randomStatus(Rng &rng, Resp &resp)
{
    static const char *const kCodes[] = {
        "", errcode::invalidArgument, errcode::deadlineExceeded,
        errcode::resourceExhausted, errcode::unavailable,
    };
    static const char *const kMessages[] = {
        "", "solver refused", "  padded  message", "has # a comment",
        "protocol parse error: bad id '-1'",
    };
    resp.id = randomCount(rng);
    resp.ok = rng.nextBool(0.7);
    if (!resp.ok) {
        resp.code = pick(rng, kCodes);
        resp.error = pick(rng, kMessages);
    }
}

ServiceResponse
randomResponse(Rng &rng, const FuzzDomain &domain)
{
    ServiceResponse resp;
    randomStatus(rng, resp);
    static const char *const kPolicies[] = {"", "iar", "astar-par",
                                            "lower-bound"};
    resp.policy = pick(rng, kPolicies);
    resp.lowerBound = rng.nextRange(-5, 1 << 30);
    resp.hasSim = rng.nextBool(0.8);
    SimResult &s = resp.sim;
    s.makespan = rng.nextRange(0, 1ll << 40);
    s.compileEnd = rng.nextRange(0, 1ll << 40);
    s.execEnd = rng.nextRange(0, 1ll << 40);
    s.totalBubble = rng.nextRange(-1, 1ll << 40);
    s.bubbleCount = randomCount(rng);
    s.totalExec = rng.nextRange(0, 1ll << 40);
    s.totalCompile = rng.nextRange(0, 1ll << 40);
    for (std::size_t l = rng.nextBelow(domain.maxLevels + 1); l > 0; --l)
        s.callsAtLevel.push_back(randomCount(rng));
    resp.hasSchedule = rng.nextBool(0.7);
    for (std::size_t k = rng.nextBelow(domain.maxCalls); k > 0; --k)
        resp.schedule.push_back(
            {static_cast<FuncId>(rng.nextBelow(domain.maxFunctions)),
             static_cast<Level>(rng.nextBelow(domain.maxLevels))});
    resp.stats.cacheHits = randomCount(rng);
    resp.stats.cacheMisses = randomCount(rng);
    resp.stats.queueNs = rng.nextRange(-10, 1ll << 50);
    resp.stats.solveNs = rng.nextRange(0, 1ll << 50);
    resp.stats.resultCache = rng.nextBelow(3);
    resp.stats.traceId = rng.nextBool(0.5) ? rng.next() : 0;
    return resp;
}

StatsResponse
randomStatsResponse(Rng &rng)
{
    static const char *const kLines[] = {
        "counter service.frames.served 12",
        "gauge service.queue.depth 0",
        "# HELP service_frames_served frames",
        "# TYPE service_frames_served counter",
        "service_frames_served 12",
        "end",
        "",
    };
    StatsResponse resp;
    randomStatus(rng, resp);
    resp.prom = rng.nextBool(0.3);
    for (std::size_t n = rng.nextBelow(6); n > 0; --n)
        resp.lines.push_back(pick(rng, kLines));
    return resp;
}

DumpResponse
randomDumpResponse(Rng &rng)
{
    static const char *const kNames[] = {"", "iar", "ok",
                                         errcode::unavailable};
    DumpResponse resp;
    randomStatus(rng, resp);
    for (std::size_t n = rng.nextBelow(4); n > 0; --n) {
        obs::FlightRecord r;
        r.traceId = rng.nextBool(0.5) ? rng.next() : 0;
        r.requestId = randomCount(rng);
        r.policy = pick(rng, kNames);
        r.status = pick(rng, kNames);
        r.queueNs = rng.nextRange(-10, 1ll << 40);
        r.solveNs = rng.nextRange(0, 1ll << 40);
        r.bytes = randomCount(rng);
        r.hops = static_cast<std::uint32_t>(rng.next());
        r.cached = rng.nextBool(0.5);
        resp.records.push_back(std::move(r));
    }
    return resp;
}

} // anonymous namespace

AnyFrame
randomFrameOf(std::size_t verb, Rng &rng, const FuzzDomain &domain)
{
    switch (verb % std::variant_size_v<AnyFrame>) {
    case 0: {
        std::string text = randomRequestFrame(rng, domain);
        return *tryReadRequest(std::string_view(text));
    }
    case 1:
        return randomResponse(rng, domain);
    case 2:
        return StatsRequest{randomCount(rng), rng.nextBool(0.5)};
    case 3:
        return randomStatsResponse(rng);
    case 4:
        return DumpRequest{randomCount(rng)};
    case 5:
        return randomDumpResponse(rng);
    case 6:
        return SnapshotRequest{randomCount(rng)};
    case 7: {
        SnapshotResponse resp;
        randomStatus(rng, resp);
        resp.entries = randomCount(rng);
        resp.bytes = randomCount(rng);
        return resp;
    }
    case 8:
        return PingRequest{randomCount(rng)};
    default: {
        PongResponse resp;
        randomStatus(rng, resp);
        return resp;
    }
    }
}

std::string
randomFrame(Rng &rng, const FuzzDomain &domain)
{
    // Half requests — the frames that reach the solvers — and the
    // rest spread over every other verb.
    if (rng.nextBool(0.5))
        return randomRequestFrame(rng, domain);
    return frameText(randomFrameOf(
        1 + rng.nextBelow(std::variant_size_v<AnyFrame> - 1), rng,
        domain));
}

std::string
mutateFrameBytes(const std::string &frame, Rng &rng)
{
    if (frame.empty())
        return frame;
    switch (rng.nextBelow(8)) {
    case 0: // truncate at a random byte
        return frame.substr(0, rng.nextBelow(frame.size()));
    case 1: { // flip one byte to an arbitrary value
        std::string out = frame;
        out[rng.nextBelow(out.size())] =
            static_cast<char>(rng.nextBelow(256));
        return out;
    }
    case 2: { // duplicate one line
        auto lines = splitLines(frame);
        if (lines.empty())
            return frame;
        const std::size_t i = rng.nextBelow(lines.size());
        lines.insert(lines.begin() + i, lines[i]);
        return joinLines(lines);
    }
    case 3: { // delete one line
        auto lines = splitLines(frame);
        if (lines.size() <= 1)
            return frame;
        lines.erase(lines.begin() + rng.nextBelow(lines.size()));
        return joinLines(lines);
    }
    case 4: { // swap two lines
        auto lines = splitLines(frame);
        if (lines.size() <= 1)
            return frame;
        const std::size_t a = rng.nextBelow(lines.size());
        const std::size_t b = rng.nextBelow(lines.size());
        std::swap(lines[a], lines[b]);
        return joinLines(lines);
    }
    case 5: { // oversize a declared count
        auto lines = splitLines(frame);
        for (std::string &line : lines) {
            if (line.rfind("calls ", 0) == 0 ||
                line.rfind("schedule ", 0) == 0 ||
                line.rfind("snapshot ", 0) == 0) {
                line = line.substr(0, line.find(' ')) +
                       " 4000000000";
                return joinLines(lines);
            }
        }
        return frame + "calls 4000000000\n";
    }
    case 6: { // insert a garbage line
        auto lines = splitLines(frame);
        static const char *const kGarbage[] = {
            "option deadline-ms banana",
            "func -1 x 0",
            "levels 255",
            "\x01\x02\x03\xff",
            "payload",
            "jitsched-request 7",
            "jitsched-ping 7",
        };
        lines.insert(lines.begin() + rng.nextBelow(lines.size() + 1),
                     kGarbage[rng.nextBelow(std::size(kGarbage))]);
        return joinLines(lines);
    }
    default: { // splice: prefix of the frame + suffix from elsewhere
        const std::size_t cut = rng.nextBelow(frame.size());
        const std::size_t from = rng.nextBelow(frame.size());
        return frame.substr(0, cut) + frame.substr(from);
    }
    }
}

// --- Loopback fault injector --------------------------------------

namespace {

/**
 * Minimal raw TCP client with a receive timeout: the fuzzer must be
 * able to tell "the daemon hung" (a finding) from "the daemon
 * deliberately dropped me" (often correct), which ServiceClient's
 * blocking reads cannot.
 */
class RawConn
{
  public:
    ~RawConn() { closeNow(); }

    bool
    open(const std::string &address, std::uint16_t port,
         std::string *error)
    {
        closeNow();
        fd_ = connectTcp(address, port, error);
        if (fd_ < 0)
            return false;
        timeval tv{};
        tv.tv_sec = 10;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        reader_ = std::make_unique<LineReader>(fd_);
        return true;
    }

    bool send(std::string_view data) { return writeAll(fd_, data); }

    /** One whole frame (through `end`), or nullopt on EOF/timeout. */
    std::optional<std::string>
    readFrame()
    {
        return reader_->readFrame();
    }

    void
    closeNow()
    {
        reader_.reset();
        closeFd(fd_);
        fd_ = -1;
    }

  private:
    int fd_ = -1;
    std::unique_ptr<LineReader> reader_;
};

} // anonymous namespace

bool
parseableAsAnyResponse(const std::string &raw)
{
    const auto frame = tryReadAnyFrame(raw);
    return frame.has_value() &&
           (std::holds_alternative<ServiceResponse>(*frame) ||
            std::holds_alternative<StatsResponse>(*frame) ||
            std::holds_alternative<DumpResponse>(*frame) ||
            std::holds_alternative<SnapshotResponse>(*frame) ||
            std::holds_alternative<PongResponse>(*frame));
}

struct LoopbackFuzzer::Impl
{
    ServiceEngine engine;
    ServiceServer server{engine};
    ServiceEngine reference; // must not share cache with the server
    bool started = false;
    std::string startError;

    /** The deterministic bytes a healthy server must answer with. */
    std::string
    directAnswer(const ServiceRequest &req)
    {
        ServiceResponse resp = reference.serve(req);
        resp.stats = {};
        return responseText(resp, /*include_stats=*/false);
    }

    /**
     * Send a known-valid request (optionally in random chunks) and
     * require the byte-identical deterministic answer.
     * @return false when a violation was recorded
     */
    bool
    expectValidRoundTrip(RawConn &conn, const ServiceRequest &req,
                         Rng *chunker, std::vector<Violation> &out)
    {
        const std::string frame = requestText(req);
        if (chunker != nullptr) {
            std::size_t at = 0;
            while (at < frame.size()) {
                const std::size_t len =
                    1 + chunker->nextBelow(frame.size() - at);
                if (!conn.send(
                        std::string_view(frame).substr(at, len))) {
                    report(out, "proto-loopback",
                           "write of a valid frame failed");
                    return false;
                }
                at += len;
            }
        } else if (!conn.send(frame)) {
            report(out, "proto-loopback",
                   "write of a valid frame failed");
            return false;
        }
        const auto raw = conn.readFrame();
        if (!raw.has_value()) {
            report(out, "proto-loopback",
                   "no response to a valid frame (hang or "
                   "disconnect), policy " +
                       req.policy);
            return false;
        }
        const std::string want = directAnswer(req);
        if (stripStats(*raw) != want) {
            report(out, "proto-loopback",
                   "response to a valid frame diverged from the "
                   "direct library call:\n--- got ---\n" +
                       stripStats(*raw) + "--- want ---\n" + want);
            return false;
        }
        return true;
    }
};

LoopbackFuzzer::LoopbackFuzzer() : impl_(std::make_unique<Impl>())
{
    impl_->started = impl_->server.start(&impl_->startError);
}

LoopbackFuzzer::~LoopbackFuzzer() = default;

bool
LoopbackFuzzer::ok() const
{
    return impl_->started;
}

const std::string &
LoopbackFuzzer::error() const
{
    return impl_->startError;
}

void
LoopbackFuzzer::runCase(Rng &rng, const FuzzDomain &domain,
                        std::vector<Violation> &out,
                        ProtoFuzzStats *stats)
{
    if (!impl_->started) {
        report(out, "proto-loopback",
               "server failed to start: " + impl_->startError);
        return;
    }
    if (stats != nullptr)
        ++stats->loopbackCases;

    // One known-good request reused for the recovery checks.
    static const char *const kSafePolicies[] = {
        "iar", "base-only", "opt-only", "lower-bound"};
    ServiceRequest valid;
    valid.id = rng.nextBelow(1 << 20);
    valid.policy = kSafePolicies[rng.nextBelow(4)];
    valid.workload = randomWorkload(rng, domain);

    const std::string address = impl_->server.bindAddress();
    const std::uint16_t port = impl_->server.port();
    std::string error;
    RawConn conn;
    if (!conn.open(address, port, &error)) {
        report(out, "proto-loopback", "connect failed: " + error);
        return;
    }

    switch (rng.nextBelow(4)) {
    case 0: { // valid frame delivered in adversarial chunks
        if (impl_->expectValidRoundTrip(conn, valid, &rng, out) &&
            stats != nullptr)
            ++stats->served;
        break;
    }
    case 1: { // mutated frame, then recovery on the same connection
        std::string bad =
            mutateFrameBytes(requestText(valid), rng);
        // Terminate the frame: an unterminated frame is the server
        // *correctly* waiting for more bytes, not a scenario.  The
        // server answers one frame per `end` line it sees, so count
        // them to know how many responses to drain before the
        // recovery round trip.
        if (bad.empty() || bad.back() != '\n')
            bad += "\n";
        std::size_t frames_sent = 0;
        bool tail_open = false; // bytes after the last `end` line
        for (const std::string &line : splitLines(bad)) {
            if (isFrameEnd(line)) {
                ++frames_sent;
                tail_open = false;
            } else {
                tail_open = true;
            }
        }
        if (frames_sent == 0 || tail_open) {
            // Unterminated tail bytes would prefix (and corrupt) the
            // recovery frame; close them off as one more frame.
            bad += "end\n";
            ++frames_sent;
        }
        if (!conn.send(bad)) {
            report(out, "proto-loopback",
                   "write of mutated frame failed");
            break;
        }
        bool dropped = false;
        for (std::size_t i = 0; i < frames_sent; ++i) {
            const auto raw = conn.readFrame();
            if (!raw.has_value()) {
                // Deliberate disconnect (e.g. line-length overflow)
                // is legal; the daemon must still take new
                // connections.
                dropped = true;
                break;
            }
            // Whatever came back must at least be a parseable frame
            // of one of the response grammars the server speaks.
            if (!parseableAsAnyResponse(*raw)) {
                report(out, "proto-loopback",
                       "unparseable response to a mutated "
                       "frame:\n" +
                           *raw);
                return;
            }
            if (stats != nullptr)
                ++stats->served;
        }
        if (dropped) {
            if (stats != nullptr)
                ++stats->disconnects;
            RawConn fresh;
            if (!fresh.open(address, port, &error)) {
                report(out, "proto-loopback",
                       "reconnect after disconnect failed: " + error);
                break;
            }
            impl_->expectValidRoundTrip(fresh, valid, nullptr, out);
            break;
        }
        // The connection must still serve valid requests.
        impl_->expectValidRoundTrip(conn, valid, nullptr, out);
        break;
    }
    case 2: { // mid-frame disconnect; the daemon must shrug it off
        const std::string frame = requestText(valid);
        const std::size_t cut = 1 + rng.nextBelow(frame.size() - 1);
        conn.send(std::string_view(frame).substr(0, cut));
        conn.closeNow();
        if (stats != nullptr)
            ++stats->disconnects;
        RawConn fresh;
        if (!fresh.open(address, port, &error)) {
            report(out, "proto-loopback",
                   "reconnect after mid-frame disconnect failed: " +
                       error);
            break;
        }
        if (impl_->expectValidRoundTrip(fresh, valid, nullptr, out) &&
            stats != nullptr)
            ++stats->served;
        break;
    }
    default: { // oversize declared call count inside a framed request
        auto lines = splitLines(requestText(valid));
        for (std::string &line : lines) {
            if (line.rfind("calls ", 0) == 0) {
                line = "calls " +
                       std::to_string(
                           1'000'000 +
                           rng.nextBelow(4'000'000'000ull));
                break;
            }
        }
        if (!conn.send(joinLines(lines))) {
            report(out, "proto-loopback",
                   "write of oversize-count frame failed");
            break;
        }
        const auto raw = conn.readFrame();
        if (!raw.has_value()) {
            report(out, "proto-loopback",
                   "no response to an oversize-count frame (hang "
                   "or disconnect)");
            break;
        }
        std::istringstream is(*raw);
        std::string perr;
        const auto resp = tryReadResponse(is, &perr);
        if (!resp.has_value()) {
            report(out, "proto-loopback",
                   "unparseable response to an oversize-count "
                   "frame: " +
                       perr);
            break;
        }
        if (resp->ok || resp->code != errcode::invalidArgument) {
            report(out, "proto-loopback",
                   "oversize declared count was not rejected with "
                   "INVALID_ARGUMENT (code '" +
                       resp->code + "')");
            break;
        }
        if (stats != nullptr)
            ++stats->served;
        // Framing must have recovered at the `end` line.
        impl_->expectValidRoundTrip(conn, valid, nullptr, out);
        break;
    }
    }
}

} // namespace qa
} // namespace jitsched
