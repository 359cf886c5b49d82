#include "qa/proto_fuzz.hh"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
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
    std::string err;

    // Request parser: reject or parse; parses must round-trip and
    // serve.
    {
        std::istringstream is(bytes);
        auto req = tryReadRequest(is, &err);
        if (req.has_value()) {
            const std::string t1 = requestText(*req);
            std::istringstream is2(t1);
            auto req2 = tryReadRequest(is2, &err);
            if (!req2.has_value()) {
                report(out, "proto-roundtrip",
                       "serialized accepted request failed to "
                       "reparse: " +
                           err);
            } else if (requestText(*req2) != t1) {
                report(out, "proto-roundtrip",
                       "request serialization is not a fixpoint");
            }
            if (serve_parsed && req->workload.numCalls() <= 512 &&
                req->workload.numFunctions() <= 16) {
                ServiceRequest capped = *req;
                clampOptions(capped);
                const ServiceResponse resp =
                    localEngine().serve(capped);
                const std::string r1 = responseText(resp);
                std::istringstream rs(r1);
                auto back = tryReadResponse(rs, &err);
                if (!back.has_value()) {
                    report(out, "proto-roundtrip",
                           "served response failed to reparse: " +
                               err);
                } else if (responseText(*back) != r1) {
                    report(out, "proto-roundtrip",
                           "response serialization is not a "
                           "fixpoint");
                }
            }
        }
    }

    // Response parser.
    {
        std::istringstream is(bytes);
        auto resp = tryReadResponse(is, &err);
        if (resp.has_value()) {
            const std::string t1 = responseText(*resp);
            std::istringstream is2(t1);
            auto resp2 = tryReadResponse(is2, &err);
            if (!resp2.has_value())
                report(out, "proto-roundtrip",
                       "serialized accepted response failed to "
                       "reparse: " +
                           err);
            else if (responseText(*resp2) != t1)
                report(out, "proto-roundtrip",
                       "response serialization is not a fixpoint");
        }
    }

    // Stats frames (scrape request and snapshot response).
    {
        std::istringstream is(bytes);
        auto sreq = tryReadStatsRequest(is, &err);
        if (sreq.has_value()) {
            const std::string t1 = statsRequestText(*sreq);
            std::istringstream is2(t1);
            if (!tryReadStatsRequest(is2, &err).has_value())
                report(out, "proto-roundtrip",
                       "serialized stats request failed to "
                       "reparse: " +
                           err);
        }
    }
    {
        std::istringstream is(bytes);
        auto sresp = tryReadStatsResponse(is, &err);
        if (sresp.has_value()) {
            const std::string t1 = statsResponseText(*sresp);
            std::istringstream is2(t1);
            auto sresp2 = tryReadStatsResponse(is2, &err);
            if (!sresp2.has_value())
                report(out, "proto-roundtrip",
                       "serialized stats response failed to "
                       "reparse: " +
                           err);
            else if (statsResponseText(*sresp2) != t1)
                report(out, "proto-roundtrip",
                       "stats response serialization is not a "
                       "fixpoint");
        }
    }

    // Ping frames (probe request and pong response).
    {
        std::istringstream is(bytes);
        auto preq = tryReadPingRequest(is, &err);
        if (preq.has_value()) {
            const std::string t1 = pingRequestText(*preq);
            std::istringstream is2(t1);
            if (!tryReadPingRequest(is2, &err).has_value())
                report(out, "proto-roundtrip",
                       "serialized ping request failed to "
                       "reparse: " +
                           err);
        }
    }
    {
        std::istringstream is(bytes);
        auto pong = tryReadPongResponse(is, &err);
        if (pong.has_value()) {
            const std::string t1 = pongResponseText(*pong);
            std::istringstream is2(t1);
            auto pong2 = tryReadPongResponse(is2, &err);
            if (!pong2.has_value())
                report(out, "proto-roundtrip",
                       "serialized pong response failed to "
                       "reparse: " +
                           err);
            else if (pongResponseText(*pong2) != t1)
                report(out, "proto-roundtrip",
                       "pong response serialization is not a "
                       "fixpoint");
        }
    }
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

/**
 * Whether @p raw parses as some well-formed response frame.  A
 * mutated request can legitimately turn into any verb the server
 * speaks (a byte flip in the header makes a ping, a dump, ...), and
 * the server then answers in that verb's response grammar — all of
 * them are "the daemon stayed coherent", which is what the scenario
 * asserts.
 */
bool
parseableAsAnyResponse(const std::string &raw)
{
    std::string perr;
    {
        std::istringstream is(raw);
        if (tryReadResponse(is, &perr).has_value())
            return true;
    }
    {
        std::istringstream is(raw);
        if (tryReadStatsResponse(is, &perr).has_value())
            return true;
    }
    {
        std::istringstream is(raw);
        if (tryReadPongResponse(is, &perr).has_value())
            return true;
    }
    {
        std::istringstream is(raw);
        if (tryReadDumpResponse(is, &perr).has_value())
            return true;
    }
    {
        std::istringstream is(raw);
        if (tryReadSnapshotResponse(is, &perr).has_value())
            return true;
    }
    return false;
}

} // anonymous namespace

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
