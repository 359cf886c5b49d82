/**
 * @file
 * LineReader::readFrame(): the one frame reader the daemon, the
 * router, the backend pool and the client share.  Frames arrive a
 * byte at a time over a socketpair, with `end  # comment`
 * terminators and "\r\n" line ends, and must come out exactly as the
 * line-by-line accumulation it replaced assembled them; oversized
 * frames and EOF keep their old outcomes, and a daemon answers a
 * trickled, CRLF-framed request with the same bytes as a clean one.
 */

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/instruments.hh"
#include "service/client.hh"
#include "service/engine.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/socket_util.hh"
#include "support/rng.hh"
#include "trace/paper_examples.hh"

namespace jitsched {
namespace {

/** A connected socketpair; closes whatever is still open. */
struct Pair
{
    int fds[2] = {-1, -1};

    Pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
    ~Pair()
    {
        closeFd(fds[0]);
        closeFd(fds[1]);
    }
    int reader() const { return fds[0]; }
    int writer() const { return fds[1]; }

    /** Read to EOF, so a writer blocked on a full buffer finishes. */
    void drain()
    {
        char buf[4096];
        while (::read(fds[0], buf, sizeof(buf)) > 0) {
        }
    }
    void closeWriter()
    {
        closeFd(fds[1]);
        fds[1] = -1;
    }
};

/** Write @p bytes in chunks of 1..max_chunk bytes, then close. */
std::thread
trickle(Pair &p, std::string bytes, std::size_t max_chunk,
        std::uint64_t seed)
{
    return std::thread([&p, bytes = std::move(bytes), max_chunk, seed] {
        Rng rng(seed);
        for (std::size_t at = 0; at < bytes.size();) {
            const std::size_t n = std::min(
                bytes.size() - at, 1 + rng.nextBelow(max_chunk));
            ASSERT_TRUE(writeAll(p.writer(),
                                 std::string_view(bytes).substr(at, n)));
            at += n;
        }
        p.closeWriter();
    });
}

/**
 * Reference: the per-line frame assembly readFrame() replaced, over
 * the whole byte stream at once.  A line is '\n'-terminated with one
 * trailing '\r' dropped, or the unterminated tail at EOF taken
 * as-is; a line or frame past @p max_bytes ends the stream as
 * "<oversized>".
 */
std::vector<std::string>
framesByLines(std::string_view bytes, std::size_t max_bytes)
{
    std::vector<std::string> out;
    std::string frame;
    while (!bytes.empty()) {
        const std::size_t nl = bytes.find('\n');
        std::string_view line = bytes.substr(0, nl);
        if (nl == std::string_view::npos) {
            if (line.size() > max_bytes) { // newline-free flood
                out.push_back("<oversized>");
                return out;
            }
        } else if (!line.empty() && line.back() == '\r') {
            line.remove_suffix(1);
        }
        bytes.remove_prefix(nl == std::string_view::npos ? bytes.size()
                                                         : nl + 1);
        if (frame.size() + line.size() + 1 > max_bytes) {
            out.push_back("<oversized>");
            return out;
        }
        frame += line;
        frame += '\n';
        if (isFrameEnd(line)) {
            out.push_back(frame);
            frame.clear();
        }
    }
    return out;
}

/** Every frame readFrame() returns from a trickled stream. */
std::vector<std::string>
framesByReadFrame(const std::string &bytes, std::size_t max_bytes,
                  std::size_t max_chunk, std::uint64_t seed)
{
    Pair p;
    std::thread w = trickle(p, bytes, max_chunk, seed);
    LineReader reader(p.reader(), max_bytes);
    std::vector<std::string> out;
    while (auto frame = reader.readFrame(max_bytes))
        out.push_back(*frame);
    if (reader.overflowed())
        out.push_back("<oversized>");
    p.drain();
    w.join();
    return out;
}

TEST(FrameReader, ByteAtATimeFramesComeOutWhole)
{
    const std::string a = "jitsched-ping 1\nend\n";
    const std::string b = "jitsched-stats 2 prom\n# note\n  end  # done\n";
    const auto frames = framesByReadFrame(a + b, 1 << 20, 1, 7);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], a);
    EXPECT_EQ(frames[1], b);
}

TEST(FrameReader, CrLfLinesAreReterminatedWithLf)
{
    const auto frames = framesByReadFrame(
        "jitsched-ping 3\r\nend # x\r\njitsched-ping 4\nend\r\n",
        1 << 20, 3, 9);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], "jitsched-ping 3\nend # x\n");
    EXPECT_EQ(frames[1], "jitsched-ping 4\nend\n");
}

TEST(FrameReader, EndMustBeAWholeLine)
{
    // `endx`, `end x` and `#end` do not end a frame; EOF before a
    // real terminator yields nothing, and sets no overflow.
    Pair p;
    std::thread w = trickle(p, "a\nendx\nend x\n#end\nb", 2, 3);
    LineReader reader(p.reader());
    EXPECT_FALSE(reader.readFrame().has_value());
    EXPECT_FALSE(reader.overflowed());
    p.drain();
    w.join();
}

TEST(FrameReader, UnterminatedFinalEndLineEndsTheFrame)
{
    const auto frames = framesByReadFrame("x\nend", 1 << 20, 1, 5);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "x\nend\n");
}

TEST(FrameReader, OversizedFrameSetsOverflow)
{
    std::string flood;
    while (flood.size() < 4096)
        flood += "option padding padding\n";
    flood += "end\n";
    const auto frames = framesByReadFrame(flood, 1024, 1, 11);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "<oversized>");
    // A frame exactly at the cap still fits.
    const std::string fits = std::string(1019, 'y') + "\nend\n";
    ASSERT_EQ(fits.size(), 1024u);
    EXPECT_EQ(framesByReadFrame(fits, 1024, 64, 2),
              std::vector<std::string>{fits});
    EXPECT_EQ(framesByReadFrame(fits, 1023, 64, 2),
              std::vector<std::string>{"<oversized>"});
}

TEST(FrameReader, FrameBytesCountsFramesCutOff)
{
    const auto bytesRead = [](const std::string &bytes,
                              std::size_t max_bytes) {
        Pair p;
        std::thread w = trickle(p, bytes, 3, 6);
        LineReader reader(p.reader(), max_bytes);
        std::vector<std::size_t> out;
        for (;;) {
            const bool got = reader.readFrame(max_bytes).has_value();
            out.push_back(reader.frameBytes());
            if (!got)
                break;
        }
        p.drain();
        w.join();
        return out;
    };
    // A whole frame counts as its size ("\r\n" read as one '\n');
    // a frame cut off by EOF or the size cap counts the lines read
    // before the cut.
    EXPECT_EQ(bytesRead("a\r\nend\nx\r\nyy", 1 << 20),
              (std::vector<std::size_t>{6, 5}));
    EXPECT_EQ(bytesRead("aaaa\nbbbb\ncccc\nend\n", 12),
              (std::vector<std::size_t>{10}));
    EXPECT_EQ(bytesRead("", 12), (std::vector<std::size_t>{0}));
}

TEST(FrameReader, NewlineFreeStreamOverflowsTheLineCap)
{
    const auto frames =
        framesByReadFrame(std::string(8192, 'x'), 1024, 512, 4);
    EXPECT_EQ(frames, std::vector<std::string>{"<oversized>"});
}

TEST(FrameReader, MatchesLineByLineAssemblyOnRandomStreams)
{
    Rng rng(0xf4a3e);
    static const char *const kLines[] = {
        "jitsched-request 1", "end", "  end  ", "end # c", "end\r",
        "# end",              "",    "\r",      "payload", "1 2 3 4",
        "endend",             "\t end\t",
    };
    for (int round = 0; round < 200; ++round) {
        std::string bytes;
        for (std::size_t n = rng.nextBelow(40); n > 0; --n) {
            bytes += kLines[rng.nextBelow(std::size(kLines))];
            bytes += '\n';
        }
        if (rng.nextBool(0.3))
            bytes += "end"; // unterminated final line
        const std::size_t cap = 16 + rng.nextBelow(200);
        ASSERT_EQ(framesByReadFrame(bytes, cap, 1 + rng.nextBelow(9),
                                    rng.next()),
                  framesByLines(bytes, cap))
            << "round " << round;
    }
}

TEST(FrameReader, TrickledCrLfRequestGetsTheCleanAnswer)
{
    ServiceEngine engine;
    ServerConfig cfg;
    ServiceServer server(engine, cfg);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceRequest req;
    req.id = 17;
    req.policy = "iar";
    req.workload = figure1Workload();
    const std::string clean = requestText(req);
    std::string crlf;
    for (const char c : clean) {
        if (c == '\n')
            crlf += '\r';
        crlf += c;
    }
    crlf.replace(crlf.rfind("end\r\n"), 5, "end  # done\r\n");

    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    const auto want = client.callRaw(clean, &error);
    ASSERT_TRUE(want.has_value()) << error;

    // The CRLF variant, one byte per write, on a second connection.
    const int fd = connectTcp("127.0.0.1", server.port(), &error);
    ASSERT_GE(fd, 0) << error;
    for (const char c : crlf)
        ASSERT_TRUE(writeAll(fd, std::string_view(&c, 1)));
    LineReader reader(fd);
    const auto got = reader.readFrame();
    closeFd(fd);
    ASSERT_TRUE(got.has_value());

    const auto strip = [](const std::string &frame) {
        std::istringstream is(frame);
        const auto resp = tryReadResponse(is);
        return resp ? responseText(*resp, /*include_stats=*/false)
                    : std::string("<unparsable>");
    };
    EXPECT_EQ(strip(*got), strip(*want));
    server.stop();
}

TEST(FrameReader, ServerOversizedErrorFrameIsByteExact)
{
    ServiceEngine engine;
    ServerConfig cfg;
    cfg.maxFrameBytes = 1024;
    ServiceServer server(engine, cfg);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    const auto raw = client.callRaw(std::string(2048, 'z') + "\nend\n",
                                    &error);
    ASSERT_TRUE(raw.has_value()) << error;
    EXPECT_EQ(*raw, responseText(makeErrorResponse(
                        0, errcode::invalidArgument,
                        "request frame exceeds 1024 bytes")));
    server.stop();
}

TEST(FrameReader, ServerCountsTheBytesOfAnOversizedFrame)
{
#ifdef JITSCHED_OBS_DISABLED
    GTEST_SKIP() << "instruments are compiled out";
#endif
    ServiceEngine engine;
    ServerConfig cfg;
    cfg.maxFrameBytes = 1024;
    ServiceServer server(engine, cfg);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    obs::Counter &bytes_in = obs::ServiceMetrics::get().bytesIn;
    const std::uint64_t before = bytes_in.value();
    // Two lines fit, the third breaks the cap: service.bytes.in
    // counts what was read of the frame before the error.
    const std::string head = "jitsched-ping 1\noption x\n";
    const auto raw = client.callRaw(
        head + std::string(2048, 'z') + "\nend\n", &error);
    ASSERT_TRUE(raw.has_value()) << error;
    EXPECT_EQ(bytes_in.value() - before, head.size());
    server.stop();
}

} // anonymous namespace
} // namespace jitsched
