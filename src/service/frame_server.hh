/**
 * @file
 * The connection front end jitschedd and jitsched-router share: a TCP
 * listener, one acceptor thread with backoff, a fixed pool of
 * connection handlers, the frame loop with its oversize error and
 * bounded drain, and the inline PING/STATS/DUMP answers.
 *
 * A handler reads one frame at a time (every line up to `end`) and
 * dispatches it on its header tag through one verb table.  The owner
 * adds its own verbs — the daemon adds SNAPSHOT — and a fallback that
 * takes every other tag: the daemon's solve path, the router's
 * route().  Framing is recovered at the `end` scan, so one malformed
 * frame never desynchronizes or kills a connection; a frame past
 * maxFrameBytes gets an INVALID_ARGUMENT error and a disconnect,
 * since resynchronizing would mean reading an unbounded amount.
 *
 * PING, STATS and DUMP are answered inline on the handler, never
 * through the owner's fallback: a health probe or a scrape costs no
 * solve and no relay, so a loaded server still answers it — that is
 * when it matters.
 */

#ifndef JITSCHED_SERVICE_FRAME_SERVER_HH
#define JITSCHED_SERVICE_FRAME_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hh"
#include "service/protocol.hh"

namespace jitsched {

/**
 * Most handlers jitschedd and jitsched-router accept.  A daemon
 * handler solves the requests it reads, so this caps the solves
 * running at once.
 */
inline constexpr std::size_t kMaxHandlerThreads = 64;

/** Knobs of the front end; the owner copies them from its config. */
struct FrameServerConfig
{
    /** Log prefix, e.g. "jitschedd". */
    std::string name;

    std::string bindAddress = "127.0.0.1";

    /** Port to bind; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;

    int acceptBacklog = 64;

    std::size_t handlerThreads = 4;

    /** Largest accepted frame (and single line) in bytes. */
    std::size_t maxFrameBytes = std::size_t(1) << 20;
};

/** The owner's instruments; a null one is not counted. */
struct FrameServerMetrics
{
    obs::Counter *connectionsAccepted = nullptr;
    obs::Counter *connectionsDropped = nullptr;
    obs::Counter *framesServed = nullptr;
    obs::Counter *badFrames = nullptr; ///< oversized frames
    obs::Counter *bytesIn = nullptr;
    obs::Counter *bytesOut = nullptr;
    obs::Counter *pings = nullptr;
    obs::Counter *stats = nullptr;
};

/**
 * Answer a request frame of type @p Req with a @p Resp: @p answer's
 * result when the frame parses, else an INVALID_ARGUMENT @p Resp
 * carrying the parse error.
 */
template <typename Req, typename Resp, typename Answer>
std::string
answerFrame(std::string_view frame, Answer &&answer)
{
    std::string error;
    Resp resp;
    if (const auto req = tryReadFrame<Req>(frame, &error)) {
        resp = answer(*req);
    } else {
        resp.code = errcode::invalidArgument;
        resp.error = error;
    }
    return frameText(resp);
}

class FrameServer
{
  public:
    /** Answer one frame: the bytes to write back. */
    using Handler = std::function<std::string(std::string_view frame)>;

    /** @param fallback answers every frame no verb claims */
    FrameServer(FrameServerConfig cfg, FrameServerMetrics metrics,
                Handler fallback);

    /** Stops and joins everything. */
    ~FrameServer();

    FrameServer(const FrameServer &) = delete;
    FrameServer &operator=(const FrameServer &) = delete;

    /**
     * Answer frames tagged @p tag with @p handler, counting each on
     * @p counter too.  Call before start().
     */
    void addVerb(std::string_view tag, Handler handler,
                 obs::Counter *counter = nullptr);

    /**
     * Bind and listen, run @p before_accept, then spawn the acceptor
     * and handlers.
     *
     * A stopped server can be started again: the second start()
     * rebinds the port the first one landed on (even when cfg.port
     * was 0), so a bounced backend comes back on the address its
     * cluster router knows.  Counters survive the bounce.
     *
     * @return true on success; false with *error set otherwise
     */
    bool start(std::string *error,
               const std::function<void()> &before_accept = {});

    /**
     * Stop accepting, shut every connection down, join the threads;
     * idempotent, and the server may be start()ed again afterwards.
     * @return true when this call stopped a running server
     */
    bool stop();

    /** The port actually bound (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** Connections accepted. */
    std::uint64_t connectionsAccepted() const
    {
        return connections_.load(std::memory_order_relaxed);
    }

    /**
     * accept() failures that triggered the backoff path (EMFILE and
     * friends) — each one a client turned away without a response.
     */
    std::uint64_t connectionsDropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Frames answered (every verb, valid and malformed). */
    std::uint64_t framesServed() const
    {
        return frames_.load(std::memory_order_relaxed);
    }

  private:
    struct Verb
    {
        std::string tag;
        Handler handler;
        obs::Counter *counter;
    };

    void acceptLoop();
    void handlerLoop();
    void serve(int fd);

    /** Count one answered frame, then write it; false on a dead peer. */
    bool answer(int fd, const std::string &text, obs::Counter *verb);

    const FrameServerConfig cfg_;
    const FrameServerMetrics metrics_;
    std::vector<Verb> verbs_;
    Handler fallback_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    bool started_ = false;

    std::mutex conn_mutex_;
    std::condition_variable conn_cv_;
    std::deque<int> conn_queue_;

    /**
     * Fds currently owned by a handler, so stop() can shutdown(2)
     * them and unblock handlers parked in a read on an idle
     * connection.  Guarded by conn_mutex_.
     */
    std::unordered_set<int> active_fds_;

    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> frames_{0};

    std::thread acceptor_;
    std::vector<std::thread> handlers_;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_FRAME_SERVER_HH
