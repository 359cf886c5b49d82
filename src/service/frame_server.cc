#include "service/frame_server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/flight_recorder.hh"
#include "service/socket_util.hh"
#include "support/logging.hh"

namespace jitsched {

namespace {

void
count([[maybe_unused]] obs::Counter *counter,
      [[maybe_unused]] std::uint64_t n = 1)
{
    JITSCHED_OBS(if (counter != nullptr) counter->add(n));
}

/**
 * Half-close and briefly drain the peer's leftovers so close() ends
 * in FIN, not an RST that could discard an error frame before the
 * peer reads it.  Both the drained volume and the poll waits are
 * bounded — a peer that keeps streaming cannot pin the handler.
 */
void
drainAfterError(int fd)
{
    ::shutdown(fd, SHUT_WR);
    char discard[4096];
    pollfd pfd{fd, POLLIN, 0};
    std::size_t drained = 0;
    while (drained < (std::size_t(64) << 10)) {
        if (::poll(&pfd, 1, 100) <= 0)
            break;
        const ssize_t n = ::read(fd, discard, sizeof(discard));
        if (n <= 0)
            break;
        drained += static_cast<std::size_t>(n);
    }
}

} // anonymous namespace

FrameServer::FrameServer(FrameServerConfig cfg,
                         FrameServerMetrics metrics, Handler fallback)
    : cfg_(std::move(cfg)), metrics_(metrics),
      fallback_(std::move(fallback))
{
    // Any panic from here on dumps the last-N-requests ring.
    obs::installPanicDump();

    addVerb(
        tag::ping,
        [](std::string_view frame) {
            return answerFrame<PingRequest, PongResponse>(
                frame,
                [](const PingRequest &req) {
                    return makePongResponse(req.id);
                });
        },
        metrics_.pings);
    addVerb(
        tag::stats,
        [](std::string_view frame) {
            return answerFrame<StatsRequest, StatsResponse>(
                frame, [](const StatsRequest &req) {
                    const obs::MetricsRegistry &reg =
                        obs::MetricsRegistry::global();
                    return makeStatsResponse(
                        req.id,
                        req.prom ? reg.snapshotProm()
                                 : reg.snapshotText(),
                        req.prom);
                });
        },
        metrics_.stats);
    addVerb(tag::dump, [](std::string_view frame) {
        return answerFrame<DumpRequest, DumpResponse>(
            frame, [](const DumpRequest &req) {
                return makeDumpResponse(
                    req.id, obs::FlightRecorder::global().snapshot());
            });
    });
}

FrameServer::~FrameServer()
{
    stop();
}

void
FrameServer::addVerb(std::string_view tag, Handler handler,
                     obs::Counter *counter)
{
    verbs_.push_back({std::string(tag), std::move(handler), counter});
}

bool
FrameServer::start(std::string *error,
                   const std::function<void()> &before_accept)
{
    if (started_) {
        if (error != nullptr)
            *error = cfg_.name + " is already running";
        return false;
    }
    // Restarts stick to the first bind's port: an ephemeral-port
    // server that bounces must come back where its clients (and the
    // cluster router's backend table) expect it.
    const std::uint16_t bind_port = port_ != 0 ? port_ : cfg_.port;
    listen_fd_ = listenTcp(cfg_.bindAddress, bind_port,
                           cfg_.acceptBacklog, error);
    if (listen_fd_ < 0)
        return false;
    port_ = boundPort(listen_fd_);

    if (before_accept)
        before_accept();
    stopping_.store(false, std::memory_order_release);
    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    const std::size_t handlers =
        cfg_.handlerThreads > 0 ? cfg_.handlerThreads : 1;
    handlers_.reserve(handlers);
    for (std::size_t i = 0; i < handlers; ++i)
        handlers_.emplace_back([this] { handlerLoop(); });
    return true;
}

bool
FrameServer::stop()
{
    if (!started_)
        return false;
    if (stopping_.exchange(true, std::memory_order_acq_rel))
        return false;

    // Closing the listening socket kicks accept() out of its wait.
    ::shutdown(listen_fd_, SHUT_RDWR);
    closeFd(listen_fd_);
    if (acceptor_.joinable())
        acceptor_.join();

    // Handlers may be blocked in read(2) on an idle connection;
    // shutting the sockets down turns those reads into EOF so join
    // cannot hang on a client that simply never hangs up.
    {
        std::lock_guard<std::mutex> lk(conn_mutex_);
        for (const int fd : active_fds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    conn_cv_.notify_all();
    for (std::thread &t : handlers_)
        if (t.joinable())
            t.join();

    // Connections still queued but never picked up by a handler.
    for (const int fd : conn_queue_)
        closeFd(fd);
    conn_queue_.clear();

    // Leave the object restartable: everything joined and closed,
    // port_ remembered so the next start() rebinds it.
    handlers_.clear();
    listen_fd_ = -1;
    started_ = false;
    return true;
}

void
FrameServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_acquire))
                return;
            // Transient accept failures (EINTR, aborted handshakes)
            // must not kill the server; persistent ones (EMFILE,
            // ENFILE) must not busy-spin it at 100% CPU either.
            // Every backoff is a client the server failed to serve:
            // count it, and log the first plus every 100th so a
            // persistent EMFILE is visible without flooding the log
            // at the backoff rate.
            if (errno != EINTR && errno != ECONNABORTED) {
                const int err = errno;
                const std::uint64_t n =
                    dropped_.fetch_add(1, std::memory_order_relaxed) +
                    1;
                count(metrics_.connectionsDropped);
                if (n == 1 || n % 100 == 0)
                    warn(cfg_.name, ": accept() failed (errno ", err,
                         "), backing off — ", n,
                         " connection(s) dropped since start");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
            continue;
        }
        connections_.fetch_add(1, std::memory_order_relaxed);
        count(metrics_.connectionsAccepted);
        {
            std::lock_guard<std::mutex> lk(conn_mutex_);
            conn_queue_.push_back(fd);
        }
        conn_cv_.notify_one();
    }
}

void
FrameServer::handlerLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lk(conn_mutex_);
            conn_cv_.wait(lk, [&] {
                return stopping_.load(std::memory_order_acquire) ||
                       !conn_queue_.empty();
            });
            // On stop, leave even with connections still queued —
            // stop() closes them.  Registering the fd under the same
            // lock as the stopping_ check guarantees stop() either
            // sees it in active_fds_ (and shuts it down) or we never
            // start serving it.
            if (stopping_.load(std::memory_order_acquire))
                return;
            fd = conn_queue_.front();
            conn_queue_.pop_front();
            active_fds_.insert(fd);
        }
        serve(fd);
        {
            std::lock_guard<std::mutex> lk(conn_mutex_);
            active_fds_.erase(fd);
        }
        closeFd(fd);
    }
}

void
FrameServer::serve(int fd)
{
    LineReader reader(fd, cfg_.maxFrameBytes);
    for (;;) {
        // One frame: every line up to and including `end`.  Framing
        // lives here, not in the parser, so a malformed frame body
        // cannot desynchronize the connection.
        const auto frame = reader.readFrame(cfg_.maxFrameBytes);
        count(metrics_.bytesIn, reader.frameBytes());
        if (!frame && reader.overflowed()) {
            count(metrics_.badFrames);
            answer(fd,
                   responseText(makeErrorResponse(
                       0, errcode::invalidArgument,
                       "request frame exceeds " +
                           std::to_string(cfg_.maxFrameBytes) +
                           " bytes")),
                   nullptr);
            drainAfterError(fd);
            return;
        }
        if (!frame)
            return; // EOF (clean close or truncated frame)
        if (stopping_.load(std::memory_order_acquire))
            return;

        const std::string_view frame_tag = frameTag(*frame);
        const auto verb =
            std::find_if(verbs_.begin(), verbs_.end(),
                         [&](const Verb &v) { return v.tag == frame_tag; });
        const bool own = verb != verbs_.end();
        const std::string text =
            own ? verb->handler(*frame) : fallback_(*frame);
        if (!answer(fd, text, own ? verb->counter : nullptr))
            return; // peer went away
    }
}

bool
FrameServer::answer(int fd, const std::string &text, obs::Counter *verb)
{
    frames_.fetch_add(1, std::memory_order_relaxed);
    count(metrics_.framesServed);
    count(verb);
    count(metrics_.bytesOut, text.size());
    return writeAll(fd, text);
}

} // namespace jitsched
