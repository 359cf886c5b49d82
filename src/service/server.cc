#include "service/server.hh"

#include <cerrno>
#include <chrono>
#include <sstream>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/flight_recorder.hh"
#include "obs/instruments.hh"
#include "obs/span.hh"
#include "service/socket_util.hh"
#include "support/logging.hh"

namespace jitsched {

ServiceServer::ServiceServer(ServiceEngine &engine, ServerConfig cfg)
    : engine_(engine), cfg_(std::move(cfg)),
      queue_(engine_, cfg_.admission),
      rcache_(ResultCacheConfig{cfg_.resultCacheBytes})
{
    // Any panic from here on dumps the last-N-requests ring.
    obs::installPanicDump();
}

ServiceServer::~ServiceServer()
{
    stop();
}

bool
ServiceServer::start(std::string *error)
{
    if (started_) {
        if (error != nullptr)
            *error = "server is already running";
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

    // Warm restart: load the result-cache snapshot before the first
    // connection is accepted.  Strictly validated — a corrupt,
    // truncated, or version-skewed file is rejected wholesale and the
    // cache starts cold (a warning, never a refusal to start: a bad
    // snapshot must not keep a backend down).
    if (rcache_.enabled() && !cfg_.snapshotPath.empty() &&
        ::access(cfg_.snapshotPath.c_str(), F_OK) == 0) {
        std::string snap_error;
        std::size_t loaded = 0;
        if (rcache_.loadSnapshot(cfg_.snapshotPath, &snap_error,
                                 &loaded))
            inform("jitschedd: result cache warmed with ", loaded,
                   " snapshot entr", loaded == 1 ? "y" : "ies",
                   " from ", cfg_.snapshotPath);
        else
            warn("jitschedd: starting cold — ", snap_error);
    }

    queue_.restart();
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

void
ServiceServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_acquire))
                return;
            // Transient accept failures (EINTR, aborted handshakes)
            // must not kill the daemon; persistent ones (EMFILE,
            // ENFILE) must not busy-spin it at 100% CPU either.
            // Every backoff is a client the daemon failed to serve:
            // count it, and log the first plus every 100th so a
            // persistent EMFILE is visible without flooding the log
            // at the backoff rate.
            if (errno != EINTR && errno != ECONNABORTED) {
                const int err = errno;
                const std::uint64_t n =
                    dropped_.fetch_add(1, std::memory_order_relaxed) +
                    1;
                JITSCHED_OBS(obs::ServiceMetrics::get()
                                 .connectionsDropped.add());
                if (n == 1 || n % 100 == 0)
                    warn("jitschedd: accept() failed (errno ", err,
                         "), backing off — ", n,
                         " connection(s) dropped since start");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
            continue;
        }
        connections_.fetch_add(1, std::memory_order_relaxed);
        JITSCHED_OBS(
            obs::ServiceMetrics::get().connectionsAccepted.add());
        {
            std::lock_guard<std::mutex> lk(conn_mutex_);
            conn_queue_.push_back(fd);
        }
        conn_cv_.notify_one();
    }
}

void
ServiceServer::handlerLoop()
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
        handleConnection(fd);
        {
            std::lock_guard<std::mutex> lk(conn_mutex_);
            active_fds_.erase(fd);
        }
        closeFd(fd);
    }
}

void
ServiceServer::handleConnection(int fd)
{
    LineReader reader(fd, cfg_.maxFrameBytes);
    for (;;) {
        // One frame: every line up to and including `end`.  Framing
        // lives here, not in the parser, so a malformed frame body
        // cannot desynchronize the connection.
        auto next = reader.readFrame(cfg_.maxFrameBytes);
        JITSCHED_OBS(obs::ServiceMetrics::get().bytesIn.add(
            reader.frameBytes()));
        if (!next && reader.overflowed()) {
            // No `end` in sight within the budget: resynchronizing
            // would mean reading an unbounded amount, so answer a
            // structured error and drop the connection.
            frames_.fetch_add(1, std::memory_order_relaxed);
            JITSCHED_OBS(
                obs::ServiceMetrics::get().framesServed.add());
            const std::string err_text =
                responseText(makeErrorResponse(
                    0, errcode::invalidArgument,
                    "request frame exceeds " +
                        std::to_string(cfg_.maxFrameBytes) +
                        " bytes"));
            JITSCHED_OBS(obs::ServiceMetrics::get().bytesOut.add(
                err_text.size()));
            writeAll(fd, err_text);
            // Half-close and briefly drain the peer's leftovers so
            // close() ends in FIN, not an RST that could discard the
            // error before the peer reads it.  Both the drained
            // volume and the poll waits are bounded — a peer that
            // keeps streaming cannot pin the handler.
            ::shutdown(fd, SHUT_WR);
            char discard[4096];
            pollfd pfd{fd, POLLIN, 0};
            std::size_t drained = 0;
            while (drained < (std::size_t(64) << 10)) {
                if (::poll(&pfd, 1, 100) <= 0)
                    break;
                const ssize_t n =
                    ::read(fd, discard, sizeof(discard));
                if (n <= 0)
                    break;
                drained += static_cast<std::size_t>(n);
            }
            return;
        }
        if (!next)
            return; // EOF (clean close or truncated frame)
        const std::string frame = *std::move(next);

        if (stopping_.load(std::memory_order_acquire))
            return;

        // PING frames are answered right here on the handler, like
        // STATS: a health probe must keep answering while the
        // admission queue is shedding load — a loaded backend is
        // still a live backend, and the cluster router must not
        // eject it for being busy.
        if (isPingRequestFrame(frame)) {
            std::istringstream pis(frame);
            std::string ping_error;
            PongResponse pong;
            if (const auto preq =
                    tryReadPingRequest(pis, &ping_error)) {
                pong = makePongResponse(preq->id);
            } else {
                pong.code = errcode::invalidArgument;
                pong.error = ping_error;
            }
            frames_.fetch_add(1, std::memory_order_relaxed);
            JITSCHED_OBS({
                obs::ServiceMetrics &m = obs::ServiceMetrics::get();
                m.framesServed.add();
                m.pingRequests.add();
            });
            const std::string pong_text = pongResponseText(pong);
            JITSCHED_OBS(obs::ServiceMetrics::get().bytesOut.add(
                pong_text.size()));
            if (!writeAll(fd, pong_text))
                return;
            continue;
        }

        // STATS frames are answered right here on the handler,
        // bypassing the admission queue: a scrape must keep working
        // while the queue is shedding load — that is when operators
        // look at it.
        if (isStatsRequestFrame(frame)) {
            std::istringstream sis(frame);
            std::string stats_error;
            StatsResponse sresp;
            if (const auto sreq =
                    tryReadStatsRequest(sis, &stats_error)) {
                sresp = makeStatsResponse(
                    sreq->id,
                    sreq->prom
                        ? obs::MetricsRegistry::global()
                              .snapshotProm()
                        : obs::MetricsRegistry::global()
                              .snapshotText(),
                    sreq->prom);
            } else {
                sresp.code = errcode::invalidArgument;
                sresp.error = stats_error;
            }
            frames_.fetch_add(1, std::memory_order_relaxed);
            JITSCHED_OBS({
                obs::ServiceMetrics &m = obs::ServiceMetrics::get();
                m.framesServed.add();
                m.statsRequests.add();
            });
            const std::string stats_text = statsResponseText(sresp);
            JITSCHED_OBS(obs::ServiceMetrics::get().bytesOut.add(
                stats_text.size()));
            if (!writeAll(fd, stats_text))
                return;
            continue;
        }

        // DUMP frames scrape the in-memory flight recorder, inline
        // like STATS: the recorder exists for exactly the moments
        // when the admission queue is the problem.
        if (isDumpRequestFrame(frame)) {
            std::istringstream dis(frame);
            std::string dump_error;
            DumpResponse dresp;
            if (const auto dreq =
                    tryReadDumpRequest(dis, &dump_error)) {
                dresp = makeDumpResponse(
                    dreq->id,
                    obs::FlightRecorder::global().snapshot());
            } else {
                dresp.code = errcode::invalidArgument;
                dresp.error = dump_error;
            }
            frames_.fetch_add(1, std::memory_order_relaxed);
            JITSCHED_OBS(
                obs::ServiceMetrics::get().framesServed.add());
            const std::string dump_text = dumpResponseText(dresp);
            JITSCHED_OBS(obs::ServiceMetrics::get().bytesOut.add(
                dump_text.size()));
            if (!writeAll(fd, dump_text))
                return;
            continue;
        }

        // SNAPSHOT frames save the result cache to its configured
        // file, inline like STATS/DUMP — a warm-state save must work
        // while the admission queue is shedding.
        if (isSnapshotRequestFrame(frame)) {
            std::istringstream ss(frame);
            std::string snap_parse_error;
            SnapshotResponse snap;
            if (const auto sreq =
                    tryReadSnapshotRequest(ss, &snap_parse_error)) {
                snap.id = sreq->id;
                if (!rcache_.enabled()) {
                    snap.code = errcode::invalidArgument;
                    snap.error = "result cache is disabled "
                                 "(JITSCHED_RESULT_CACHE_MB / "
                                 "--result-cache-mb is 0)";
                } else if (cfg_.snapshotPath.empty()) {
                    snap.code = errcode::invalidArgument;
                    snap.error = "no snapshot file configured "
                                 "(--snapshot-file)";
                } else {
                    std::string save_error;
                    std::size_t entries = 0;
                    std::size_t bytes = 0;
                    if (rcache_.saveSnapshot(cfg_.snapshotPath,
                                             &save_error, &entries,
                                             &bytes))
                        snap = makeSnapshotResponse(sreq->id, entries,
                                                    bytes);
                    else {
                        snap.code = errcode::unavailable;
                        snap.error = save_error;
                    }
                }
            } else {
                snap.code = errcode::invalidArgument;
                snap.error = snap_parse_error;
            }
            frames_.fetch_add(1, std::memory_order_relaxed);
            JITSCHED_OBS(
                obs::ServiceMetrics::get().framesServed.add());
            const std::string snap_text = snapshotResponseText(snap);
            JITSCHED_OBS(obs::ServiceMetrics::get().bytesOut.add(
                snap_text.size()));
            if (!writeAll(fd, snap_text))
                return;
            continue;
        }

        std::string parse_error;
        auto req = tryReadRequest(frame, &parse_error);

        ServiceResponse resp;
        std::string policy;
        std::string resp_text;  ///< the frame actually written
        std::string status;     ///< flight-record status
        ServiceStats stats;     ///< flight-record timing source
        std::uint64_t request_id = 0;
        bool from_cache = false; ///< hit or collapsed follower
        bool answered = false;   ///< resp already holds the answer
        if (!req) {
            // The id may not even have parsed; 0 is the documented
            // "unattributable" id.
            resp = makeErrorResponse(0, errcode::invalidArgument,
                                     parse_error);
            answered = true;
        } else {
            // First contact mints the trace id when the client (or
            // router) did not — every request through the server is
            // traceable.
            if (req->traceId == 0)
                req->traceId = obs::mintTraceId();
            policy = req->policy;
            request_id = req->id;

            // Result-cache fast path, probed before the admission
            // queue: a shed-under-load daemon keeps serving the
            // answers it already knows.
            ResultCache::Probe probe;
            if (rcache_.enabled()) {
                const auto c0 = std::chrono::steady_clock::now();
                bool cached_ok = false;
                std::string body;
                {
                    obs::ScopedSpan span(req->traceId,
                                         "service.result_cache");
                    probe = rcache_.begin(*req);
                }
                switch (probe.kind) {
                case ResultCache::Probe::Kind::Hit:
                    cached_ok = true;
                    body = std::move(probe.body);
                    stats.resultCache = 1;
                    break;
                case ResultCache::Probe::Kind::Follower: {
                    // Collapse onto the identical in-flight solve,
                    // honoring this waiter's own deadline.
                    std::optional<
                        std::chrono::steady_clock::time_point>
                        deadline;
                    if (req->options.deadlineMs >= 0)
                        deadline =
                            c0 + std::chrono::milliseconds(
                                     req->options.deadlineMs);
                    if (rcache_.waitFollower(probe, deadline,
                                             &cached_ok, &body) ==
                        ResultCache::WaitOutcome::Ready) {
                        stats.resultCache = 2;
                    } else {
                        resp = makeErrorResponse(
                            req->id, errcode::deadlineExceeded,
                            "deadline expired while waiting on an "
                            "identical in-flight request");
                        resp.stats.traceId = req->traceId;
                        answered = true;
                    }
                    break;
                }
                case ResultCache::Probe::Kind::Leader:
                case ResultCache::Probe::Kind::Bypass:
                    break;
                }
                if (stats.resultCache != 0) {
                    from_cache = true;
                    stats.traceId = req->traceId;
                    stats.solveNs =
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - c0)
                            .count();
                    // The stored body's own status line is the
                    // record's status: only ok results enter the
                    // store, but a follower can be fed an error.
                    status = "ok";
                    if (!cached_ok) {
                        std::istringstream bs(body);
                        std::string kw, st;
                        bs >> kw >> st >> status;
                        if (status.empty())
                            status = errcode::unavailable;
                    }
                    obs::ScopedSpan span(req->traceId,
                                         "service.serialize");
                    resp_text = cachedResponseText(req->id, body,
                                                   stats);
                }
            }

            if (!from_cache && !answered) {
                resp = queue_.submit(*std::move(req)).get();
                // The leader publishes unconditionally — even a
                // shed/expired answer releases the followers (the
                // admission queue answers every submit, so no flight
                // is ever abandoned).
                if (probe.kind == ResultCache::Probe::Kind::Leader)
                    rcache_.publish(probe, resp.ok,
                                    responseBodyText(resp));
            }
        }
        frames_.fetch_add(1, std::memory_order_relaxed);
        JITSCHED_OBS(obs::ServiceMetrics::get().framesServed.add());
        if (!from_cache) {
            {
                obs::ScopedSpan span(resp.stats.traceId,
                                     "service.serialize");
                resp_text = responseText(resp);
            }
            stats = resp.stats;
            status = resp.ok ? "ok" : resp.code;
            request_id = resp.id;
        }
        // One slot write per completed request, always on.
        obs::FlightRecord record;
        record.traceId = stats.traceId;
        record.requestId = request_id;
        record.policy = policy;
        record.status = status;
        record.queueNs = stats.queueNs;
        record.solveNs = stats.solveNs;
        record.bytes = resp_text.size();
        record.hops = 0;
        record.cached = from_cache;
        obs::FlightRecorder::global().record(std::move(record));
        obs::noteRequestLatency(stats.traceId,
                                stats.queueNs + stats.solveNs,
                                "service");
        JITSCHED_OBS(obs::ServiceMetrics::get().bytesOut.add(
            resp_text.size()));
        if (!writeAll(fd, resp_text))
            return; // peer went away
    }
}

void
ServiceServer::stop()
{
    if (!started_)
        return;
    if (stopping_.exchange(true, std::memory_order_acq_rel))
        return;

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

    queue_.stop();

    // Clean-shutdown warm-state save: handlers and the admission
    // worker have joined, so the cache is quiescent.
    if (rcache_.enabled() && !cfg_.snapshotPath.empty()) {
        std::string snap_error;
        if (!rcache_.saveSnapshot(cfg_.snapshotPath, &snap_error))
            warn("jitschedd: result-cache snapshot not saved — ",
                 snap_error);
    }

    // Leave the object restartable: everything joined and closed,
    // port_ remembered so the next start() rebinds it.
    handlers_.clear();
    listen_fd_ = -1;
    started_ = false;
}

} // namespace jitsched
