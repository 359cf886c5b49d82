#include "service/server.hh"

#include <chrono>
#include <string>
#include <utility>

#include <unistd.h>

#include "obs/flight_recorder.hh"
#include "obs/instruments.hh"
#include "obs/span.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

namespace jitsched {

namespace {

FrameServerConfig
frontEndConfig(const ServerConfig &cfg)
{
    return {.name = "jitschedd",
            .bindAddress = cfg.bindAddress,
            .port = cfg.port,
            .acceptBacklog = cfg.acceptBacklog,
            .handlerThreads = cfg.handlerThreads,
            .maxFrameBytes = cfg.maxFrameBytes};
}

/** The daemon's service.* instruments. */
FrameServerMetrics
frontEndMetrics()
{
    FrameServerMetrics m;
    JITSCHED_OBS({
        obs::ServiceMetrics &s = obs::ServiceMetrics::get();
        m.connectionsAccepted = &s.connectionsAccepted;
        m.connectionsDropped = &s.connectionsDropped;
        m.framesServed = &s.framesServed;
        m.bytesIn = &s.bytesIn;
        m.bytesOut = &s.bytesOut;
        m.pings = &s.pingRequests;
        m.stats = &s.statsRequests;
    });
    return m;
}

/**
 * Admit @p req and solve it on the calling handler thread.  Always
 * answers: with the engine's response, or with DEADLINE_EXCEEDED
 * when the request's deadline is already spent at admission.
 */
ServiceResponse
serveAdmitted(ServiceEngine &engine, const ServiceRequest &req)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point admitted = Clock::now();
    JITSCHED_OBS({
        obs::ServiceMetrics &m = obs::ServiceMetrics::get();
        m.requestsAccepted.add();
        m.queueDepth.add(1);
    });

    ServiceResponse resp;
    const bool expired =
        req.options.deadlineMs >= 0 &&
        Clock::now() >=
            admitted + std::chrono::milliseconds(req.options.deadlineMs);
    if (expired) {
        JITSCHED_OBS(obs::ServiceMetrics::get().requestsExpired.add());
        resp = makeErrorResponse(
            req.id, errcode::deadlineExceeded,
            "request waited past its " +
                std::to_string(req.options.deadlineMs) +
                " ms deadline");
    } else {
        // The admission-wait span covers admission -> solve start;
        // the solve span nests inside engine.serve().
        obs::SpanCollector::global().recordBetween(
            req.traceId, "service.admission_wait", admitted,
            Clock::now());
        resp = engine.serve(req);
        JITSCHED_OBS(
            obs::ServiceMetrics::get().requestsProcessed.add());
    }

    // Error answers come from makeErrorResponse, which never saw the
    // request's trace id.  queue-ns is the admission time: everything
    // since admission that was not the solve itself.
    resp.stats.traceId = req.traceId;
    resp.stats.queueNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - admitted)
            .count() -
        resp.stats.solveNs;
    if (resp.stats.queueNs < 0)
        resp.stats.queueNs = 0;
    JITSCHED_OBS({
        obs::ServiceMetrics &m = obs::ServiceMetrics::get();
        m.queueWaitNs.observe(resp.stats.queueNs);
        m.queueDepth.add(-1);
    });
    return resp;
}

} // anonymous namespace

ServiceServer::ServiceServer(ServiceEngine &engine, ServerConfig cfg)
    : engine_(engine), cfg_(std::move(cfg)),
      rcache_(ResultCacheConfig{cfg_.resultCacheBytes}),
      front_(frontEndConfig(cfg_), frontEndMetrics(),
             [this](std::string_view frame) {
                 return answerRequest(frame);
             })
{
    // SNAPSHOT saves the result cache inline like STATS/DUMP, off
    // the solve path.
    front_.addVerb(tag::snapshot, [this](std::string_view frame) {
        return answerFrame<SnapshotRequest, SnapshotResponse>(
            frame, [this](const SnapshotRequest &req) {
                return saveSnapshot(req.id);
            });
    });
}

ServiceServer::~ServiceServer()
{
    stop();
}

bool
ServiceServer::start(std::string *error)
{
    return front_.start(error, [this] {
        // Warm restart: load the result-cache snapshot before the
        // first connection is accepted.  Strictly validated — a
        // corrupt, truncated, or version-skewed file is rejected
        // wholesale and the cache starts cold (a warning, never a
        // refusal to start: a bad snapshot must not keep a backend
        // down).
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
    });
}

void
ServiceServer::stop()
{
    if (!front_.stop())
        return;

    // Clean-shutdown warm-state save: the handlers, and with them
    // every solve, have joined, so the cache is quiescent.
    if (rcache_.enabled() && !cfg_.snapshotPath.empty()) {
        std::string snap_error;
        if (!rcache_.saveSnapshot(cfg_.snapshotPath, &snap_error))
            warn("jitschedd: result-cache snapshot not saved — ",
                 snap_error);
    }
}

SnapshotResponse
ServiceServer::saveSnapshot(std::uint64_t id)
{
    SnapshotResponse snap;
    snap.id = id;
    if (!rcache_.enabled()) {
        snap.code = errcode::invalidArgument;
        snap.error = "result cache is disabled "
                     "(JITSCHED_RESULT_CACHE_MB / "
                     "--result-cache-mb is 0)";
        return snap;
    }
    if (cfg_.snapshotPath.empty()) {
        snap.code = errcode::invalidArgument;
        snap.error = "no snapshot file configured (--snapshot-file)";
        return snap;
    }
    std::string save_error;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    if (rcache_.saveSnapshot(cfg_.snapshotPath, &save_error, &entries,
                             &bytes))
        return makeSnapshotResponse(id, entries, bytes);
    snap.code = errcode::unavailable;
    snap.error = save_error;
    return snap;
}

std::string
ServiceServer::answerRequest(std::string_view frame)
{
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

        // Result-cache fast path, probed before admission: a
        // known answer skips the deadline check and the solve.
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
                    // The body opens `status error <CODE>`.
                    Tokenizer bt(body);
                    bt.next();
                    bt.next();
                    status = bt.next();
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
            resp = serveAdmitted(engine_, *req);
            // The leader publishes unconditionally — even an
            // expired answer releases the followers (serveAdmitted
            // answers every request, so no flight is ever
            // abandoned).
            if (probe.kind == ResultCache::Probe::Kind::Leader)
                rcache_.publish(probe, resp.ok,
                                responseBodyText(resp));
        }
    }
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
    return resp_text;
}

} // namespace jitsched
