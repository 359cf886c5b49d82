#include "cluster/router.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <thread>
#include <utility>

#include <poll.h>

#include "obs/flight_recorder.hh"
#include "obs/instruments.hh"
#include "obs/span.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace jitsched {
namespace cluster {

namespace {

using SteadyClock = std::chrono::steady_clock;

/**
 * True when a relayed response frame's stats line says the backend
 * answered from its result cache (store hit or singleflight
 * collapse).  The marker token is emitted only when nonzero, so its
 * mere presence on the stats line is the signal; the scan is pinned
 * to the line starting with `stats ` because error lines may carry
 * arbitrary message text.
 */
[[maybe_unused]] bool
frameServedFromCache(const std::string &frame)
{
    std::size_t pos = 0;
    while (pos < frame.size()) {
        std::size_t eol = frame.find('\n', pos);
        if (eol == std::string::npos)
            eol = frame.size();
        if (frame.compare(pos, 6, "stats ") == 0) {
            const std::size_t hit =
                frame.find(" result-cache ", pos);
            return hit != std::string::npos && hit < eol;
        }
        pos = eol + 1;
    }
    return false;
}

/** Milliseconds until @p deadline, clamped at 0. */
int
msUntil(SteadyClock::time_point deadline)
{
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - SteadyClock::now())
            .count();
    if (left <= 0)
        return 0;
    if (left > INT_MAX)
        return INT_MAX;
    return static_cast<int>(left);
}

FrameServerConfig
frontEndConfig(const RouterConfig &cfg)
{
    return {.name = "jitsched-router",
            .bindAddress = cfg.bindAddress,
            .port = cfg.port,
            .acceptBacklog = cfg.acceptBacklog,
            .handlerThreads = cfg.handlerThreads,
            .maxFrameBytes = cfg.maxFrameBytes};
}

/** The router's cluster.* instruments. */
FrameServerMetrics
frontEndMetrics()
{
    FrameServerMetrics m;
    JITSCHED_OBS({
        obs::ClusterMetrics &c = obs::ClusterMetrics::get();
        m.connectionsAccepted = &c.connectionsAccepted;
        m.framesServed = &c.framesServed;
        m.badFrames = &c.badFrames;
        m.pings = &c.pingsServed;
        m.stats = &c.statsServed;
    });
    return m;
}

} // anonymous namespace

Router::Router(std::vector<BackendEndpoint> backends,
               RouterConfig cfg)
    : cfg_(std::move(cfg)), ring_(backends.size(), cfg_.vnodes),
      pool_(std::move(backends), cfg_.pool),
      front_(frontEndConfig(cfg_), frontEndMetrics(),
             [this](std::string_view frame) {
                 return answerRequest(frame);
             })
{
}

Router::~Router() { stop(); }

bool
Router::start(std::string *error)
{
    return front_.start(error, [this] { pool_.start(); });
}

void
Router::stop()
{
    if (front_.stop())
        pool_.stop();
}

std::string
Router::answerRequest(std::string_view frame)
{
    std::string parse_error;
    auto req = tryReadRequest(frame, &parse_error);
    if (req)
        return route(*std::move(req));
    // Same parser, same error string, same builder as the daemon: a
    // malformed frame's answer is byte-identical whether it hits a
    // router or a backend.
    JITSCHED_OBS(obs::ClusterMetrics::get().badFrames.add());
    return responseText(
        makeErrorResponse(0, errcode::invalidArgument, parse_error));
}

std::vector<std::size_t>
Router::chainFor(std::uint64_t fingerprint)
{
    if (cfg_.mode == RoutingMode::Affinity)
        return ring_.ownerChain(fingerprint);
    // Round-robin: rotate the first choice, keep the rest in index
    // order — every request still has a full failover chain.
    std::vector<std::size_t> chain;
    chain.reserve(pool_.size());
    const std::size_t start =
        rr_next_.fetch_add(1, std::memory_order_relaxed) %
        pool_.size();
    for (std::size_t i = 0; i < pool_.size(); ++i)
        chain.push_back((start + i) % pool_.size());
    return chain;
}

std::optional<std::size_t>
Router::pickBackend(const std::vector<std::size_t> &chain,
                    const std::vector<bool> &tried)
{
    for (const std::size_t b : chain) {
        if (!tried[b] && pool_.routable(b))
            return b;
    }
    return std::nullopt;
}

int
Router::backoffMs(int attempt)
{
    long long ms = cfg_.backoffBaseMs;
    for (int i = 0; i < attempt && ms < cfg_.backoffMaxMs; ++i)
        ms *= 2;
    ms = std::min<long long>(ms, cfg_.backoffMaxMs);
    if (ms <= 1)
        return static_cast<int>(ms);
    // Jitter into [ms/2, ms] so synchronized clients fan out.
    Rng rng = Rng::caseStream(
        cfg_.jitterSeed,
        jitter_case_.fetch_add(1, std::memory_order_relaxed));
    const long long half = ms / 2;
    return static_cast<int>(half +
                            static_cast<long long>(rng.nextBelow(
                                static_cast<std::uint64_t>(ms - half +
                                                           1))));
}

Router::Exchange
Router::tryExchange(std::size_t backend,
                    const std::string &canonical, int try_ms)
{
    Exchange result;
    // A pooled conn may have died while idle (backend bounce): an
    // instant EOF on a reused conn is retried on a fresh connection
    // without blaming the backend.  Bounded by the idle-stack depth.
    for (std::size_t i = 0; i <= cfg_.pool.maxIdleConns; ++i) {
        std::string error;
        std::unique_ptr<BackendConn> conn =
            pool_.acquire(backend, &error);
        if (conn == nullptr)
            return result; // acquire recorded the failure
        const bool reused = conn->reused();
        conn->setReadTimeout(try_ms);
        if (!conn->sendFrame(canonical)) {
            if (reused)
                continue; // stale; fresh conn next round
            pool_.recordResult(backend, false);
            return result;
        }
        std::optional<std::string> frame = conn->readFrame();
        if (!frame.has_value()) {
            if (reused && !conn->timedOut())
                continue; // stale; fresh conn next round
            result.timedOut = conn->timedOut();
            pool_.recordResult(backend, false);
            return result;
        }
        pool_.recordResult(backend, true);
        pool_.release(backend, std::move(conn), /*reusable=*/true);
        result.frame = *std::move(frame);
        result.ok = true;
        return result;
    }
    pool_.recordResult(backend, false);
    return result;
}

Router::Exchange
Router::hedgedExchange(std::size_t primary, std::size_t secondary,
                       const std::string &canonical, int try_ms)
{
    Exchange result;
    const auto deadline =
        SteadyClock::now() + std::chrono::milliseconds(try_ms);

    std::string error;
    std::unique_ptr<BackendConn> a = pool_.acquire(primary, &error);
    if (a == nullptr || !a->sendFrame(canonical)) {
        if (a != nullptr)
            pool_.recordResult(primary, false);
        // Primary unreachable: plain try on the secondary.
        result = tryExchange(secondary, canonical,
                             msUntil(deadline));
        return result;
    }

    // Give the owner hedgeDelayMs of silence before spending a
    // second backend's cache on this request.
    pollfd pa{a->fd(), POLLIN, 0};
    const int wait_ms =
        std::min(cfg_.hedgeDelayMs, msUntil(deadline));
    if (::poll(&pa, 1, wait_ms) > 0) {
        a->setReadTimeout(msUntil(deadline));
        std::optional<std::string> frame = a->readFrame();
        if (frame.has_value()) {
            pool_.recordResult(primary, true);
            pool_.release(primary, std::move(a), true);
            result.frame = *std::move(frame);
            result.ok = true;
            return result;
        }
        pool_.recordResult(primary, false);
        result = tryExchange(secondary, canonical,
                             msUntil(deadline));
        return result;
    }

    // Hedge fires.
    result.hedged = true;
    JITSCHED_OBS(obs::ClusterMetrics::get().requestsHedged.add());
    std::unique_ptr<BackendConn> b =
        pool_.acquire(secondary, &error);
    if (b != nullptr && !b->sendFrame(canonical)) {
        pool_.recordResult(secondary, false);
        b.reset();
    }
    if (b == nullptr) {
        // No second lane after all; keep waiting on the primary.
        a->setReadTimeout(msUntil(deadline));
        std::optional<std::string> frame = a->readFrame();
        if (frame.has_value()) {
            pool_.recordResult(primary, true);
            pool_.release(primary, std::move(a), true);
            result.frame = *std::move(frame);
            result.ok = true;
        } else {
            result.timedOut = a->timedOut();
            pool_.recordResult(primary, false);
        }
        return result;
    }

    // First lane to turn readable is read first.  If its frame comes
    // through, the other lane is closed mid-flight (its response is
    // a duplicate of a pure function's value anyway, and slow is not
    // down, so it is never recorded).  If it fails, the other lane
    // is still live and gets the time that is left.
    pollfd lanes[2] = {{a->fd(), POLLIN, 0}, {b->fd(), POLLIN, 0}};
    const int ready = ::poll(lanes, 2, msUntil(deadline));
    if (ready > 0) {
        // The hedge lane goes first only when it alone is readable.
        const bool hedge_first = !(lanes[0].revents & POLLIN) &&
                                 (lanes[1].revents & POLLIN);
        for (const bool hedge : {hedge_first, !hedge_first}) {
            std::unique_ptr<BackendConn> &conn = hedge ? b : a;
            const std::size_t backend = hedge ? secondary : primary;
            const int left_ms = msUntil(deadline);
            if (left_ms <= 0) {
                // A zero read timeout would mean "wait forever".
                result.timedOut = true;
                pool_.recordResult(backend, false);
                continue;
            }
            conn->setReadTimeout(left_ms);
            std::optional<std::string> frame = conn->readFrame();
            if (!frame.has_value()) {
                result.timedOut = conn->timedOut();
                pool_.recordResult(backend, false);
                continue;
            }
            pool_.recordResult(backend, true);
            pool_.release(backend, std::move(conn), true);
            result.frame = *std::move(frame);
            result.ok = true;
            result.timedOut = false;
            result.hedgeWon = hedge;
            if (hedge)
                JITSCHED_OBS(
                    obs::ClusterMetrics::get().hedgeWins.add());
            return result;
        }
        return result;
    }

    // Neither answered within the try budget.
    result.timedOut = true;
    pool_.recordResult(primary, false);
    pool_.recordResult(secondary, false);
    return result;
}

std::string
Router::route(ServiceRequest req)
{
    // First contact mints the trace id when the client did not; the
    // canonical frame below then carries it to every backend try, so
    // one id names the whole fan-out.  Fingerprinting ignores it, so
    // affinity is unchanged by tracing.
    if (req.traceId == 0)
        req.traceId = obs::mintTraceId();
    const std::uint64_t trace_id = req.traceId;
    const auto route_t0 = SteadyClock::now();

    // The canonical re-serialization parses to the same request the
    // client sent, so the backend's answer is the answer.
    const std::string canonical = requestText(req);
    const std::uint64_t fingerprint = requestFingerprint(req);
    const std::vector<std::size_t> chain = chainFor(fingerprint);

    const bool has_deadline = req.options.deadlineMs >= 0;
    const auto overall =
        SteadyClock::now() +
        std::chrono::milliseconds(
            has_deadline ? req.options.deadlineMs : 0);

    std::vector<bool> tried(pool_.size(), false);
    const int max_tries = std::max(cfg_.maxTries, 1);
    bool any_timeout = false;
    int attempts_made = 0;

    // Router-side flight record: one slot per routed request, written
    // whether the fan-out succeeded or not.  hops counts the tries
    // actually spent.
    auto recordFlight = [&](const std::string &status,
                            std::size_t bytes) {
        obs::FlightRecord fr;
        fr.traceId = trace_id;
        fr.requestId = req.id;
        fr.policy = req.policy;
        fr.status = status;
        fr.bytes = bytes;
        fr.hops = attempts_made;
        obs::FlightRecorder::global().record(fr);
        obs::noteRequestLatency(
            trace_id,
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                SteadyClock::now() - route_t0)
                .count(),
            "cluster");
    };

    for (int attempt = 0; attempt < max_tries; ++attempt) {
        if (has_deadline && msUntil(overall) <= 0)
            break;
        const std::optional<std::size_t> picked =
            pickBackend(chain, tried);
        if (!picked.has_value())
            break; // nothing routable
        const std::size_t backend = *picked;
        tried[backend] = true;

        int try_ms = cfg_.tryTimeoutMs;
        if (has_deadline)
            try_ms = std::min(try_ms, msUntil(overall));
        if (try_ms <= 0)
            break;

        // Hedge only on the first try: retries already have a
        // fallback.
        std::optional<std::size_t> hedge_mate;
        if (cfg_.hedgeDelayMs >= 0 && attempt == 0) {
            for (const std::size_t b : chain) {
                if (b != backend && !tried[b] && pool_.routable(b)) {
                    hedge_mate = b;
                    break;
                }
            }
        }

        if (attempt > 0)
            JITSCHED_OBS(
                obs::ClusterMetrics::get().requestsRetried.add());

        ++attempts_made;
        const auto t0 = SteadyClock::now();
        Exchange ex =
            hedge_mate.has_value()
                ? hedgedExchange(backend, *hedge_mate, canonical,
                                 try_ms)
                : tryExchange(backend, canonical, try_ms);
        const auto elapsed_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                SteadyClock::now() - t0)
                .count();

        const std::size_t served_by =
            ex.hedgeWon && hedge_mate.has_value() ? *hedge_mate
                                                  : backend;
        JITSCHED_OBS(obs::ClusterMetrics::tryNsFor(
                         pool_.endpoint(served_by).label())
                         .observe(elapsed_ns));

        // One route_attempt span per try, anchored on the exchange
        // window.  The outcome tag tells the trace reader what this
        // hop meant: ok / retry (failed, chain continues) / spill
        // (answered off-owner) / hedge-won / hedge-lost.
        {
            std::string outcome;
            if (!ex.ok)
                outcome = "retry";
            else if (ex.hedged && ex.hedgeWon)
                outcome = "hedge-won";
            else if (ex.hedged)
                outcome = "hedge-lost";
            else if (served_by != chain[0])
                outcome = "spill";
            else
                outcome = "ok";
            obs::SpanCollector::global().recordBetween(
                trace_id, "cluster.route_attempt", t0,
                t0 + std::chrono::nanoseconds(elapsed_ns),
                {{"backend", pool_.endpoint(served_by).label()},
                 {"outcome", std::move(outcome)},
                 {"attempt", std::to_string(attempt)}});
        }

        if (ex.ok) {
            if (ex.hedgeWon && hedge_mate.has_value())
                tried[*hedge_mate] = true;
            JITSCHED_OBS({
                obs::ClusterMetrics &m = obs::ClusterMetrics::get();
                m.requestsRouted.add();
                obs::ClusterMetrics::routedToFor(
                    pool_.endpoint(served_by).label())
                    .add();
                if (frameServedFromCache(ex.frame))
                    obs::ClusterMetrics::resultCacheHitsFor(
                        pool_.endpoint(served_by).label())
                        .add();
            });
            if (served_by != chain[0]) {
                spilled_.fetch_add(1, std::memory_order_relaxed);
                JITSCHED_OBS(obs::ClusterMetrics::get()
                                 .requestsSpilled.add());
            }
            recordFlight("ok", ex.frame.size());
            return ex.frame;
        }
        any_timeout = any_timeout || ex.timedOut;
        if (ex.hedged && hedge_mate.has_value())
            tried[*hedge_mate] = true;

        // Jittered backoff before the next lane, clipped to the
        // deadline: better to try late than to answer late.
        if (attempt + 1 < max_tries) {
            int sleep_ms = backoffMs(attempt);
            if (has_deadline)
                sleep_ms = std::min(sleep_ms, msUntil(overall));
            if (sleep_ms > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(sleep_ms));
        }
    }

    failed_.fetch_add(1, std::memory_order_relaxed);
    JITSCHED_OBS(obs::ClusterMetrics::get().requestsFailed.add());
    ServiceResponse err;
    if (has_deadline && msUntil(overall) <= 0) {
        err = makeErrorResponse(
            req.id, errcode::deadlineExceeded,
            "deadline-ms budget exhausted before any backend "
            "answered");
    } else {
        err = makeErrorResponse(
            req.id, errcode::unavailable,
            any_timeout ? "no backend answered within the try budget"
                        : "no routable backend");
    }
    err.stats.traceId = trace_id;
    const std::string err_text = responseText(err);
    recordFlight(err.code, err_text.size());
    return err_text;
}

} // namespace cluster
} // namespace jitsched
