/**
 * @file
 * End-to-end cluster tests on real loopback sockets: an in-process
 * ClusterHarness (N jitschedd backends behind one jitsched-router
 * serving core).  The contract under test is the router's defining
 * one — responses through the router are byte-identical to a direct
 * daemon, stats line aside, for 1, 2 and 4 shards, through backend
 * kills and re-admissions, and under concurrent traffic (the TSan
 * hammer at the bottom).
 */

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/harness.hh"
#include "service/client.hh"
#include "service/engine.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/socket_util.hh"
#include "trace/paper_examples.hh"

namespace jitsched {
namespace cluster {
namespace {

/** Drop the volatile `stats` line; everything else is deterministic. */
std::string
stripStats(const std::string &frame)
{
    std::string out;
    std::istringstream is(frame);
    for (std::string line; std::getline(is, line);)
        if (line.rfind("stats ", 0) != 0)
            out += line + "\n";
    return out;
}

ServiceRequest
makeRequest(std::uint64_t id, const std::string &policy, Workload w)
{
    ServiceRequest req;
    req.id = id;
    req.policy = policy;
    req.workload = std::move(w);
    return req;
}

std::string
malformedFrame(std::uint64_t id)
{
    return "jitsched-request " + std::to_string(id) + "\n" +
           "policy iar\n"
           "payload\n"
           "workload broken\n"
           "levels not-a-number\n"
           "end\n";
}

/** What a direct library call answers for @p req (no stats). */
std::string
directAnswer(ServiceEngine &reference, const ServiceRequest &req)
{
    ServiceResponse resp = reference.serve(req);
    resp.stats = {};
    return responseText(resp, /*include_stats=*/false);
}

/** Harness knobs tuned so health transitions take ms, not seconds. */
ClusterHarnessConfig
fastCluster(std::size_t backends)
{
    ClusterHarnessConfig cfg;
    cfg.backends = backends;
    cfg.router.maxTries = 4;
    cfg.router.tryTimeoutMs = 2000;
    cfg.router.backoffBaseMs = 1;
    cfg.router.backoffMaxMs = 5;
    cfg.router.pool.connectTimeoutMs = 500;
    cfg.router.pool.probeTimeoutMs = 250;
    cfg.router.pool.probeIntervalMs = 10;
    cfg.router.pool.health.suspectAfter = 1;
    cfg.router.pool.health.downAfter = 2;
    cfg.router.pool.health.probeDelayMs = 50;
    cfg.router.pool.health.probeDelayMaxMs = 400;
    cfg.router.pool.health.probeSuccesses = 1;
    return cfg;
}

/** Wait until backend @p b is routable again; false on timeout. */
bool
awaitRoutable(ClusterHarness &cluster, std::size_t b,
              std::chrono::milliseconds budget)
{
    const auto deadline =
        std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (cluster.router().pool().routable(b))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

TEST(RouterLoopback, ByteIdentityAcrossShardCounts)
{
    // The tentpole contract: a client cannot tell the router from a
    // single daemon, whether 1, 2 or 4 backends sit behind it.
    ServiceEngine reference;
    for (const std::size_t backends : {1u, 2u, 4u}) {
        ClusterHarness cluster(fastCluster(backends));
        std::string error;
        ASSERT_TRUE(cluster.start(&error)) << error;

        ServiceClient client;
        ASSERT_TRUE(client.connect("127.0.0.1",
                                   cluster.routerPort(), &error))
            << error;

        std::uint64_t id = 100;
        std::uint64_t frames = 0;
        for (const char *policy :
             {"iar", "base-only", "opt-only", "lower-bound"}) {
            for (const Workload &w :
                 {figure1Workload(), figure2Workload()}) {
                const ServiceRequest req =
                    makeRequest(++id, policy, w);
                const auto raw =
                    client.callRaw(requestText(req), &error);
                ASSERT_TRUE(raw.has_value())
                    << backends << " backends: " << error;
                EXPECT_EQ(stripStats(*raw),
                          directAnswer(reference, req))
                    << backends << " backends, policy " << policy;
                ++frames;
            }
        }
        EXPECT_EQ(cluster.router().framesServed(), frames);
        EXPECT_EQ(cluster.router().requestsFailed(), 0u);
    }
}

TEST(RouterLoopback, MalformedFrameGetsTheDaemonsErrorBytes)
{
    // A malformed frame must come back with the byte-identical
    // structured error a daemon would emit, and the connection must
    // keep working afterwards.
    ClusterHarness cluster(fastCluster(2));
    std::string error;
    ASSERT_TRUE(cluster.start(&error)) << error;

    ServiceEngine direct_engine;
    ServiceServer direct(direct_engine);
    ASSERT_TRUE(direct.start(&error)) << error;

    ServiceClient via_router, via_daemon;
    ASSERT_TRUE(via_router.connect("127.0.0.1",
                                   cluster.routerPort(), &error))
        << error;
    ASSERT_TRUE(
        via_daemon.connect("127.0.0.1", direct.port(), &error))
        << error;

    const std::string bad = malformedFrame(31);
    const auto from_router = via_router.callRaw(bad, &error);
    ASSERT_TRUE(from_router.has_value()) << error;
    const auto from_daemon = via_daemon.callRaw(bad, &error);
    ASSERT_TRUE(from_daemon.has_value()) << error;
    EXPECT_EQ(stripStats(*from_router), stripStats(*from_daemon));

    std::istringstream is(*from_router);
    const auto resp = tryReadResponse(is, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->code, errcode::invalidArgument);

    // Framing recovered: the next valid frame on the same connection
    // is served normally.
    ServiceEngine reference;
    const ServiceRequest req =
        makeRequest(32, "iar", figure1Workload());
    const auto raw = via_router.callRaw(requestText(req), &error);
    ASSERT_TRUE(raw.has_value()) << error;
    EXPECT_EQ(stripStats(*raw), directAnswer(reference, req));
}

TEST(RouterLoopback, AffinityKeepsRepeatsOnTheCachedBackend)
{
    // Send distinct requests once, then resend them all.  Affinity
    // must land every copy of a request on its ring owner, so each
    // call adds one frame to the owner's count and none to the other
    // backend's (healthy backends are never probed).
    ClusterHarness cluster(fastCluster(2));
    std::string error;
    ASSERT_TRUE(cluster.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", cluster.routerPort(), &error))
        << error;

    std::vector<ServiceRequest> requests;
    for (int cores = 1; cores <= 8; ++cores) {
        ServiceRequest req =
            makeRequest(200 + cores, "iar", figure1Workload());
        req.options.compileCores = cores;
        requests.push_back(req);
    }
    std::vector<bool> owns(cluster.backendCount(), false);
    for (const ServiceRequest &req : requests)
        owns[cluster.router().ring().ownerOf(requestFingerprint(req))] =
            true;
    ASSERT_EQ(std::count(owns.begin(), owns.end(), true), 2)
        << "the requests should be spread over both backends";

    for (int pass = 0; pass < 2; ++pass) {
        for (const ServiceRequest &req : requests) {
            std::vector<std::uint64_t> before;
            for (std::size_t b = 0; b < cluster.backendCount(); ++b)
                before.push_back(
                    cluster.backendServer(b).framesServed());
            ASSERT_TRUE(
                client.callRaw(requestText(req), &error).has_value())
                << error;
            const std::size_t owner =
                cluster.router().ring().ownerOf(requestFingerprint(req));
            for (std::size_t b = 0; b < cluster.backendCount(); ++b)
                EXPECT_EQ(cluster.backendServer(b).framesServed() -
                              before[b],
                          b == owner ? 1u : 0u)
                    << "pass " << pass << ", compile-cores "
                    << req.options.compileCores << ", backend " << b;
        }
    }
}

TEST(RouterLoopback, FailoverThenReadmissionAcrossABackendBounce)
{
    ClusterHarness cluster(fastCluster(2));
    std::string error;
    ASSERT_TRUE(cluster.start(&error)) << error;

    ServiceEngine reference;
    ServiceClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", cluster.routerPort(), &error))
        << error;

    const ServiceRequest req =
        makeRequest(300, "iar", figure1Workload());
    const std::size_t owner =
        cluster.router().ring().ownerOf(requestFingerprint(req));

    auto roundTrip = [&](std::uint64_t id) {
        ServiceRequest r = req;
        r.id = id;
        ServiceResponse expect = reference.serve(r);
        expect.stats = {};
        const auto raw = client.callRaw(requestText(r), &error);
        ASSERT_TRUE(raw.has_value()) << error;
        EXPECT_EQ(stripStats(*raw),
                  responseText(expect, /*include_stats=*/false));
    };

    roundTrip(300);

    // Kill the owner: requests must keep getting correct answers
    // (spilled to the survivor) while the health machine walks the
    // owner to Down.
    cluster.killBackend(owner);
    std::uint64_t id = 301;
    for (int shot = 0; shot < 20; ++shot) {
        roundTrip(id++);
        if (!cluster.router().pool().routable(owner))
            break;
    }
    EXPECT_FALSE(cluster.router().pool().routable(owner))
        << "owner was never ejected";
    EXPECT_GE(cluster.router().requestsSpilled(), 1u);
    EXPECT_EQ(cluster.router().requestsFailed(), 0u);

    // Ejected backends cost no traffic: requests keep working.
    roundTrip(id++);

    // Bring the owner back; the prober must re-admit it without any
    // client traffic helping.
    ASSERT_TRUE(cluster.restartBackend(owner, &error)) << error;
    ASSERT_TRUE(awaitRoutable(cluster, owner,
                              std::chrono::seconds(5)))
        << "owner not re-admitted within 5s of restart";
    EXPECT_GE(cluster.router().pool().readmissions(owner), 1u);

    // And traffic flows back to it: the owner serves its key again.
    const std::uint64_t owner_frames_before =
        cluster.backendServer(owner).framesServed();
    for (int shot = 0; shot < 3; ++shot)
        roundTrip(id++);
    EXPECT_GE(cluster.backendServer(owner).framesServed() -
                  owner_frames_before,
              3u)
        << "re-admitted owner is not seeing its keys again";
}

TEST(RouterLoopback, PingAndStatsAreAnsweredByTheRouterItself)
{
    ClusterHarness cluster(fastCluster(2));
    std::string error;
    ASSERT_TRUE(cluster.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", cluster.routerPort(), &error))
        << error;

    EXPECT_TRUE(client.ping(41, &error)) << error;

    const auto stats = client.stats(42, &error);
    ASSERT_TRUE(stats.has_value()) << error;
    EXPECT_TRUE(stats->ok) << stats->error;
    EXPECT_EQ(stats->id, 42u);
}

TEST(RouterLoopback, HedgedRequestsStayByteIdentical)
{
    // hedgeDelayMs = 0: every request races two backends; the first
    // full frame wins and the answer must still be exact.
    ClusterHarnessConfig cfg = fastCluster(2);
    cfg.router.hedgeDelayMs = 0;
    ClusterHarness cluster(cfg);
    std::string error;
    ASSERT_TRUE(cluster.start(&error)) << error;

    ServiceEngine reference;
    ServiceClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", cluster.routerPort(), &error))
        << error;

    for (std::uint64_t id = 500; id < 510; ++id) {
        ServiceRequest req =
            makeRequest(id, "iar", figure2Workload());
        req.options.compileCores =
            1 + static_cast<int>(id % 4);
        const auto raw = client.callRaw(requestText(req), &error);
        ASSERT_TRUE(raw.has_value()) << error;
        EXPECT_EQ(stripStats(*raw), directAnswer(reference, req));
    }
    EXPECT_EQ(cluster.router().requestsFailed(), 0u);
}

/**
 * A scripted stand-in backend on an ephemeral loopback port: one
 * thread accepts connections one at a time and hands each to the
 * script, which owns (and must close) the fd.
 */
class ScriptedBackend
{
  public:
    explicit ScriptedBackend(std::function<void(int)> script)
    {
        std::string error;
        listen_fd_ = listenTcp("127.0.0.1", 0, 16, &error);
        EXPECT_GE(listen_fd_, 0) << error;
        port_ = boundPort(listen_fd_);
        thread_ = std::thread([this, script] {
            while (!stop_.load()) {
                pollfd p{listen_fd_, POLLIN, 0};
                if (::poll(&p, 1, 10) <= 0)
                    continue;
                const int fd = ::accept(listen_fd_, nullptr, nullptr);
                if (fd < 0)
                    continue;
                setIoTimeouts(fd, 2000, 2000);
                script(fd);
            }
        });
    }

    ~ScriptedBackend()
    {
        stop_ = true;
        thread_.join();
        closeFd(listen_fd_);
    }

    std::uint16_t port() const { return port_; }

  private:
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** Counters two scripted backends use to order their moves. */
struct Handshake
{
    std::mutex m;
    std::condition_variable cv;
    int hedgesReceived = 0;
    int primaryCloses = 0;

    int
    bump(int Handshake::*counter)
    {
        std::lock_guard<std::mutex> g(m);
        const int now = ++(this->*counter);
        cv.notify_all();
        return now;
    }

    int
    read(int Handshake::*counter)
    {
        std::lock_guard<std::mutex> g(m);
        return this->*counter;
    }

    void
    await(int Handshake::*counter, int at_least)
    {
        std::unique_lock<std::mutex> lk(m);
        cv.wait_for(lk, std::chrono::seconds(2),
                    [&] { return this->*counter >= at_least; });
    }
};

TEST(RouterLoopback, HedgeLaneFinishesWhenThePrimaryFails)
{
    // The owner reads each request, stays silent until the hedge
    // lane has it too, then hangs up without answering.  The hedge
    // lane (a relay in front of a real daemon) answers only after
    // that, so the primary's EOF is always seen first: the router
    // must then finish on the live hedge lane instead of dropping it
    // and failing the request.
    ServiceEngine engine;
    ServiceServer daemon(engine);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Handshake hs;
    ScriptedBackend primary([&](int fd) {
        LineReader reader(fd);
        if (reader.readFrame().has_value()) {
            const int n = hs.read(&Handshake::primaryCloses) + 1;
            hs.await(&Handshake::hedgesReceived, n);
        }
        closeFd(fd);
        hs.bump(&Handshake::primaryCloses);
    });
    ScriptedBackend relay([&](int fd) {
        ServiceClient upstream;
        if (upstream.connect("127.0.0.1", daemon.port())) {
            LineReader reader(fd);
            while (auto frame = reader.readFrame()) {
                const int n = hs.bump(&Handshake::hedgesReceived);
                hs.await(&Handshake::primaryCloses, n);
                const auto answer = upstream.callRaw(*frame);
                if (!answer.has_value() || !writeAll(fd, *answer))
                    break;
            }
        }
        closeFd(fd);
    });

    RouterConfig rcfg;
    rcfg.hedgeDelayMs = 1;
    rcfg.tryTimeoutMs = 2000;
    rcfg.backoffBaseMs = 1;
    rcfg.backoffMaxMs = 5;
    // Keep the failing owner routable so every request takes the
    // hedged path.
    rcfg.pool.health.suspectAfter = 1000;
    rcfg.pool.health.downAfter = 1000;
    rcfg.pool.health.breakerMinSamples = 1000;
    Router router({{"127.0.0.1", primary.port()},
                   {"127.0.0.1", relay.port()}},
                  rcfg);
    ASSERT_TRUE(router.start(&error)) << error;

    ServiceEngine reference;
    int sent = 0;
    for (int cores = 1; cores <= 64 && sent < 5; ++cores) {
        ServiceRequest req =
            makeRequest(700 + cores, "iar", figure1Workload());
        req.options.compileCores = cores;
        if (router.ring().ownerOf(requestFingerprint(req)) != 0)
            continue; // the scripted owner must be chain[0]
        ++sent;
        EXPECT_EQ(stripStats(router.route(req)),
                  directAnswer(reference, req))
            << "compile cores " << cores;
    }
    ASSERT_EQ(sent, 5) << "too few keys owned by the scripted owner";
    router.stop();
    EXPECT_EQ(hs.read(&Handshake::hedgesReceived), 5);
    EXPECT_EQ(hs.read(&Handshake::primaryCloses), 5);
    EXPECT_EQ(router.requestsFailed(), 0u);
}

TEST(RouterLoopback, HammerConcurrentRouteEjectProbe)
{
    // The TSan target: handler-path routing (route() called from
    // many threads), the health machinery digesting failures, and
    // the prober re-admitting — all while a backend bounces.  Every
    // answer must still be byte-exact; the survivors cover the
    // bounced backend's keys.
    ClusterHarness cluster(fastCluster(3));
    std::string error;
    ASSERT_TRUE(cluster.start(&error)) << error;

    // Precompute expected bytes before any thread starts; the
    // reference engine is not thread-safe.  Keep scanning variants
    // until one is owned by the backend the bouncer will kill, so
    // each bounce round is guaranteed to eject it.
    ServiceEngine reference;
    struct Variant
    {
        ServiceRequest req;
        std::string want;
    };
    std::vector<Variant> variants;
    std::optional<ServiceRequest> owned_by_bounced;
    const std::size_t bounced = 2;
    for (int cores = 1; cores <= 64; ++cores) {
        ServiceRequest req =
            makeRequest(600, "iar", figure1Workload());
        req.options.compileCores = cores;
        if (variants.size() < 6) {
            ServiceResponse resp = reference.serve(req);
            resp.stats = {};
            variants.push_back(
                {req, responseText(resp, /*include_stats=*/false)});
        }
        if (!owned_by_bounced.has_value() &&
            cluster.router().ring().ownerOf(
                requestFingerprint(req)) == bounced)
            owned_by_bounced = req;
        if (variants.size() >= 6 && owned_by_bounced.has_value())
            break;
    }
    ASSERT_TRUE(owned_by_bounced.has_value())
        << "no probe key owned by the bounced backend";

    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::uint64_t> answered{0};
    const int kThreads = 4;
    const int kIters = 25;

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const std::size_t pick =
                    static_cast<std::size_t>(t * kIters + i) %
                    variants.size();
                const std::string got =
                    cluster.router().route(variants[pick].req);
                ++answered;
                if (stripStats(got) != variants[pick].want)
                    ++mismatches;
            }
        });
    }

    std::thread bouncer([&] {
        for (int round = 0; round < 3; ++round) {
            cluster.killBackend(bounced);
            // Drive the dead owner's key until the health machine
            // ejects it (every try is an instant connect refusal).
            for (int i = 0;
                 i < 50 &&
                 cluster.router().pool().routable(bounced);
                 ++i)
                cluster.router().route(*owned_by_bounced);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(30));
            std::string restart_error;
            if (!cluster.restartBackend(bounced, &restart_error))
                return; // the joined asserts below will catch this
            if (!awaitRoutable(cluster, bounced,
                               std::chrono::seconds(5)))
                return;
        }
    });

    for (std::thread &w : workers)
        w.join();
    bouncer.join();

    EXPECT_EQ(answered.load(),
              static_cast<std::uint64_t>(kThreads * kIters));
    EXPECT_EQ(mismatches.load(), 0u)
        << "a routed answer diverged during the bounce";

    // The bounced backend must have been re-admitted at least once.
    EXPECT_GE(cluster.router().pool().readmissions(bounced), 1u);
    ASSERT_TRUE(
        awaitRoutable(cluster, bounced, std::chrono::seconds(5)));
}

} // anonymous namespace
} // namespace cluster
} // namespace jitsched
