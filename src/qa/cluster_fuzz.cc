#include "qa/cluster_fuzz.hh"

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "cluster/pool.hh"
#include "cluster/router.hh"
#include "qa/proto_fuzz.hh"
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

/**
 * A backend that accepts connections and never answers — the "hung
 * daemon" every per-try deadline exists for.  It reads and discards
 * whatever arrives (so peers' writes always succeed) but never
 * writes a byte.
 */
class TarpitBackend
{
  public:
    ~TarpitBackend() { stop(); }

    bool
    start(std::string *error)
    {
        listen_fd_ = listenTcp("127.0.0.1", 0, 16, error);
        if (listen_fd_ < 0)
            return false;
        port_ = boundPort(listen_fd_);
        stopping_.store(false, std::memory_order_release);
        holder_ = std::thread([this] { holdLoop(); });
        return true;
    }

    void
    stop()
    {
        if (listen_fd_ < 0)
            return;
        stopping_.store(true, std::memory_order_release);
        ::shutdown(listen_fd_, SHUT_RDWR);
        closeFd(listen_fd_);
        if (holder_.joinable())
            holder_.join();
        for (const int fd : held_)
            closeFd(fd);
        held_.clear();
        listen_fd_ = -1;
    }

    std::uint16_t port() const { return port_; }

  private:
    void
    holdLoop()
    {
        while (!stopping_.load(std::memory_order_acquire)) {
            const int fd =
                ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) {
                if (stopping_.load(std::memory_order_acquire))
                    return;
                continue;
            }
            held_.push_back(fd);
        }
    }

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread holder_;
    std::vector<int> held_; ///< touched by holder_ only, then stop()
};

/** Raw framed client for the router's port. */
using RouterConn = cluster::BackendConn;

} // anonymous namespace

struct ClusterFuzzer::Impl
{
    static constexpr std::size_t kRealBackends = 3;

    std::vector<std::unique_ptr<ServiceEngine>> engines;
    std::vector<std::unique_ptr<ServiceServer>> servers;
    TarpitBackend tarpit;
    std::unique_ptr<cluster::Router> router;
    ServiceEngine reference;
    bool started = false;
    std::string startError;

    Impl()
    {
        for (std::size_t i = 0; i < kRealBackends; ++i) {
            engines.push_back(std::make_unique<ServiceEngine>());
            servers.push_back(std::make_unique<ServiceServer>(
                *engines.back()));
        }
        for (auto &server : servers) {
            if (!server->start(&startError))
                return;
        }
        if (!tarpit.start(&startError))
            return;

        std::vector<cluster::BackendEndpoint> endpoints;
        for (auto &server : servers)
            endpoints.push_back(
                {server->bindAddress(), server->port()});
        endpoints.push_back({"127.0.0.1", tarpit.port()});

        cluster::RouterConfig cfg;
        cfg.handlerThreads = 2;
        // Tight budgets: the tarpit sits in the ring permanently, so
        // every owner-chain walk through it must cost a bounded
        // fraction of a case, not 5 seconds.
        cfg.tryTimeoutMs = 250;
        cfg.maxTries = 4;
        cfg.backoffBaseMs = 1;
        cfg.backoffMaxMs = 5;
        cfg.pool.connectTimeoutMs = 250;
        cfg.pool.probeTimeoutMs = 100;
        cfg.pool.probeIntervalMs = 10;
        cfg.pool.health.suspectAfter = 1;
        cfg.pool.health.downAfter = 2;
        cfg.pool.health.probeDelayMs = 50;
        cfg.pool.health.probeDelayMaxMs = 400;
        cfg.pool.health.probeSuccesses = 1;
        router = std::make_unique<cluster::Router>(
            std::move(endpoints), cfg);
        if (!router->start(&startError))
            return;
        started = true;
    }

    ~Impl()
    {
        if (router != nullptr)
            router->stop();
        for (auto &server : servers)
            server->stop();
        tarpit.stop();
    }

    /** The deterministic bytes the cluster must answer with. */
    std::string
    directAnswer(const ServiceRequest &req)
    {
        ServiceResponse resp = reference.serve(req);
        resp.stats = {};
        return responseText(resp, /*include_stats=*/false);
    }

    bool
    openRouterConn(RouterConn &conn, std::vector<Violation> &out)
    {
        std::string error;
        cluster::BackendEndpoint ep{router->bindAddress(),
                                    router->port()};
        if (!conn.open(ep, /*connect_timeout_ms=*/2000, &error)) {
            report(out, "cluster-loopback",
                   "connect to router failed: " + error);
            return false;
        }
        // Generous ceiling: a hung *router* is a finding, and per-try
        // deadlines inside it are far shorter than this.
        conn.setReadTimeout(10'000);
        return true;
    }

    /**
     * Send a valid request through the router and require the
     * byte-identical deterministic answer.
     * @return false when a violation was recorded
     */
    bool
    expectValidRoundTrip(RouterConn &conn, const ServiceRequest &req,
                         std::vector<Violation> &out)
    {
        if (!conn.sendFrame(requestText(req))) {
            report(out, "cluster-loopback",
                   "write of a valid frame to the router failed");
            return false;
        }
        const auto raw = conn.readFrame();
        if (!raw.has_value()) {
            report(out, "cluster-loopback",
                   "no response from the router to a valid frame "
                   "(hang or disconnect), policy " +
                       req.policy);
            return false;
        }
        const std::string want = directAnswer(req);
        if (stripStats(*raw) != want) {
            report(out, "cluster-loopback",
                   "routed response diverged from the direct "
                   "library call:\n--- got ---\n" +
                       stripStats(*raw) + "--- want ---\n" + want);
            return false;
        }
        return true;
    }

    /** Wait until backend @p i is routable again; false on timeout. */
    bool
    awaitReadmission(std::size_t i)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(5);
        while (std::chrono::steady_clock::now() < deadline) {
            if (router->pool().routable(i))
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        return false;
    }
};

ClusterFuzzer::ClusterFuzzer() : impl_(std::make_unique<Impl>()) {}

ClusterFuzzer::~ClusterFuzzer() = default;

bool
ClusterFuzzer::ok() const
{
    return impl_->started;
}

const std::string &
ClusterFuzzer::error() const
{
    return impl_->startError;
}

void
ClusterFuzzer::runCase(Rng &rng, const FuzzDomain &domain,
                       std::vector<Violation> &out,
                       ClusterFuzzStats *stats)
{
    if (!impl_->started) {
        report(out, "cluster-loopback",
               "cluster failed to start: " + impl_->startError);
        return;
    }
    if (stats != nullptr)
        ++stats->cases;

    static const char *const kSafePolicies[] = {
        "iar", "base-only", "opt-only", "lower-bound"};
    ServiceRequest valid;
    valid.id = rng.nextBelow(1 << 20);
    valid.policy = kSafePolicies[rng.nextBelow(4)];
    valid.workload = randomWorkload(rng, domain);

    RouterConn conn;
    if (!impl_->openRouterConn(conn, out))
        return;

    switch (rng.nextBelow(4)) {
    case 0: { // plain valid request; ring may route it via the tarpit
        if (impl_->expectValidRoundTrip(conn, valid, out) &&
            stats != nullptr)
            ++stats->served;
        break;
    }
    case 1: { // kill a real backend mid-run; every answer must hold
        const std::size_t victim =
            rng.nextBelow(Impl::kRealBackends);
        impl_->servers[victim]->stop();
        if (stats != nullptr)
            ++stats->kills;
        bool all_ok = true;
        for (int shot = 0; shot < 3 && all_ok; ++shot) {
            ServiceRequest req = valid;
            req.id = valid.id + static_cast<std::uint64_t>(shot);
            all_ok = impl_->expectValidRoundTrip(conn, req, out);
            if (all_ok && stats != nullptr)
                ++stats->served;
        }
        std::string error;
        if (!impl_->servers[victim]->start(&error)) {
            report(out, "cluster-loopback",
                   "backend restart failed: " + error);
            break;
        }
        if (!impl_->awaitReadmission(victim)) {
            report(out, "cluster-loopback",
                   "backend " + std::to_string(victim) +
                       " not re-admitted within 5s of restart");
            break;
        }
        if (stats != nullptr)
            ++stats->readmissions;
        // And the re-admitted backend must actually serve again.
        if (impl_->expectValidRoundTrip(conn, valid, out) &&
            stats != nullptr)
            ++stats->served;
        break;
    }
    case 2: { // byte-mangled frame; router must answer and recover
        std::string bad = mutateFrameBytes(requestText(valid), rng);
        if (stats != nullptr)
            ++stats->mangled;
        if (bad.empty() || bad.back() != '\n')
            bad += "\n";
        // Count terminated frames so we drain exactly that many
        // responses; close off any unterminated tail.
        std::size_t frames_sent = 0;
        bool tail_open = false;
        {
            std::istringstream is(bad);
            for (std::string line; std::getline(is, line);) {
                if (isFrameEnd(line)) {
                    ++frames_sent;
                    tail_open = false;
                } else {
                    tail_open = true;
                }
            }
        }
        if (frames_sent == 0 || tail_open) {
            bad += "end\n";
            ++frames_sent;
        }
        if (!conn.sendFrame(bad)) {
            report(out, "cluster-loopback",
                   "write of mangled frame to the router failed");
            break;
        }
        bool dropped = false;
        for (std::size_t i = 0; i < frames_sent; ++i) {
            const auto raw = conn.readFrame();
            if (!raw.has_value()) {
                dropped = true; // deliberate disconnect is legal
                break;
            }
            if (!parseableAsAnyResponse(*raw)) {
                report(out, "cluster-loopback",
                       "unparseable router response to a "
                       "mangled frame:\n" +
                           *raw);
                return;
            }
        }
        if (dropped) {
            RouterConn fresh;
            if (!impl_->openRouterConn(fresh, out))
                break;
            impl_->expectValidRoundTrip(fresh, valid, out);
            break;
        }
        if (impl_->expectValidRoundTrip(conn, valid, out) &&
            stats != nullptr)
            ++stats->served;
        break;
    }
    default: { // mid-frame disconnect; the router must shrug it off
        const std::string frame = requestText(valid);
        const std::size_t cut = 1 + rng.nextBelow(frame.size() - 1);
        conn.sendFrame(frame.substr(0, cut));
        conn.close();
        RouterConn fresh;
        if (!impl_->openRouterConn(fresh, out))
            break;
        if (impl_->expectValidRoundTrip(fresh, valid, out) &&
            stats != nullptr)
            ++stats->served;
        break;
    }
    }
}

} // namespace qa
} // namespace jitsched
