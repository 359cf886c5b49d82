/**
 * @file
 * jitsched-router's serving core: a fingerprint-affine TCP proxy in
 * front of N jitschedd backends.
 *
 * The router speaks the existing wire protocol on both sides — a
 * client cannot tell it from a single daemon, and its connection
 * front end (service/frame_server.hh, with PING/STATS/DUMP answered
 * about the router itself) is the daemon's.  Each request frame is
 * parsed (malformed frames get the same INVALID_ARGUMENT response a
 * daemon would produce), fingerprinted with requestFingerprint(),
 * and forwarded to the backend the consistent-hash ring assigns.
 * Because a response is a pure function of its request apart from
 * the volatile `stats` line, the router relays the backend's bytes
 * verbatim: responses through the router are byte-identical to a
 * direct daemon (stats line aside), which is what the differential
 * tests in tests/cluster assert.
 *
 * Request hygiene around each forward:
 *  - per-try deadlines: each try's read timeout is the configured
 *    try budget, clipped to what is left of the request's own
 *    `deadline-ms` option when it carries one;
 *  - bounded retries with jittered exponential backoff, walking the
 *    ring's deterministic spill chain — retries are safe because
 *    scheduling requests are idempotent;
 *  - optional hedging: if the owner has not answered within
 *    hedgeDelayMs, the request is also sent to the next backend in
 *    the chain and the first full response wins; if either lane
 *    fails, the other one still gets the time that is left.
 *
 * Try outcomes feed the BackendPool's health machines; the pool's
 * prober re-admits ejected backends behind the router's back.
 */

#ifndef JITSCHED_CLUSTER_ROUTER_HH
#define JITSCHED_CLUSTER_ROUTER_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/pool.hh"
#include "cluster/ring.hh"
#include "service/frame_server.hh"
#include "service/protocol.hh"

namespace jitsched {
namespace cluster {

/** How the router picks a request's first-choice backend. */
enum class RoutingMode
{
    /** Consistent-hash on the request fingerprint (the default). */
    Affinity,

    /** Rotate through backends; the bench's affinity baseline. */
    RoundRobin,
};

/** Knobs of the router front end. */
struct RouterConfig
{
    /** Address to bind; loopback by default. */
    std::string bindAddress = "127.0.0.1";

    /** Port to bind; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;

    /** listen(2) backlog. */
    int acceptBacklog = 64;

    /** Concurrent connection handlers. */
    std::size_t handlerThreads = 4;

    /** Largest accepted request frame, as in ServerConfig. */
    std::size_t maxFrameBytes = std::size_t(1) << 20;

    /** Ring points per backend. */
    std::size_t vnodes = 64;

    RoutingMode mode = RoutingMode::Affinity;

    /** Total tries per request (first try + retries). */
    int maxTries = 3;

    /** Per-try response deadline. */
    int tryTimeoutMs = 5000;

    /** Retry backoff: base * 2^attempt, jittered, capped. */
    int backoffBaseMs = 5;
    int backoffMaxMs = 100;

    /** Seed of the backoff-jitter stream. */
    std::uint64_t jitterSeed = 0x9e3779b97f4a7c15ull;

    /**
     * Hedging: when >= 0 and the owner has not answered within this
     * many ms, send the request to the next chain backend too and
     * take whichever full response lands first.  < 0 disables.
     */
    int hedgeDelayMs = -1;

    /** Backend pool + health knobs. */
    BackendPoolConfig pool;
};

class Router
{
  public:
    explicit Router(std::vector<BackendEndpoint> backends,
                    RouterConfig cfg = {});

    /** Stops and joins everything. */
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Bind, listen, spawn acceptor + handlers + the pool's prober.
     * @return true on success; false with *error set otherwise
     */
    bool start(std::string *error = nullptr);

    /** Stop accepting, close connections, join threads; idempotent. */
    void stop();

    /** The port actually bound (valid after start()). */
    std::uint16_t port() const { return front_.port(); }

    const std::string &bindAddress() const
    {
        return cfg_.bindAddress;
    }

    BackendPool &pool() { return pool_; }
    const HashRing &ring() const { return ring_; }

    /** Request frames answered (valid and malformed). */
    std::uint64_t framesServed() const { return front_.framesServed(); }

    /** Requests answered from a non-owner backend. */
    std::uint64_t requestsSpilled() const
    {
        return spilled_.load(std::memory_order_relaxed);
    }

    /** Requests the router failed to get any backend to answer. */
    std::uint64_t requestsFailed() const
    {
        return failed_.load(std::memory_order_relaxed);
    }

    /**
     * Route one already-parsed request and return the response
     * frame's bytes — the whole forwarding path (affinity, spill,
     * retries, hedging) without a socket in front.  What the
     * in-process harness and the TSan hammer drive.
     */
    std::string route(ServiceRequest req);

  private:
    struct Exchange
    {
        std::string frame;    ///< response bytes when ok
        bool ok = false;
        bool timedOut = false;
        bool hedged = false;   ///< the second lane was launched
        bool hedgeWon = false; ///< ...and answered first
    };

    /** Every frame the front end does not answer itself. */
    std::string answerRequest(std::string_view frame);

    /** First-choice chain for @p req under the configured mode. */
    std::vector<std::size_t> chainFor(std::uint64_t fingerprint);

    /**
     * Pick the next backend to try: the first routable chain entry
     * not yet tried; nullopt when there is none.
     */
    std::optional<std::size_t>
    pickBackend(const std::vector<std::size_t> &chain,
                const std::vector<bool> &tried);

    /** One send + read-response on @p backend. */
    Exchange tryExchange(std::size_t backend,
                         const std::string &canonical, int try_ms);

    /**
     * Hedged exchange: primary first, secondary launched after
     * hedgeDelayMs of silence; first full frame wins, and a lane
     * that fails leaves the other one to finish.
     */
    Exchange hedgedExchange(std::size_t primary,
                            std::size_t secondary,
                            const std::string &canonical, int try_ms);

    /** Jittered backoff before retry @p attempt, capped. */
    int backoffMs(int attempt);

    const RouterConfig cfg_;
    HashRing ring_;
    BackendPool pool_;

    std::atomic<std::uint64_t> spilled_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> rr_next_{0};
    std::atomic<std::uint64_t> jitter_case_{0};

    FrameServer front_;
};

} // namespace cluster
} // namespace jitsched

#endif // JITSCHED_CLUSTER_ROUTER_HH
