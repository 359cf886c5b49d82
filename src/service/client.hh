/**
 * @file
 * Blocking loopback client for jitschedd: connect once, submit any
 * number of request frames, read the matching response frames.  Used
 * by jitsched-cli, bench_service, and the loopback integration
 * tests; errors are reported as strings so callers decide whether a
 * failed round-trip is fatal.
 */

#ifndef JITSCHED_SERVICE_CLIENT_HH
#define JITSCHED_SERVICE_CLIENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/protocol.hh"

namespace jitsched {

/**
 * Transport deadlines for one client connection.  The defaults (-1)
 * block indefinitely — the historical behaviour, right for trusted
 * loopback tools.  Anything that must survive a hung peer (the
 * cluster router's per-try deadlines, jitsched-cli --timeout-ms)
 * arms all three.
 */
struct ClientConfig
{
    int connectTimeoutMs = -1; ///< connect(2) deadline; < 0 = none
    int readTimeoutMs = -1;    ///< per-read SO_RCVTIMEO; < 0 = none
    int writeTimeoutMs = -1;   ///< per-write SO_SNDTIMEO; < 0 = none
};

/** Why the last transport operation failed (for retry decisions). */
enum class TransportFailure
{
    None,       ///< last operation succeeded
    Connect,    ///< could not connect (refused, unreachable, timeout)
    Write,      ///< send failed or timed out mid-frame
    Timeout,    ///< read deadline expired — the peer is hung
    Disconnect, ///< the peer closed mid-response
};

class ServiceClient
{
  public:
    ServiceClient() = default;

    /** A client with transport deadlines armed on every socket. */
    explicit ServiceClient(ClientConfig cfg) : cfg_(cfg) {}

    /** Disconnects if still connected. */
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /**
     * Connect to a running daemon.
     * @return true on success; false with *error set otherwise
     */
    bool connect(const std::string &address, std::uint16_t port,
                 std::string *error = nullptr);

    bool connected() const { return fd_ >= 0; }

    /** Close the connection; idempotent. */
    void disconnect();

    /**
     * Send one request frame and block for its response frame.
     * Transport failures (not server-side errors, which arrive as
     * structured error responses) return nullopt with *error set.
     */
    std::optional<ServiceResponse> call(const ServiceRequest &req,
                                        std::string *error = nullptr);

    /**
     * Scrape the daemon's metrics registry (a `jitsched-stats`
     * frame).  Transport failures return nullopt with *error set;
     * server-side refusals arrive as a structured error response.
     * With @p prom true the snapshot comes back in Prometheus
     * exposition format (`jitsched-stats <id> prom`).
     */
    std::optional<StatsResponse> stats(std::uint64_t id = 0,
                                       std::string *error = nullptr,
                                       bool prom = false);

    /**
     * Scrape the peer's flight recorder (a `jitsched-dump` frame):
     * the last N completed requests it remembers.  Transport failures
     * return nullopt with *error set.
     */
    std::optional<DumpResponse> dump(std::uint64_t id = 0,
                                     std::string *error = nullptr);

    /**
     * Trigger a result-cache snapshot save (a `jitsched-snapshot`
     * frame).  Transport failures return nullopt with *error set;
     * a daemon without a cache or snapshot file answers a structured
     * error response.
     */
    std::optional<SnapshotResponse>
    snapshot(std::uint64_t id = 0, std::string *error = nullptr);

    /**
     * Probe liveness with a `jitsched-ping` frame.  True only when a
     * well-formed ok pong came back within the read deadline — the
     * predicate the cluster health prober is built on.
     */
    bool ping(std::uint64_t id = 0, std::string *error = nullptr);

    /** Classification of the last call/stats/ping transport error. */
    TransportFailure lastFailure() const { return last_failure_; }

    /**
     * Send raw frame text and read back the raw response frame,
     * byte-for-byte as received (every line up to and including
     * `end`).  The hook the byte-identity tests are built on.
     */
    std::optional<std::string> callRaw(const std::string &frame,
                                       std::string *error = nullptr);

  private:
    /**
     * Send @p req and parse the answer as a @p Resp frame; a reply
     * that does not parse fails with "bad <resp_name> frame: ...".
     */
    template <typename Resp, typename Req>
    std::optional<Resp> exchange(const Req &req,
                                 std::string_view resp_name,
                                 std::string *error);

    int fd_ = -1;
    ClientConfig cfg_;
    TransportFailure last_failure_ = TransportFailure::None;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_CLIENT_HH
