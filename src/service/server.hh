/**
 * @file
 * jitschedd's serving core: the shared connection front end
 * (service/frame_server.hh) over the ServiceEngine.
 *
 * The front end accepts connections, frames requests and answers
 * PING/STATS/DUMP inline; the daemon adds SNAPSHOT and the solve
 * path.  A request frame is parsed with the non-fatal protocol path,
 * and either a parse error is answered immediately or the request is
 * solved (after a result-cache probe) on the handler thread that
 * parsed it, and the response relayed.  The handlers are the solve
 * slots — the service analogue of the paper's m compile cores
 * (SimOptions::compileCores; DESIGN.md 5a) — so a request never waits
 * behind another one's solve while a core sits idle, and at most
 * handlerThreads solves run at once.  A request whose deadline is
 * already spent when it is admitted is answered DEADLINE_EXCEEDED
 * without burning solver time.  One malformed request never
 * desynchronizes or kills a connection — the client gets a
 * structured INVALID_ARGUMENT frame and can keep the socket.
 *
 * Embeddable by design: the loopback tests and bench_service run the
 * server in-process on an ephemeral port; jitschedd_main.cc adds
 * argument parsing and signal handling around the same class.
 */

#ifndef JITSCHED_SERVICE_SERVER_HH
#define JITSCHED_SERVICE_SERVER_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "service/engine.hh"
#include "service/frame_server.hh"
#include "service/result_cache.hh"

namespace jitsched {

/** Knobs of the daemon front end. */
struct ServerConfig
{
    /** Address to bind; loopback by default. */
    std::string bindAddress = "127.0.0.1";

    /** Port to bind; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;

    /** listen(2) backlog. */
    int acceptBacklog = 64;

    /**
     * Concurrent connection handlers.  Each solves the requests it
     * parses, so this is also how many solves run at once — the
     * paper's compile cores.
     */
    std::size_t handlerThreads = 4;

    /**
     * Largest accepted request frame (and single line) in bytes.  A
     * client that streams past this without an `end` line gets an
     * INVALID_ARGUMENT response and is disconnected — the frame
     * cannot be resynchronized without reading an unbounded amount.
     */
    std::size_t maxFrameBytes = std::size_t(1) << 20;

    /**
     * Request-level result-cache budget in bytes
     * (service/result_cache.hh); 0 disables the cache entirely —
     * byte-for-byte today's behavior.
     */
    std::size_t resultCacheBytes = 0;

    /**
     * Warm-restart snapshot file: loaded (strictly validated) on
     * start(), written on clean stop() and on the SNAPSHOT verb.
     * Empty disables snapshots.  Only meaningful with the cache on.
     */
    std::string snapshotPath;
};

class ServiceServer
{
  public:
    /** @param engine must outlive the server */
    explicit ServiceServer(ServiceEngine &engine,
                           ServerConfig cfg = {});

    /** Stops and joins everything. */
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /**
     * Bind, listen, and spawn the acceptor + handlers.
     *
     * A stopped server can be started again: the second start()
     * rebinds the port the first one landed on (even when cfg.port
     * was 0), so a bounced backend comes back on the address its
     * cluster router knows.  Counters survive the bounce.
     *
     * @return true on success; false with *error set otherwise
     */
    bool start(std::string *error = nullptr);

    /**
     * Stop accepting, close connections, join threads; idempotent.
     * The server may be start()ed again afterwards.
     */
    void stop();

    /** The port actually bound (valid after start()). */
    std::uint16_t port() const { return front_.port(); }

    const std::string &bindAddress() const
    {
        return cfg_.bindAddress;
    }

    /** Connections accepted since start(). */
    std::uint64_t connectionsAccepted() const
    {
        return front_.connectionsAccepted();
    }

    /**
     * Connections dropped since start(): accept() failures that
     * triggered the backoff path (EMFILE and friends) — each one a
     * client the daemon turned away without a response.
     */
    std::uint64_t connectionsDropped() const
    {
        return front_.connectionsDropped();
    }

    /** Request frames answered (valid and malformed). */
    std::uint64_t framesServed() const { return front_.framesServed(); }

    /** The request-level result cache (disabled unless configured). */
    ResultCache &resultCache() { return rcache_; }

  private:
    /** The SNAPSHOT verb: save the result cache to its file. */
    SnapshotResponse saveSnapshot(std::uint64_t id);

    /** Every other frame: parse, probe the result cache, solve. */
    std::string answerRequest(std::string_view frame);

    ServiceEngine &engine_;
    const ServerConfig cfg_;
    ResultCache rcache_;
    FrameServer front_;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_SERVER_HH
