#include "service/client.hh"

#include <sstream>
#include <utility>

#include "service/socket_util.hh"

namespace jitsched {

namespace {

bool
setError(std::string *error, std::string what)
{
    if (error != nullptr)
        *error = std::move(what);
    return false;
}

} // anonymous namespace

ServiceClient::~ServiceClient()
{
    disconnect();
}

bool
ServiceClient::connect(const std::string &address, std::uint16_t port,
                       std::string *error)
{
    disconnect();
    fd_ = connectTcpTimeout(address, port, cfg_.connectTimeoutMs,
                            error);
    if (fd_ < 0) {
        last_failure_ = TransportFailure::Connect;
        return false;
    }
    setIoTimeouts(fd_, cfg_.readTimeoutMs, cfg_.writeTimeoutMs);
    last_failure_ = TransportFailure::None;
    return true;
}

void
ServiceClient::disconnect()
{
    closeFd(fd_);
    fd_ = -1;
}

std::optional<std::string>
ServiceClient::callRaw(const std::string &frame, std::string *error)
{
    if (fd_ < 0) {
        last_failure_ = TransportFailure::Connect;
        setError(error, "not connected");
        return std::nullopt;
    }
    if (!writeAll(fd_, frame)) {
        last_failure_ = TransportFailure::Write;
        setError(error, "write failed (connection lost or send "
                        "timeout)");
        return std::nullopt;
    }

    // One response frame: every line up to and including `end`.  A
    // fresh reader per call is fine — the protocol is strictly
    // request/response, so no bytes of the next frame can be in
    // flight yet.
    LineReader reader(fd_);
    if (auto out = reader.readFrame()) {
        last_failure_ = TransportFailure::None;
        return out;
    }
    if (reader.timedOut()) {
        last_failure_ = TransportFailure::Timeout;
        setError(error, "read timed out after " +
                            std::to_string(cfg_.readTimeoutMs) +
                            " ms (server hung?)");
    } else {
        last_failure_ = TransportFailure::Disconnect;
        setError(error, "connection closed mid-response");
    }
    return std::nullopt;
}

bool
ServiceClient::ping(std::uint64_t id, std::string *error)
{
    auto raw = callRaw(pingRequestText(PingRequest{id}), error);
    if (!raw)
        return false;
    std::istringstream is(*raw);
    std::string parse_error;
    auto pong = tryReadPongResponse(is, &parse_error);
    if (!pong) {
        setError(error, "bad pong frame: " + parse_error);
        return false;
    }
    if (!pong->ok) {
        setError(error, "ping refused: " + pong->error);
        return false;
    }
    return true;
}

std::optional<StatsResponse>
ServiceClient::stats(std::uint64_t id, std::string *error, bool prom)
{
    StatsRequest sreq;
    sreq.id = id;
    sreq.prom = prom;
    auto raw = callRaw(statsRequestText(sreq), error);
    if (!raw)
        return std::nullopt;
    std::istringstream is(*raw);
    std::string parse_error;
    auto resp = tryReadStatsResponse(is, &parse_error);
    if (!resp) {
        setError(error, "bad stats-response frame: " + parse_error);
        return std::nullopt;
    }
    return resp;
}

std::optional<DumpResponse>
ServiceClient::dump(std::uint64_t id, std::string *error)
{
    DumpRequest dreq;
    dreq.id = id;
    auto raw = callRaw(dumpRequestText(dreq), error);
    if (!raw)
        return std::nullopt;
    std::istringstream is(*raw);
    std::string parse_error;
    auto resp = tryReadDumpResponse(is, &parse_error);
    if (!resp) {
        setError(error, "bad dump-response frame: " + parse_error);
        return std::nullopt;
    }
    return resp;
}

std::optional<SnapshotResponse>
ServiceClient::snapshot(std::uint64_t id, std::string *error)
{
    SnapshotRequest sreq;
    sreq.id = id;
    auto raw = callRaw(snapshotRequestText(sreq), error);
    if (!raw)
        return std::nullopt;
    std::istringstream is(*raw);
    std::string parse_error;
    auto resp = tryReadSnapshotResponse(is, &parse_error);
    if (!resp) {
        setError(error, "bad snapshot-response frame: " + parse_error);
        return std::nullopt;
    }
    return resp;
}

std::optional<ServiceResponse>
ServiceClient::call(const ServiceRequest &req, std::string *error)
{
    auto raw = callRaw(requestText(req), error);
    if (!raw)
        return std::nullopt;
    std::istringstream is(*raw);
    std::string parse_error;
    auto resp = tryReadResponse(is, &parse_error);
    if (!resp) {
        setError(error, "bad response frame: " + parse_error);
        return std::nullopt;
    }
    return resp;
}

} // namespace jitsched
