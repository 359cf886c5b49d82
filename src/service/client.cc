#include "service/client.hh"

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

template <typename Resp, typename Req>
std::optional<Resp>
ServiceClient::exchange(const Req &req, std::string_view resp_name,
                        std::string *error)
{
    const auto raw = callRaw(frameText(req), error);
    if (!raw)
        return std::nullopt;
    std::string parse_error;
    auto resp = tryReadFrame<Resp>(*raw, &parse_error);
    if (!resp)
        setError(error, "bad " + std::string(resp_name) +
                            " frame: " + parse_error);
    return resp;
}

bool
ServiceClient::ping(std::uint64_t id, std::string *error)
{
    const auto pong =
        exchange<PongResponse>(PingRequest{id}, "pong", error);
    if (!pong)
        return false;
    if (!pong->ok)
        return setError(error, "ping refused: " + pong->error);
    return true;
}

std::optional<StatsResponse>
ServiceClient::stats(std::uint64_t id, std::string *error, bool prom)
{
    return exchange<StatsResponse>(StatsRequest{id, prom},
                                   "stats-response", error);
}

std::optional<DumpResponse>
ServiceClient::dump(std::uint64_t id, std::string *error)
{
    return exchange<DumpResponse>(DumpRequest{id}, "dump-response",
                                  error);
}

std::optional<SnapshotResponse>
ServiceClient::snapshot(std::uint64_t id, std::string *error)
{
    return exchange<SnapshotResponse>(SnapshotRequest{id},
                                      "snapshot-response", error);
}

std::optional<ServiceResponse>
ServiceClient::call(const ServiceRequest &req, std::string *error)
{
    return exchange<ServiceResponse>(req, "response", error);
}

} // namespace jitsched
