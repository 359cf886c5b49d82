#include "cluster/pool.hh"

#include <utility>

#include "obs/instruments.hh"
#include "service/protocol.hh"
#include "support/logging.hh"

namespace jitsched {
namespace cluster {

bool
BackendConn::open(const BackendEndpoint &ep, int connect_timeout_ms,
                  std::string *error)
{
    close();
    fd_ = connectTcpTimeout(ep.address, ep.port, connect_timeout_ms,
                            error);
    if (fd_ < 0)
        return false;
    reader_ = std::make_unique<LineReader>(fd_);
    return true;
}

void
BackendConn::close()
{
    if (fd_ >= 0)
        closeFd(fd_);
    fd_ = -1;
    reader_.reset();
}

void
BackendConn::setReadTimeout(int ms)
{
    if (fd_ >= 0)
        setIoTimeouts(fd_, ms, /*send_timeout_ms=*/-1);
}

bool
BackendConn::sendFrame(const std::string &frame)
{
    return fd_ >= 0 && writeAll(fd_, frame);
}

std::optional<std::string>
BackendConn::readFrame()
{
    if (fd_ < 0 || reader_ == nullptr)
        return std::nullopt;
    // LineReader re-terminates every line with a lone '\n' (our own
    // writers never emit '\r'), which reproduces the daemon's bytes
    // exactly — what lets the router relay responses verbatim.
    return reader_->readFrame();
}

BackendPool::BackendPool(std::vector<BackendEndpoint> backends,
                         BackendPoolConfig cfg)
    : cfg_(cfg)
{
    if (backends.empty())
        JITSCHED_PANIC("a backend pool needs at least one backend");
    slots_.reserve(backends.size());
    for (BackendEndpoint &ep : backends)
        slots_.push_back(
            std::make_unique<Slot>(std::move(ep), cfg_.health));
}

BackendPool::~BackendPool() { stop(); }

void
BackendPool::start()
{
    std::lock_guard<std::mutex> lk(lifecycle_mutex_);
    if (started_)
        return;
    stopping_.store(false, std::memory_order_release);
    prober_ = std::thread([this] { proberLoop(); });
    started_ = true;
}

void
BackendPool::stop()
{
    std::lock_guard<std::mutex> lk(lifecycle_mutex_);
    if (!started_)
        return;
    stopping_.store(true, std::memory_order_release);
    if (prober_.joinable())
        prober_.join();
    started_ = false;
    for (auto &slot : slots_) {
        std::lock_guard<std::mutex> slk(slot->mutex);
        slot->idle.clear();
    }
}

HealthState
BackendPool::state(std::size_t b)
{
    std::lock_guard<std::mutex> lk(slots_[b]->mutex);
    return slots_[b]->health.state();
}

bool
BackendPool::routable(std::size_t b)
{
    std::lock_guard<std::mutex> lk(slots_[b]->mutex);
    return slots_[b]->health.routable();
}

std::unique_ptr<BackendConn>
BackendPool::acquire(std::size_t b, std::string *error)
{
    Slot &slot = *slots_[b];
    {
        std::lock_guard<std::mutex> lk(slot.mutex);
        if (!slot.idle.empty()) {
            std::unique_ptr<BackendConn> conn =
                std::move(slot.idle.back());
            slot.idle.pop_back();
            conn->markReused();
            return conn;
        }
    }
    auto conn = std::make_unique<BackendConn>();
    if (!conn->open(slot.endpoint, cfg_.connectTimeoutMs, error)) {
        recordResult(b, false);
        return nullptr;
    }
    return conn;
}

void
BackendPool::release(std::size_t b, std::unique_ptr<BackendConn> conn,
                     bool reusable)
{
    if (conn == nullptr)
        return;
    if (!reusable || !conn->isOpen() || conn->timedOut())
        return; // destructor closes
    Slot &slot = *slots_[b];
    std::lock_guard<std::mutex> lk(slot.mutex);
    if (slot.idle.size() < cfg_.maxIdleConns)
        slot.idle.push_back(std::move(conn));
}

void
BackendPool::recordResult(std::size_t b, bool ok)
{
    Slot &slot = *slots_[b];
    const auto now = HealthMachine::Clock::now();
    std::uint64_t ejections_before, ejections_after;
    {
        std::lock_guard<std::mutex> lk(slot.mutex);
        ejections_before = slot.health.ejections();
        slot.health.onResult(ok, now);
        ejections_after = slot.health.ejections();
        if (ejections_after != ejections_before) {
            // Pooled conns to an ejected backend are suspect too.
            slot.idle.clear();
        }
    }
    if (ejections_after != ejections_before) {
        JITSCHED_OBS(
            obs::ClusterMetrics::get().backendEjections.add());
        warn("cluster: backend ", slot.endpoint.label(),
             " ejected (down)");
    }
}

std::uint64_t
BackendPool::ejections(std::size_t b)
{
    std::lock_guard<std::mutex> lk(slots_[b]->mutex);
    return slots_[b]->health.ejections();
}

std::uint64_t
BackendPool::readmissions(std::size_t b)
{
    std::lock_guard<std::mutex> lk(slots_[b]->mutex);
    return slots_[b]->health.readmissions();
}

bool
BackendPool::probeBackend(Slot &slot)
{
    BackendConn conn;
    std::string error;
    if (!conn.open(slot.endpoint, cfg_.connectTimeoutMs, &error))
        return false;
    conn.setReadTimeout(cfg_.probeTimeoutMs);
    PingRequest ping;
    ping.id = 1;
    if (!conn.sendFrame(frameText(ping)))
        return false;
    std::optional<std::string> frame = conn.readFrame();
    if (!frame.has_value())
        return false;
    const auto pong = tryReadFrame<PongResponse>(*frame);
    return pong.has_value() && pong->ok && pong->id == ping.id;
}

void
BackendPool::probeOnce()
{
    for (auto &slot_ptr : slots_) {
        Slot &slot = *slot_ptr;
        {
            std::lock_guard<std::mutex> lk(slot.mutex);
            const auto now = HealthMachine::Clock::now();
            if (!slot.health.wantsProbe(now) &&
                slot.health.state() != HealthState::Probing)
                continue;
        }
        // PING with no lock held: a slow probe must not block
        // handler threads recording results for this backend.
        JITSCHED_OBS(obs::ClusterMetrics::get().probesSent.add());
        const bool ok = probeBackend(slot);
        if (!ok)
            JITSCHED_OBS(
                obs::ClusterMetrics::get().probesFailed.add());
        std::uint64_t readmissions_before, readmissions_after;
        {
            std::lock_guard<std::mutex> lk(slot.mutex);
            readmissions_before = slot.health.readmissions();
            slot.health.onProbe(ok, HealthMachine::Clock::now());
            readmissions_after = slot.health.readmissions();
        }
        if (readmissions_after != readmissions_before) {
            JITSCHED_OBS(
                obs::ClusterMetrics::get().backendReadmissions.add());
            inform("cluster: backend ", slot.endpoint.label(),
                   " re-admitted (healthy)");
        }
    }
}

void
BackendPool::proberLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        probeOnce();
        // Sleep in small slices so stop() is prompt.
        const auto tick =
            std::chrono::milliseconds(cfg_.probeIntervalMs);
        const auto wake = HealthMachine::Clock::now() + tick;
        while (!stopping_.load(std::memory_order_acquire) &&
               HealthMachine::Clock::now() < wake) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
}

} // namespace cluster
} // namespace jitsched
