#include "service/admission.hh"

#include <chrono>
#include <string>

#include "obs/instruments.hh"
#include "obs/span.hh"

namespace jitsched {

AdmissionQueue::AdmissionQueue(ServiceEngine &engine,
                               AdmissionConfig cfg)
    : engine_(engine), cfg_(cfg)
{
}

AdmissionQueue::~AdmissionQueue()
{
    stop();
}

ServiceResponse
AdmissionQueue::serve(const ServiceRequest &req)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point admitted = Clock::now();
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (stop_ || depth_ >= cfg_.maxDepth) {
            ServiceResponse refused;
            if (stop_) {
                refused = makeErrorResponse(
                    req.id, errcode::unavailable,
                    "service is shutting down");
            } else {
                ++shed_;
                JITSCHED_OBS(
                    obs::ServiceMetrics::get().requestsShed.add());
                refused = makeErrorResponse(
                    req.id, errcode::resourceExhausted,
                    "admission queue full (" +
                        std::to_string(cfg_.maxDepth) +
                        " pending requests); retry later");
            }
            refused.stats.traceId = req.traceId;
            return refused;
        }
        ++accepted_;
        ++depth_;
        JITSCHED_OBS({
            obs::ServiceMetrics &m = obs::ServiceMetrics::get();
            m.requestsAccepted.add();
            m.queueDepth.set(static_cast<std::int64_t>(depth_));
        });
    }

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
        // the solve span nests inside engine_.serve().
        obs::SpanCollector::global().recordBetween(
            req.traceId, "service.admission_wait", admitted,
            Clock::now());
        resp = engine_.serve(req);
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
    JITSCHED_OBS(obs::ServiceMetrics::get().queueWaitNs.observe(
        resp.stats.queueNs));

    std::lock_guard<std::mutex> lk(mutex_);
    ++(expired ? expired_ : processed_);
    --depth_;
    JITSCHED_OBS(obs::ServiceMetrics::get().queueDepth.set(
        static_cast<std::int64_t>(depth_)));
    if (depth_ == 0)
        drained_cv_.notify_all();
    return resp;
}

void
AdmissionQueue::stop()
{
    std::unique_lock<std::mutex> lk(mutex_);
    stop_ = true;
    drained_cv_.wait(lk, [&] { return depth_ == 0; });
}

void
AdmissionQueue::restart()
{
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = false;
}

std::uint64_t
AdmissionQueue::accepted() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return accepted_;
}

std::uint64_t
AdmissionQueue::shed() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return shed_;
}

std::uint64_t
AdmissionQueue::expired() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return expired_;
}

std::uint64_t
AdmissionQueue::processed() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return processed_;
}

} // namespace jitsched
