/**
 * @file
 * Admission control for the scheduling service.
 *
 * Many clients, many solve slots: the admission gate is synchronous.
 * serve() admits a request and solves it through the shared
 * ServiceEngine on the caller's own thread — in jitschedd, the
 * connection handler that parsed the frame.  The handler pool is
 * therefore the pool of solve slots, the service analogue of the
 * paper's m compile cores (SimOptions::compileCores; DESIGN.md 5a),
 * and a request never waits behind another one's solve while a core
 * sits idle.
 *
 * Overload policy is explicit, in the spirit of the parallel-job
 * scheduling literature the ROADMAP points at (Berg et al.; Kulkarni
 * & Li): when maxDepth requests are already admitted and unanswered
 * the gate answers RESOURCE_EXHAUSTED immediately instead of
 * stalling every client, and a request whose deadline is already
 * spent at admission is answered DEADLINE_EXCEEDED without burning
 * solver time on an answer nobody is waiting for.
 */

#ifndef JITSCHED_SERVICE_ADMISSION_HH
#define JITSCHED_SERVICE_ADMISSION_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "service/engine.hh"
#include "service/protocol.hh"

namespace jitsched {

/** Knobs of the admission gate. */
struct AdmissionConfig
{
    /** Requests admitted and not yet answered beyond this are shed. */
    std::size_t maxDepth = 64;
};

/** Bounded, synchronous admission gate over a ServiceEngine. */
class AdmissionQueue
{
  public:
    /** @param engine must outlive the gate */
    explicit AdmissionQueue(ServiceEngine &engine,
                            AdmissionConfig cfg = {});

    /** Stops admitting and waits for in-flight serves to answer. */
    ~AdmissionQueue();

    AdmissionQueue(const AdmissionQueue &) = delete;
    AdmissionQueue &operator=(const AdmissionQueue &) = delete;

    /**
     * Admit and serve one request on the calling thread.  Always
     * answers: with the policy's response, or with a structured
     * RESOURCE_EXHAUSTED / DEADLINE_EXCEEDED / UNAVAILABLE error.
     * Safe to call from many threads at once.
     */
    ServiceResponse serve(const ServiceRequest &req);

    /**
     * Stop admitting (later serves answer UNAVAILABLE) and wait for
     * the serves already admitted to answer; idempotent.
     */
    void stop();

    /**
     * Admit again after a stop(); idempotent while running.
     * Counters are preserved across the bounce — what the restart
     * lifecycle tests assert on.
     */
    void restart();

    std::uint64_t accepted() const;  ///< requests admitted
    std::uint64_t shed() const;      ///< rejected: gate full
    std::uint64_t expired() const;   ///< rejected: deadline passed
    std::uint64_t processed() const; ///< answered by the engine

  private:
    ServiceEngine &engine_;
    const AdmissionConfig cfg_;

    mutable std::mutex mutex_;
    std::condition_variable drained_cv_; ///< depth_ reached 0
    bool stop_ = false;
    std::size_t depth_ = 0; ///< admitted, not yet answered

    std::uint64_t accepted_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t expired_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_ADMISSION_HH
