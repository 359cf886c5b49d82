#include "qa/result_cache_fuzz.hh"

#include <cstdio>
#include <sstream>
#include <utility>

#include "service/result_cache.hh"

namespace jitsched {
namespace qa {

namespace {

/**
 * Policies whose solves are byte-deterministic run to run — the
 * precondition of a byte-identity differential.  astar-par is
 * deliberately absent: its contract is cost determinism across
 * worker counts, not schedule identity, so two fresh solves may
 * legally print different (equal-cost) schedules.
 */
const char *const kPolicies[] = {"iar",         "base-only",
                                 "opt-only",    "lower-bound",
                                 "astar",       "jikes"};

/** First index where two strings differ (== size when equal). */
std::size_t
firstDiff(const std::string &a, const std::string &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return n;
}

void
identityViolation(std::vector<Violation> &out, const char *where,
                  const ServiceRequest &req,
                  const std::string &cached,
                  const std::string &fresh)
{
    const std::size_t at = firstDiff(cached, fresh);
    std::ostringstream detail;
    detail << where << ": cached body diverged from a fresh solve "
           << "(policy " << req.policy << ", " << cached.size()
           << " vs " << fresh.size() << " bytes, first diff at byte "
           << at << ")";
    out.push_back(Violation{"result-cache", detail.str()});
}

} // anonymous namespace

ResultCacheFuzzer::ResultCacheFuzzer(std::string snapshot_path)
    : snapshot_path_(std::move(snapshot_path))
{
}

ResultCacheFuzzer::~ResultCacheFuzzer()
{
    std::remove(snapshot_path_.c_str());
}

void
ResultCacheFuzzer::runCase(Rng &rng, const FuzzDomain &domain,
                           std::vector<Violation> &out,
                           ResultCacheFuzzStats *stats,
                           bool break_oracle)
{
    if (stats != nullptr)
        ++stats->cases;

    ServiceRequest req;
    req.id = rng.nextBelow(1000);
    req.traceId = rng.nextBelow(1 << 20) + 1;
    req.policy = kPolicies[rng.nextBelow(
        sizeof(kPolicies) / sizeof(kPolicies[0]))];
    req.workload = randomWorkload(rng, domain);
    const std::uint64_t mutations = rng.nextBelow(3);
    for (std::uint64_t m = 0; m < mutations; ++m)
        req.workload = mutateWorkload(req.workload, rng, domain);
    req.options.compileCores = 1 + rng.nextBelow(3);
    if (rng.nextBelow(4) == 0) {
        req.options.jitterSigma = 0.25;
        req.options.jitterSeed = 1 + rng.nextBelow(100);
    }
    // Keep the exact search cheap on fuzz instances.
    req.options.astarMaxExpansions = 50'000;

    // Fresh solve #1: the body the server would store.
    const ServiceResponse resp1 = engine_.serve(req);
    if (!resp1.ok) {
        // Nothing is stored for error answers; the case is vacuous.
        if (stats != nullptr)
            ++stats->errorSkips;
        return;
    }
    std::string body = responseBodyText(resp1);
    if (break_oracle && !body.empty())
        body[body.size() / 2] ^= 0x20; // canary: corrupt the store

    constexpr std::size_t kCapacity = 4 << 20;
    ResultCache cache(kCapacity);
    cache.insert(ResultCache::Key(req), body);
    if (stats != nullptr)
        ++stats->published;

    // Request #2: same semantic key, different non-semantic fields.
    ServiceRequest req2 = req;
    req2.id = req.id + 1 + rng.nextBelow(1000);
    req2.traceId = req.traceId + 1;
    req2.options.deadlineMs = 10'000;

    const ResultCache::Key key2(req2);
    const std::optional<std::string> hit = cache.lookup(key2);
    if (!hit) {
        out.push_back(Violation{
            "result-cache",
            "published entry did not Hit for a request differing "
            "only in id/trace-id/deadline (policy " +
                req.policy + ")"});
        return;
    }
    const ServiceResponse resp2 = engine_.serve(req2);
    const std::string fresh = responseBodyText(resp2);
    if (*hit != fresh) {
        identityViolation(out, "store", req2, *hit, fresh);
        return;
    }
    if (stats != nullptr)
        ++stats->storeHits;

    // Snapshot round trip: write → load into a fresh cache → the
    // served bytes must still be the fresh solve's bytes.
    std::string error;
    if (!cache.saveSnapshot(snapshot_path_, &error)) {
        out.push_back(Violation{"result-cache",
                                "snapshot save failed: " + error});
        return;
    }
    ResultCache reloaded(kCapacity);
    if (!reloaded.loadSnapshot(snapshot_path_, &error)) {
        out.push_back(Violation{"result-cache",
                                "snapshot load failed: " + error});
        return;
    }
    const std::optional<std::string> warmed = reloaded.lookup(key2);
    if (!warmed) {
        out.push_back(Violation{
            "result-cache",
            "snapshot round trip lost the entry (no Hit after "
            "load)"});
        return;
    }
    if (*warmed != fresh) {
        identityViolation(out, "snapshot", req2, *warmed, fresh);
        return;
    }
    if (stats != nullptr)
        ++stats->roundTrips;
}

} // namespace qa
} // namespace jitsched
