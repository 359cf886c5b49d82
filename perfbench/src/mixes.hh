/**
 * @file
 * The three traffic mixes, generated from the workload seed before
 * any process is spawned.  The daemon only ever sees the frames
 * built here; the benchmark keeps the matching Workload objects to
 * check every answer against an independent reference.
 *
 *   serve-distinct       the nine Table-1 DaCapo shapes, four seeded
 *                        variants each; every request's workload is
 *                        made distinct by a per-request change to one
 *                        function's level-0 execution time
 *   serve-repeat-routed  a hot set of 32 small workloads drawn
 *                        Zipf-skewed, through a router to 2 daemons
 *   exact-search         a fixed catalogue of 52 6-function, 3-level
 *                        instances, sent as `astar` then `astar-par`
 *                        and cycled; the seed orders the catalogue and
 *                        scales every cost, which leaves the search
 *                        itself unchanged (A* time on such instances
 *                        spans three orders of magnitude, so a seeded
 *                        draw of a few dozen is never steady)
 *
 * BENCHMARK.json lists only the two serve mixes: exact-search's
 * median latency moved by up to 78% between sets of runs of the same
 * code on a shared 4-core host, past any bound a regression gate can
 * use, so it is run by hand.
 */

#ifndef PERFBENCH_MIXES_HH
#define PERFBENCH_MIXES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "trace/workload.hh"

namespace perfbench {

/** Names of the mixes, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &mixNames();

/** One request shape: a base workload under one policy. */
struct Template
{
    std::size_t base = 0;
    std::string policy;
    jitsched::ServiceOptions options;
    /** The frame between the id line and the payload. */
    std::string head;
};

/** Which template request k sends, and its per-request variant. */
struct Pick
{
    std::size_t tmpl = 0;
    /** Added to function 0's level-0 execution time (0 = as is). */
    std::uint64_t delta = 0;
};

class Mix
{
  public:
    /** Generate the named mix for @p seed; fatal on unknown names. */
    Mix(const std::string &name, std::uint64_t seed, std::size_t cores);

    const std::string &name() const { return name_; }
    std::size_t clients() const { return clients_; }
    std::size_t backends() const { return backends_; }
    bool routed() const { return routed_; }

    /**
     * Requests per cycle for a mix that must end its window on a
     * whole cycle (exact-search); 1 otherwise.
     */
    std::size_t cycle() const { return cycle_; }

    /** Minimum requests in a measured window (for the p90). */
    std::size_t minRequests() const { return min_requests_; }

    /** The request with sequence number @p k. */
    Pick pick(std::uint64_t k) const;

    /** Wire text of a pick under request id @p id. */
    std::string frame(std::uint64_t id, const Pick &p) const;

    /** The exact workload a pick sends (the check reference). */
    jitsched::Workload workload(const Pick &p) const;

    const Template &tmpl(std::size_t t) const { return templates_[t]; }
    const jitsched::Workload &base(std::size_t b) const
    {
        return bases_[b];
    }

  private:
    void addBase(jitsched::Workload w);
    void addTemplate(std::size_t base, const std::string &policy,
                     jitsched::ServiceOptions opts = {});

    std::string name_;
    std::size_t clients_ = 4;
    std::size_t backends_ = 1;
    bool routed_ = false;
    std::size_t cycle_ = 1;
    std::size_t min_requests_ = 100;

    std::vector<jitsched::Workload> bases_;
    /** `payload` line, workload text and `end`, per base. */
    std::vector<std::string> payloads_;
    /** Offset and length of function 0's e0 token in the payload. */
    std::vector<std::pair<std::size_t, std::size_t>> e0_sites_;
    std::vector<Template> templates_;

    /** Seeded request order (base or template indices). */
    std::vector<std::size_t> order_;
};

} // namespace perfbench

#endif // PERFBENCH_MIXES_HH
