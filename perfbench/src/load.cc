#include "load.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "core/lower_bound.hh"
#include "qa/oracles.hh"
#include "service/client.hh"

namespace perfbench {

using namespace jitsched;

namespace {

/** Policies whose answer is a static schedule the reference replays. */
bool
isStaticPolicy(const std::string &p)
{
    return p == "iar" || p == "base-only" || p == "astar" ||
           p == "astar-par";
}

} // anonymous namespace

Window
runWindow(const Mix &mix, std::uint16_t port, double seconds,
          std::uint64_t k0, std::uint64_t id0, std::size_t min_requests,
          std::size_t cycle, obs::SpanCollector *spans)
{
    const std::size_t n = mix.clients();
    std::vector<std::vector<Sample>> per_client(n);
    std::atomic<std::uint64_t> next{0};
    const auto start_at = Clock::now() + std::chrono::milliseconds(50);
    const auto deadline =
        start_at + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
    const auto hard_deadline =
        start_at + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(5 * seconds));

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n; ++c) {
        threads.emplace_back([&, c] {
            ClientConfig cfg;
            cfg.connectTimeoutMs = 5000;
            cfg.readTimeoutMs = 60000;
            cfg.writeTimeoutMs = 60000;
            ServiceClient client(cfg);
            client.connect("127.0.0.1", port);
            std::this_thread::sleep_until(start_at);
            std::vector<Sample> &out = per_client[c];
            while (true) {
                const std::uint64_t k = next.fetch_add(1);
                const auto now = Clock::now();
                if (now >= hard_deadline ||
                    (now >= deadline && k >= min_requests &&
                     k % cycle == 0))
                    break;
                Sample s;
                s.id = id0 + k;
                s.pick = mix.pick(k0 + k);
                const std::string frame = mix.frame(s.id, s.pick);
                if (!client.connected())
                    client.connect("127.0.0.1", port);
                s.t0 = Clock::now();
                auto raw = client.callRaw(frame);
                s.t1 = Clock::now();
                s.transportOk = raw.has_value();
                if (raw)
                    s.raw = std::move(*raw);
                else
                    client.disconnect();
                if (spans != nullptr)
                    spans->recordBetween(
                        s.id, "client.request", s.t0, s.t1,
                        {{"policy", mix.tmpl(s.pick.tmpl).policy}});
                out.push_back(std::move(s));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    Window w;
    Clock::time_point last = start_at;
    for (auto &v : per_client) {
        for (Sample &s : v) {
            last = std::max(last, s.t1);
            w.samples.push_back(std::move(s));
        }
    }
    std::sort(w.samples.begin(), w.samples.end(),
              [](const Sample &a, const Sample &b) { return a.id < b.id; });
    w.elapsedS = std::chrono::duration<double>(last - start_at).count();
    return w;
}

std::string
stableBody(const std::string &raw)
{
    std::istringstream in(raw);
    std::string line, out;
    bool first = true;
    while (std::getline(in, line)) {
        if (first) {
            first = false;
            continue;
        }
        if (line.rfind("stats ", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

std::string
checkResponse(const Mix &mix, std::uint64_t id, const Pick &pick,
              const std::string &raw, ServiceResponse *out)
{
    std::istringstream in(raw);
    std::string error;
    auto resp = tryReadResponse(in, &error);
    if (!resp)
        return "unparseable response: " + error;
    *out = *resp;
    if (resp->id != id)
        return "response id " + std::to_string(resp->id) +
               " does not echo request id " + std::to_string(id);
    if (!resp->ok)
        return {};
    const Template &t = mix.tmpl(pick.tmpl);
    if (resp->policy != t.policy)
        return "policy " + resp->policy + " answered a " + t.policy +
               " request";
    if (t.policy == "lower-bound")
        return resp->lowerBound > 0 ? std::string()
                                    : "lower-bound answer without a bound";
    if (!resp->hasSim || !resp->hasSchedule)
        return t.policy + " answer without a schedule";
    const SimResult &sim = resp->sim;
    const Workload w = mix.workload(pick);
    // The all-levels bound holds for every schedule.  The `lower-bound`
    // line is the candidate-level bound, which only schedules confined
    // to candidate levels must respect; astar and astar-par search
    // every level and can end below it.
    const Tick lb_all = lowerBoundAllLevels(w);
    if (lb_all > sim.makespan)
        return "all-levels lower bound " + std::to_string(lb_all) +
               " exceeds makespan " + std::to_string(sim.makespan);
    if ((t.policy == "iar" || t.policy == "base-only") &&
        resp->lowerBound > sim.makespan)
        return "lower bound " + std::to_string(resp->lowerBound) +
               " exceeds makespan " + std::to_string(sim.makespan);
    // Time runs from the first compile (tick 0) to the end of the
    // last call, which every simulator and online engine reports as
    // exec-end.
    if (sim.makespan != sim.execEnd)
        return "makespan " + std::to_string(sim.makespan) +
               " != exec-end " + std::to_string(sim.execEnd);
    if (sim.execEnd != sim.totalExec + sim.totalBubble)
        return "exec-end " + std::to_string(sim.execEnd) +
               " != total-exec + total-bubble";
    if (isStaticPolicy(t.policy)) {
        const Tick ref = qa::referenceMakespan(w, Schedule(resp->schedule));
        if (ref != sim.makespan)
            return t.policy + " makespan " +
                   std::to_string(sim.makespan) +
                   " != reference makespan " + std::to_string(ref);
    }
    return {};
}

CheckReport
checkWindow(const Mix &mix, const Window &w, BodyLedger &ledger)
{
    CheckReport r;
    // Per exact-search instance: every astar and astar-par make-span.
    std::map<std::size_t, std::map<std::string, std::vector<Tick>>>
        exact_costs;
    auto violate = [&](const Sample &s, const std::string &what) {
        r.violations.push_back("request " + std::to_string(s.id) + ": " +
                               what);
    };

    for (const Sample &s : w.samples) {
        Answer a;
        a.transportOk = s.transportOk;
        a.latencyMs = msBetween(s.t0, s.t1);
        ++r.attempted;
        if (!s.transportOk) {
            ++r.failed;
            r.answers.push_back(std::move(a));
            continue;
        }
        ++r.completed;
        const std::string why =
            checkResponse(mix, s.id, s.pick, s.raw, &a.resp);
        if (!why.empty())
            violate(s, why);
        const std::string &policy = mix.tmpl(s.pick.tmpl).policy;
        a.ok = a.resp.ok;
        a.refused = !a.resp.ok && policy == "astar" &&
                    a.resp.code == errcode::solverLimit;
        if (a.ok && a.resp.hasSim &&
            a.resp.sim.makespan < a.resp.lowerBound)
            ++r.belowStatedBound;
        if (a.ok)
            ++r.ok;
        else if (a.refused)
            ++r.refused;
        else
            ++r.failed;

        // Repeated frames must answer identically apart from id and
        // stats.  astar-par with several workers promises the same
        // cost, not the same schedule (core/astar_par.hh), so its
        // repeats are compared by cost below instead.
        const bool multi_worker =
            policy == "astar-par" &&
            mix.tmpl(s.pick.tmpl).options.astarThreads != 1;
        if (!multi_worker) {
            const auto key = std::make_pair(s.pick.tmpl, s.pick.delta);
            const std::size_t body =
                std::hash<std::string>{}(stableBody(s.raw));
            const auto [it, fresh] = ledger.emplace(key, body);
            if (!fresh && it->second != body)
                violate(s, "repeated frame answered differently");
        }
        if (a.ok && a.resp.hasSim &&
            (policy == "astar" || policy == "astar-par"))
            exact_costs[mix.tmpl(s.pick.tmpl).base][policy].push_back(
                a.resp.sim.makespan);
        // Checked; only the scalars are needed from here on.
        a.resp.schedule = {};
        r.answers.push_back(std::move(a));
    }
    // Where astar proved an optimum, every astar and astar-par answer
    // for that instance must cost exactly that.  Where astar refused,
    // astar-par returns a budget-bound incumbent whose cost depends
    // on worker interleaving; those are counted, not failed.
    for (const auto &[base, costs] : exact_costs) {
        const auto a = costs.find("astar");
        const auto p = costs.find("astar-par");
        if (a == costs.end()) {
            if (p != costs.end() &&
                std::adjacent_find(p->second.begin(), p->second.end(),
                                   std::not_equal_to<>()) !=
                    p->second.end())
                ++r.incumbentCostsVaried;
            continue;
        }
        const Tick optimum = a->second.front();
        for (const auto &[policy, list] : costs) {
            for (Tick c : list) {
                if (c != optimum)
                    r.violations.push_back(
                        "instance " + mix.base(base).name() + ": " +
                        policy + " cost " + std::to_string(c) +
                        " != astar optimum " + std::to_string(optimum));
            }
        }
    }
    return r;
}

} // namespace perfbench
