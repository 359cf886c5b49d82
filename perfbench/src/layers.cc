#include "layers.hh"

#include <cstdio>
#include <sstream>

#include "core/astar.hh"
#include "core/astar_par.hh"
#include "core/iar.hh"
#include "core/lower_bound.hh"
#include "core/single_level.hh"
#include "exec/batch_eval.hh"
#include "service/client.hh"
#include "service/policy.hh"
#include "sim/makespan.hh"
#include "vm/cost_benefit.hh"

namespace perfbench {

using namespace jitsched;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/** In-process cost of one distinct request (per template). */
struct FrameCost
{
    double parseMs = 0.0;
    double serializeMs = 0.0;
    double bytes = 0.0;
};

/** Per-base solver timings. */
struct BaseCost
{
    double lowerBoundMs = 0.0, iarMs = 0.0, singleLevelMs = 0.0;
    double kcalls = 0.0, jikesMs = 0.0, v8Ms = 0.0;
};

/** Per-instance exact-search replays. */
struct ExactCost
{
    double astarMs = 0.0, parMs = 0.0, par1Ms = 0.0;
    bool refused = false;
    AStarResult astar, par;
};

/** Time @p fn, record it as span @p name on @p trace, return ms. */
template <typename Fn>
double
timed(obs::SpanCollector &spans, std::uint64_t trace, const char *name,
      Fn &&fn)
{
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    spans.recordBetween(trace, name, a, b);
    return msBetween(a, b);
}

double
delta(const StatsSnapshot &before, const StatsSnapshot &after,
      const std::string &name)
{
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
}

double
valueOf(const StatsSnapshot &s, const std::string &name)
{
    const auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
}

} // anonymous namespace

StatsSnapshot
scrapeStats(const std::vector<std::uint16_t> &ports)
{
    StatsSnapshot snap;
    for (std::uint16_t port : ports) {
        ClientConfig cfg;
        cfg.connectTimeoutMs = 5000;
        cfg.readTimeoutMs = 5000;
        ServiceClient client(cfg);
        if (!client.connect("127.0.0.1", port))
            continue;
        const auto resp = client.stats(1);
        if (!resp || !resp->ok)
            continue;
        for (const std::string &line : resp->lines) {
            std::istringstream ls(line);
            std::string type, name;
            double value = 0.0;
            if ((ls >> type >> name >> value) &&
                (type == "counter" || type == "gauge"))
                snap[name] += value;
        }
    }
    return snap;
}

std::vector<std::pair<std::string, std::string>>
layerMetricUnits(bool exact_search)
{
    std::vector<std::pair<std::string, std::string>> m = {
        {"service.front_end_ms_p50", "ms"},
        {"service.front_end_ms_p90", "ms"},
        {"service.unattributed_ms_p50", "ms"},
        {"service.queue_wait_ms_p50", "ms"},
        {"service.queue_wait_ms_p90", "ms"},
        {"service.solve_ms_p50", "ms"},
        {"service.shed_frac", "ratio"},
        {"protocol.parse_ms_p50", "ms"},
        {"protocol.parse_mb_per_s", "MB/s"},
        {"protocol.serialize_ms_p50", "ms"},
        {"result_cache.hit_frac", "ratio"},
        {"result_cache.bytes", "bytes"},
        {"exec.eval_cache.hit_frac", "ratio"},
        {"exec.pool.busy_ms_per_req", "ms"},
        {"exec.pool.tasks_per_req", "count"},
        {"core.lower_bound_ms_p50", "ms"},
        {"core.iar_ms_p50", "ms"},
        {"core.iar_us_per_kcall", "us"},
        {"core.single_level_ms_p50", "ms"},
        {"sim.simulate_us_per_kcall", "us"},
        {"vm.jikes_ms_p50", "ms"},
        {"vm.v8_ms_p50", "ms"},
        {"cluster.relay_ms_p50", "ms"},
        {"cluster.retry_frac", "ratio"},
    };
    if (!exact_search)
        return m;
    m.insert(m.end(), {
        {"core.astar.solve_ms_p50", "ms"},
        {"core.astar.expansions_per_s", "1/s"},
        {"core.astar.evals_per_s", "1/s"},
        {"core.astar.peak_mb", "MiB"},
        {"core.astar.refused_frac", "ratio"},
        {"core.astar_par.solve_ms_p50", "ms"},
        {"core.astar_par.expansions_per_s", "1/s"},
        {"core.astar_par.routed_per_expanded", "ratio"},
        {"core.astar_par.peak_mb", "MiB"},
        {"core.astar_par.speedup_vs_1worker", "ratio"},
    });
    return m;
}

std::vector<Metric>
analyzeLayers(const TracedRun &run, obs::SpanCollector &spans,
              std::vector<std::string> &violations)
{
    const Mix &mix = *run.mix;
    const Window &w = *run.window;
    const CheckReport &rep = *run.report;
    const bool exact = mix.name() == "exact-search";

    // First answered request of each template: the frames the replay
    // prices.
    std::map<std::size_t, const Sample *> first;
    for (const Sample &s : w.samples) {
        if (s.transportOk)
            first.emplace(s.pick.tmpl, &s);
    }

    const PolicyRegistry &reg = PolicyRegistry::builtin();
    BatchEvaluator &eval = BatchEvaluator::global();
    std::map<std::size_t, FrameCost> frame_cost;
    std::map<std::size_t, BaseCost> base_cost;
    std::map<std::size_t, ExactCost> exact_cost;
    double sim_us = 0.0, sim_kcalls = 0.0;
    std::uint64_t trace = std::uint64_t(1) << 62;
    for (const auto &[t, s] : first) {
        const Template &tmpl = mix.tmpl(t);
        const Workload wl = mix.workload(s->pick);
        const std::uint64_t tid = ++trace;
        const auto r0 = Clock::now();
        const std::string frame = mix.frame(s->id, s->pick);

        FrameCost fc;
        fc.bytes = static_cast<double>(frame.size());
        std::optional<ServiceRequest> req;
        std::vector<double> parse;
        for (int rep_i = 0; rep_i < 3; ++rep_i) {
            parse.push_back(
                timed(spans, tid, "protocol.parse", [&] {
                    std::istringstream in(frame);
                    req = tryReadRequest(in);
                }));
        }
        fc.parseMs = median(parse);
        if (!req) {
            violations.push_back("replay could not parse a frame of " +
                                 tmpl.policy);
            continue;
        }
        // Serialize and simulate what the daemon actually returned.
        std::istringstream raw(s->raw);
        const auto parsed = tryReadResponse(raw);
        if (!parsed)
            continue;
        const ServiceResponse &resp = *parsed;
        fc.serializeMs = timed(spans, tid, "protocol.serialize",
                               [&] { (void)responseText(resp); });
        if (resp.hasSchedule) {
            sim_us += 1000.0 * timed(spans, tid, "sim.simulate", [&] {
                          (void)simulate(wl, Schedule(resp.schedule));
                      });
            sim_kcalls += static_cast<double>(wl.numCalls()) / 1000.0;
        }
        frame_cost[t] = fc;

        if (!base_cost.count(tmpl.base)) {
            BaseCost bc;
            CostBenefitConfig model;
            model.kind = ModelKind::Oracle;
            const auto cands = modelCandidateLevels(wl, model);
            bc.kcalls = static_cast<double>(wl.numCalls()) / 1000.0;
            bc.lowerBoundMs = timed(spans, tid, "core.lower_bound", [&] {
                (void)lowerBoundCandidates(wl, cands);
            });
            bc.iarMs = timed(spans, tid, "core.iar",
                             [&] { (void)iarSchedule(wl, cands); });
            bc.singleLevelMs = timed(spans, tid, "core.single_level", [&] {
                (void)baseLevelSchedule(wl, cands);
            });
            bc.jikesMs = timed(spans, tid, "vm.jikes", [&] {
                (void)reg.find("jikes")->run(wl, tmpl.options,
                                             eval);
            });
            bc.v8Ms = timed(spans, tid, "vm.v8", [&] {
                (void)reg.find("v8")->run(wl, tmpl.options,
                                          eval);
            });
            base_cost[tmpl.base] = bc;
        }
        if (exact && !exact_cost.count(tmpl.base)) {
            // The astar policy's own configuration (service/policy.cc).
            ExactCost ec;
            AStarConfig cfg;
            cfg.memoryBudget = tmpl.options.astarMemoryMb << 20;
            cfg.maxExpansions = tmpl.options.astarMaxExpansions;
            cfg.pool = &eval.pool();
            ec.astarMs = timed(spans, tid, "core.astar",
                               [&] { ec.astar = aStarOptimal(wl, cfg); });
            ec.refused = ec.astar.status != AStarStatus::Optimal;
            AStarConfig par;
            par.memoryBudget = cfg.memoryBudget;
            par.maxExpansions = cfg.maxExpansions;
            par.threads = run.cores;
            ec.parMs = timed(spans, tid, "core.astar_par",
                             [&] { ec.par = aStarParallel(wl, par); });
            par.threads = 1;
            ec.par1Ms = timed(spans, tid, "core.astar_par.1worker",
                              [&] { (void)aStarParallel(wl, par); });
            exact_cost[tmpl.base] = ec;
        }
        spans.recordBetween(tid, "replay", r0, Clock::now(),
                            {{"policy", tmpl.policy},
                             {"workload", wl.name()}});
    }

    // Relay: each routed frame sent straight to a backend, 5 times.
    std::map<std::size_t, double> direct_ms;
    if (mix.routed() && !run.backendPorts.empty()) {
        ClientConfig cfg;
        cfg.connectTimeoutMs = 5000;
        cfg.readTimeoutMs = 60000;
        ServiceClient client(cfg);
        client.connect("127.0.0.1", run.backendPorts.front());
        std::uint64_t id = std::uint64_t(1) << 61;
        for (const auto &[t, s] : first) {
            std::vector<double> lat;
            for (int i = 0; i < 5; ++i) {
                const std::string frame = mix.frame(++id, s->pick);
                const auto a = Clock::now();
                const auto raw = client.callRaw(frame);
                lat.push_back(msBetween(a, Clock::now()));
                ServiceResponse resp;
                const std::string why =
                    raw ? checkResponse(mix, id, s->pick, *raw, &resp)
                        : std::string("direct send failed");
                if (!why.empty())
                    violations.push_back("direct send: " + why);
            }
            direct_ms[t] = median(lat);
        }
    }

    // Per-request decomposition of the client latency.
    struct Parts
    {
        double latency, parse, queue, solve, serialize, relay;
    };
    std::vector<Parts> parts;
    std::vector<double> front, unattributed, queue, solve, parse_ms,
        serialize_ms, relay;
    double parse_bytes = 0.0, parse_s = 0.0;
    for (std::size_t i = 0; i < w.samples.size(); ++i) {
        const Sample &s = w.samples[i];
        const Answer &a = rep.answers[i];
        if (!a.transportOk)
            continue;
        const FrameCost &fc = frame_cost[s.pick.tmpl];
        Parts p;
        p.latency = a.latencyMs;
        p.parse = fc.parseMs;
        p.serialize = fc.serializeMs;
        p.queue = static_cast<double>(a.resp.stats.queueNs) / 1e6;
        p.solve = static_cast<double>(a.resp.stats.solveNs) / 1e6;
        p.relay = direct_ms.count(s.pick.tmpl)
                      ? p.latency - direct_ms[s.pick.tmpl]
                      : 0.0;
        parts.push_back(p);
        const double fe = p.latency - p.queue - p.solve;
        front.push_back(fe);
        unattributed.push_back(fe - p.parse - p.serialize);
        queue.push_back(p.queue);
        solve.push_back(p.solve);
        parse_ms.push_back(p.parse);
        serialize_ms.push_back(p.serialize);
        if (mix.routed())
            relay.push_back(p.relay);
        parse_bytes += fc.bytes;
        parse_s += fc.parseMs / 1000.0;

        // queue and solve as children of the client span, after the
        // request would have been read and parsed.
        const double lead =
            std::clamp(p.parse, 0.0, std::max(0.0, fe));
        const auto ns = [](double ms) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(ms));
        };
        const auto q0 = std::min(s.t0 + ns(lead), s.t1);
        const auto q1 = std::min(q0 + ns(p.queue), s.t1);
        const auto s1 = std::min(q1 + ns(p.solve), s.t1);
        spans.recordBetween(s.id, "service.queue", q0, q1);
        spans.recordBetween(s.id, "service.solve", q1, s1);
    }

    // The table: mean of each part over a band of requests around the
    // p50 and p90 latency ranks; the rows add up to the band's mean
    // latency because `unattributed` is the remainder.
    std::sort(parts.begin(), parts.end(),
              [](const Parts &a, const Parts &b) {
                  return a.latency < b.latency;
              });
    auto band = [&](double q) {
        Parts m{0, 0, 0, 0, 0, 0};
        if (parts.empty())
            return m;
        const std::size_t n = parts.size();
        const std::size_t r = std::clamp<std::size_t>(
            static_cast<std::size_t>(std::ceil(q * n)), 1, n) - 1;
        const std::size_t half = n / 40;
        const std::size_t lo = r > half ? r - half : 0;
        const std::size_t hi = std::min(n - 1, r + half);
        for (std::size_t i = lo; i <= hi; ++i) {
            m.latency += parts[i].latency;
            m.parse += parts[i].parse;
            m.queue += parts[i].queue;
            m.solve += parts[i].solve;
            m.serialize += parts[i].serialize;
            m.relay += parts[i].relay;
        }
        const double k = static_cast<double>(hi - lo + 1);
        m.latency /= k, m.parse /= k, m.queue /= k, m.solve /= k;
        m.serialize /= k, m.relay /= k;
        return m;
    };
    const Parts b50 = band(0.5), b90 = band(0.9);
    auto row = [](const char *name, double a, double b) {
        std::printf("  %-22s %12.4f %12.4f\n", name, a, b);
    };
    std::printf("per-layer latency, %s (ms; mean over the requests "
                "ranked within 2.5%% of each percentile)\n",
                mix.name().c_str());
    std::printf("  %-22s %12s %12s\n", "layer", "p50", "p90");
    row("protocol.parse", b50.parse, b90.parse);
    row("service.queue", b50.queue, b90.queue);
    row("service.solve", b50.solve, b90.solve);
    row("protocol.serialize", b50.serialize, b90.serialize);
    if (mix.routed())
        row("cluster.relay", b50.relay, b90.relay);
    auto rest = [&](const Parts &m) {
        return m.latency - m.parse - m.queue - m.solve - m.serialize -
               (mix.routed() ? m.relay : 0.0);
    };
    row("unattributed", rest(b50), rest(b90));
    row("= end-to-end", b50.latency, b90.latency);

    // Layer metrics.
    const StatsSnapshot &db = run.daemonBefore, &da = run.daemonAfter;
    const double processed = delta(db, da, "service.requests.processed");
    const double rc_hits = delta(db, da, "service.result_cache.hits") +
                           delta(db, da, "service.result_cache.collapsed");
    const double ec_hits = delta(db, da, "exec.cache.hits");

    std::vector<double> lb, iar, single, jikes, v8;
    double iar_ms = 0.0, kcalls = 0.0;
    for (const auto &[b, c] : base_cost) {
        lb.push_back(c.lowerBoundMs);
        iar.push_back(c.iarMs);
        single.push_back(c.singleLevelMs);
        jikes.push_back(c.jikesMs);
        v8.push_back(c.v8Ms);
        iar_ms += c.iarMs;
        kcalls += c.kcalls;
    }
    std::vector<double> astar_ms, par_ms;
    double a_exp = 0, a_eval = 0, a_s = 0, a_peak = 0, refused = 0;
    double p_exp = 0, p_routed = 0, p_s = 0, p_peak = 0, p1_s = 0;
    for (const auto &[b, c] : exact_cost) {
        astar_ms.push_back(c.astarMs);
        par_ms.push_back(c.parMs);
        a_exp += static_cast<double>(c.astar.nodesExpanded);
        a_eval += static_cast<double>(c.astar.evaluations);
        a_s += c.astarMs / 1000.0;
        a_peak = std::max(a_peak,
                          static_cast<double>(c.astar.peakMemory) / kMiB);
        refused += c.refused ? 1.0 : 0.0;
        p_exp += static_cast<double>(c.par.nodesExpanded);
        p_routed += static_cast<double>(c.par.nodesRouted);
        p_s += c.parMs / 1000.0;
        p1_s += c.par1Ms / 1000.0;
        p_peak = std::max(p_peak,
                          static_cast<double>(c.par.peakMemory) / kMiB);
    }
    const double n_exact = static_cast<double>(exact_cost.size());

    const std::map<std::string, double> values = {
        {"service.front_end_ms_p50", percentile(front, 0.5)},
        {"service.front_end_ms_p90", percentile(front, 0.9)},
        {"service.unattributed_ms_p50", percentile(unattributed, 0.5)},
        {"service.queue_wait_ms_p50", percentile(queue, 0.5)},
        {"service.queue_wait_ms_p90", percentile(queue, 0.9)},
        {"service.solve_ms_p50", percentile(solve, 0.5)},
        {"service.shed_frac",
         ratio(delta(db, da, "service.requests.shed") +
                   delta(db, da, "service.requests.expired"),
               delta(db, da, "service.requests.accepted"))},
        {"protocol.parse_ms_p50", percentile(parse_ms, 0.5)},
        {"protocol.parse_mb_per_s", ratio(parse_bytes / 1e6, parse_s)},
        {"protocol.serialize_ms_p50", percentile(serialize_ms, 0.5)},
        {"result_cache.hit_frac",
         ratio(rc_hits,
               rc_hits + delta(db, da, "service.result_cache.misses"))},
        {"result_cache.bytes", valueOf(da, "service.result_cache.bytes")},
        {"exec.eval_cache.hit_frac",
         ratio(ec_hits, ec_hits + delta(db, da, "exec.cache.misses"))},
        {"exec.pool.busy_ms_per_req",
         ratio(delta(db, da, "exec.pool.busy_ns") / 1e6, processed)},
        {"exec.pool.tasks_per_req",
         ratio(delta(db, da, "exec.pool.tasks"), processed)},
        {"core.lower_bound_ms_p50", median(lb)},
        {"core.iar_ms_p50", median(iar)},
        {"core.iar_us_per_kcall", ratio(iar_ms * 1000.0, kcalls)},
        {"core.single_level_ms_p50", median(single)},
        {"core.astar.solve_ms_p50", median(astar_ms)},
        {"core.astar.expansions_per_s", ratio(a_exp, a_s)},
        {"core.astar.evals_per_s", ratio(a_eval, a_s)},
        {"core.astar.peak_mb", a_peak},
        {"core.astar.refused_frac", ratio(refused, n_exact)},
        {"core.astar_par.solve_ms_p50", median(par_ms)},
        {"core.astar_par.expansions_per_s", ratio(p_exp, p_s)},
        {"core.astar_par.routed_per_expanded", ratio(p_routed, p_exp)},
        {"core.astar_par.peak_mb", p_peak},
        {"core.astar_par.speedup_vs_1worker", ratio(p1_s, p_s)},
        {"sim.simulate_us_per_kcall", ratio(sim_us, sim_kcalls)},
        {"vm.jikes_ms_p50", median(jikes)},
        {"vm.v8_ms_p50", median(v8)},
        {"cluster.relay_ms_p50", percentile(relay, 0.5)},
        {"cluster.retry_frac",
         ratio(delta(run.routerBefore, run.routerAfter,
                     "cluster.requests.retried") +
                   delta(run.routerBefore, run.routerAfter,
                         "cluster.requests.spilled"),
               delta(run.routerBefore, run.routerAfter,
                     "cluster.requests.routed"))},
    };
    std::vector<Metric> out;
    for (const auto &[name, unit] : layerMetricUnits(exact))
        out.push_back({name, values.at(name), unit});
    return out;
}

} // namespace perfbench
