#include "qa/oracles.hh"

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/astar.hh"
#include "core/astar_par.hh"
#include "core/brute_force.hh"
#include "core/candidate_levels.hh"
#include "core/iar.hh"
#include "core/lower_bound.hh"
#include "core/prefix_sim.hh"
#include "core/search_util.hh"
#include "core/single_level.hh"
#include "qa/fuzz_workload.hh"
#include "sim/makespan.hh"

namespace jitsched {
namespace qa {

namespace {

void
report(std::vector<Violation> &out, std::string oracle,
       std::string detail)
{
    out.push_back({std::move(oracle), std::move(detail)});
}

/** (completion, level) versions per function, independently timed. */
std::vector<std::vector<std::pair<Tick, Level>>>
versionTable(const Workload &w, const Schedule &s, Tick *compile_end)
{
    std::vector<std::vector<std::pair<Tick, Level>>> versions(
        w.numFunctions());
    Tick clock = 0;
    for (const CompileEvent &ev : s.events()) {
        clock += w.function(ev.func).compileTime(ev.level);
        versions[ev.func].push_back({clock, ev.level});
    }
    if (compile_end != nullptr)
        *compile_end = clock;
    return versions;
}

/** Per-event and per-call detail captured from the simulator. */
class Capture : public SimObserver
{
  public:
    struct CallRec
    {
        FuncId func;
        Tick start;
        Tick duration;
        Level level;
    };

    std::vector<Tick> compileDone;
    std::vector<CallRec> calls;

    void
    onCompiled(std::size_t, const CompileEvent &, Tick completion) override
    {
        compileDone.push_back(completion);
    }

    void
    onCall(std::size_t, FuncId f, Tick start, Tick duration,
           Level level_used) override
    {
        calls.push_back({f, start, duration, level_used});
    }
};

} // anonymous namespace

Tick
referenceMakespan(const Workload &w, const Schedule &s)
{
    const auto versions = versionTable(w, s, nullptr);
    Tick now = 0;
    for (const FuncId f : w.calls()) {
        const auto &vers = versions[f];
        const Tick start = std::max(now, vers.front().first);
        Level level = vers.front().second;
        for (const auto &[done, lvl] : vers) {
            if (done <= start)
                level = lvl;
            else
                break;
        }
        now = start + w.function(f).execTime(level);
    }
    return now;
}

void
checkScheduleSemantics(const Workload &w, const Schedule &s,
                       const std::string &who,
                       std::vector<Violation> &out)
{
    std::string err;
    if (!s.validate(w, &err)) {
        report(out, "schedule-valid", who + ": " + err);
        return; // simulate() would panic on an invalid schedule
    }

    Capture capture;
    const SimResult res = simulate(w, s, {}, capture);

    // Compile-side timing: one core, prefix sums — no CompileQueue.
    Tick compile_end = 0;
    const auto versions = versionTable(w, s, &compile_end);
    if (capture.compileDone.size() != s.size()) {
        report(out, "compile-timing",
               who + ": simulator reported " +
                   std::to_string(capture.compileDone.size()) +
                   " completions for " + std::to_string(s.size()) +
                   " events");
        return;
    }
    {
        Tick clock = 0;
        for (std::size_t i = 0; i < s.size(); ++i) {
            clock += w.function(s[i].func).compileTime(s[i].level);
            if (capture.compileDone[i] != clock) {
                report(out, "compile-timing",
                       who + ": event " + std::to_string(i) +
                           " completed at " +
                           std::to_string(capture.compileDone[i]) +
                           ", expected " + std::to_string(clock));
                return;
            }
        }
    }
    if (res.compileEnd != compile_end)
        report(out, "compile-timing",
               who + ": compileEnd " + std::to_string(res.compileEnd) +
                   " != " + std::to_string(compile_end));

    // Execution side: every call must start as early as possible and
    // run the latest version completed at or before its start.
    if (capture.calls.size() != w.numCalls()) {
        report(out, "call-replay",
               who + ": simulator reported " +
                   std::to_string(capture.calls.size()) +
                   " calls for " + std::to_string(w.numCalls()));
        return;
    }
    Tick now = 0;
    Tick bubble = 0;
    std::uint64_t bubbles = 0;
    Tick exec = 0;
    for (std::size_t i = 0; i < w.numCalls(); ++i) {
        const FuncId f = w.calls()[i];
        const auto &vers = versions[f];
        const Tick start = std::max(now, vers.front().first);
        Level level = vers.front().second;
        for (const auto &[done, lvl] : vers) {
            if (done <= start)
                level = lvl;
            else
                break;
        }
        const Tick dur = w.function(f).execTime(level);
        const Capture::CallRec &got = capture.calls[i];
        if (got.start != start || got.level != level ||
            got.duration != dur) {
            report(out, "call-replay",
                   who + ": call " + std::to_string(i) + " of f" +
                       std::to_string(f) + " ran (start=" +
                       std::to_string(got.start) + ", level=" +
                       std::to_string(int(got.level)) + ", dur=" +
                       std::to_string(got.duration) +
                       "), expected (start=" + std::to_string(start) +
                       ", level=" + std::to_string(int(level)) +
                       ", dur=" + std::to_string(dur) + ")");
            return;
        }
        if (start > now) {
            bubble += start - now;
            ++bubbles;
        }
        exec += dur;
        now = start + dur;
    }

    // Aggregate agreement and the time decomposition.
    if (res.makespan != now)
        report(out, "sim-agreement",
               who + ": makespan " + std::to_string(res.makespan) +
                   " != reference " + std::to_string(now));
    if (res.makespan != res.execEnd)
        report(out, "decomposition",
               who + ": makespan != execEnd");
    if (res.execEnd != res.totalExec + res.totalBubble)
        report(out, "decomposition",
               who + ": execEnd " + std::to_string(res.execEnd) +
                   " != totalExec + totalBubble " +
                   std::to_string(res.totalExec + res.totalBubble));
    if (res.totalBubble != bubble || res.bubbleCount != bubbles)
        report(out, "decomposition",
               who + ": bubble accounting (" +
                   std::to_string(res.totalBubble) + ", " +
                   std::to_string(res.bubbleCount) +
                   ") != reference (" + std::to_string(bubble) + ", " +
                   std::to_string(bubbles) + ")");
    if (res.totalExec != exec)
        report(out, "decomposition",
               who + ": totalExec " + std::to_string(res.totalExec) +
                   " != reference " + std::to_string(exec));
    std::uint64_t at_levels = 0;
    for (const std::uint64_t c : res.callsAtLevel)
        at_levels += c;
    if (at_levels != w.numCalls())
        report(out, "decomposition",
               who + ": callsAtLevel sums to " +
                   std::to_string(at_levels) + " over " +
                   std::to_string(w.numCalls()) + " calls");
}

std::vector<CompileEvent>
randomTreePath(const Workload &w, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<LevelSig> sig(w.numFunctions(), -1);
    std::vector<CompileEvent> events;
    for (;;) {
        // Children of the current node: any called function, any
        // level above its last compiled one.
        std::vector<CompileEvent> children;
        for (std::size_t i = 0; i < w.numFunctions(); ++i) {
            const auto f = static_cast<FuncId>(i);
            if (w.callCount(f) == 0)
                continue;
            for (int l = sig[i] + 1;
                 l < static_cast<int>(w.function(f).numLevels()); ++l)
                children.push_back({f, static_cast<Level>(l)});
        }
        if (children.empty())
            return events;
        const CompileEvent ev = children[rng() % children.size()];
        events.push_back(ev);
        sig[ev.func] = ev.level;
    }
}

void
checkIncrementalPath(const Workload &w,
                     const std::vector<CompileEvent> &events,
                     std::vector<Violation> &out)
{
    const PrefixEvaluator eval(w);
    const std::vector<Tick> best = bestExecTimes(w);
    const auto mismatch = [&](std::size_t depth, const char *what,
                              Tick incremental, Tick scratch) {
        report(out, "incremental-eval",
               std::string(what) + " at depth " +
                   std::to_string(depth) + ": incremental " +
                   std::to_string(incremental) + " != from-scratch " +
                   std::to_string(scratch));
    };

    std::vector<LevelSig> sig(w.numFunctions(), -1);
    std::vector<CompileEvent> prefix;
    PrefixSimState state = eval.rootState();
    const Tick root_f = evalPrefix(w, prefix, best).f();
    if (eval.rootF() != root_f) {
        mismatch(0, "f", eval.rootF(), root_f);
        return;
    }
    std::size_t uncompiled = w.numCalledFunctions();
    for (const CompileEvent &ev : events) {
        // Only tree paths are walked; an invalid schedule is the
        // semantics oracle's to report.
        if (ev.func >= w.numFunctions() || w.callCount(ev.func) == 0 ||
            static_cast<int>(ev.level) <= sig[ev.func] ||
            ev.level >= w.function(ev.func).numLevels())
            return;

        const PrefixStep next = eval.append(state, sig.data(), ev);
        if (sig[ev.func] < 0)
            --uncompiled;
        sig[ev.func] = ev.level;
        prefix.push_back(ev);

        const PrefixCost scratch = evalPrefix(w, prefix, best);
        if (next.state.compileEnd != scratch.compileEnd) {
            mismatch(prefix.size(), "compile end",
                     next.state.compileEnd, scratch.compileEnd);
            return;
        }
        if (next.f != scratch.f()) {
            mismatch(prefix.size(), "f", next.f, scratch.f());
            return;
        }
        // Once every called function is compiled, the resumed
        // complete walk must match the from-scratch one too.
        if (uncompiled == 0) {
            const Tick inc = eval.complete(next.state, sig.data());
            const Tick full = evalComplete(w, prefix, best);
            if (inc != full) {
                mismatch(prefix.size(), "complete cost", inc, full);
                return;
            }
        }
        state = next.state;
    }
}

void
checkQualityChain(const Workload &w, const OracleConfig &cfg,
                  std::vector<Violation> &out, OracleStats *stats)
{
    const auto cands = oracleCandidateLevels(w);
    const Tick lb = lowerBoundAllLevels(w);

    const Schedule base = baseLevelSchedule(w, cands);
    const Schedule opt = optimizingLevelSchedule(w, cands);
    const Schedule iar = iarSchedule(w, cands).schedule;
    checkScheduleSemantics(w, base, "base-only", out);
    checkScheduleSemantics(w, opt, "opt-only", out);
    checkScheduleSemantics(w, iar, "iar", out);

    const Tick m_base = simulate(w, base).makespan;
    const Tick m_opt = simulate(w, opt).makespan;
    const Tick m_iar = simulate(w, iar).makespan;

    const auto checkLb = [&](const std::string &who, Tick m) {
        const bool ok = cfg.invertLowerBound ? lb >= m : lb <= m;
        if (!ok)
            report(out, "lower-bound",
                   who + ": make-span " + std::to_string(m) +
                       " vs lower bound " + std::to_string(lb) +
                       (cfg.invertLowerBound ? " (inverted oracle)"
                                             : ""));
    };
    checkLb("base-only", m_base);
    checkLb("opt-only", m_opt);
    checkLb("iar", m_iar);

    // IAR starts from the base-level schedule and only refines it.
    if (m_iar > m_base)
        report(out, "approximation-order",
               "iar " + std::to_string(m_iar) + " > base-only " +
                   std::to_string(m_base));
    if (cfg.checkIarVsOptOnly && m_iar > m_opt)
        report(out, "approximation-order",
               "iar " + std::to_string(m_iar) + " > opt-only " +
                   std::to_string(m_opt));

    if (!cfg.runExact ||
        w.numCalledFunctions() > cfg.maxExactFunctions)
        return;

    const BruteForceResult bf =
        bruteForceOptimal(w, {.maxNodes = cfg.bruteMaxNodes});
    AStarConfig acfg;
    acfg.memoryBudget = cfg.astarMemoryBudget;
    acfg.maxExpansions = cfg.astarMaxExpansions;
    const AStarResult as = aStarOptimal(w, acfg);

    // Both exact solvers prune with the incremental PrefixEvaluator;
    // the from-scratch walk checks it along random tree paths here
    // and along every returned optimum below.
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        checkIncrementalPath(w, randomTreePath(w, seed), out);

    if (!bf.complete || as.status != AStarStatus::Optimal) {
        if (stats != nullptr)
            ++stats->exactSkipped;
        return; // budget exhausted, not a correctness signal
    }
    if (stats != nullptr)
        ++stats->exactRuns;

    checkIncrementalPath(w, bf.schedule.events(), out);
    checkIncrementalPath(w, as.schedule.events(), out);

    checkScheduleSemantics(w, bf.schedule, "brute-force", out);
    checkScheduleSemantics(w, as.schedule, "astar", out);

    // The solvers' own make-span accounting agrees with the
    // simulator's.
    if (simulate(w, bf.schedule).makespan != bf.makespan)
        report(out, "solver-accounting",
               "brute-force reported " + std::to_string(bf.makespan) +
                   ", simulator disagrees");
    if (simulate(w, as.schedule).makespan != as.makespan)
        report(out, "solver-accounting",
               "astar reported " + std::to_string(as.makespan) +
                   ", simulator disagrees");

    // Both exact solvers find the same optimum.
    if (bf.makespan != as.makespan)
        report(out, "exactness",
               "brute-force " + std::to_string(bf.makespan) +
                   " != astar " + std::to_string(as.makespan));

    // The hash-distributed parallel search finds the same cost at
    // every worker count — HDA* sharding, per-worker duplicate
    // tables and incumbent pruning must all be cost-preserving.
    if (cfg.runParallel) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
            AStarConfig pcfg;
            pcfg.memoryBudget = cfg.astarMemoryBudget;
            pcfg.maxExpansions = cfg.astarMaxExpansions;
            pcfg.threads = threads;
            const AStarResult par = aStarParallel(w, pcfg);
            if (par.status != AStarStatus::Optimal)
                continue; // anytime stop: budget, not correctness
            const std::string who =
                "astar-par(" + std::to_string(threads) + ")";
            const Tick reported =
                par.makespan + (cfg.perturbAstarPar ? 1 : 0);
            checkScheduleSemantics(w, par.schedule, who, out);
            checkIncrementalPath(w, par.schedule.events(), out);
            if (simulate(w, par.schedule).makespan != reported)
                report(out, "solver-accounting",
                       who + " reported " + std::to_string(reported) +
                           ", simulator disagrees");
            if (reported != as.makespan)
                report(out, "exactness",
                       who + " " + std::to_string(reported) +
                           " != astar " +
                           std::to_string(as.makespan));
        }
    }

    const auto checkOptLb = [&](Tick m) {
        const bool ok = cfg.invertLowerBound ? lb >= m : lb <= m;
        if (!ok)
            report(out, "lower-bound",
                   "optimum " + std::to_string(m) +
                       " vs lower bound " + std::to_string(lb) +
                       (cfg.invertLowerBound ? " (inverted oracle)"
                                             : ""));
    };
    checkOptLb(bf.makespan);

    // The optimum bounds every approximation from below.
    for (const auto &[who, m] :
         {std::pair<const char *, Tick>{"iar", m_iar},
          {"base-only", m_base},
          {"opt-only", m_opt}}) {
        if (bf.makespan > m)
            report(out, "approximation-order",
                   std::string("optimum ") +
                       std::to_string(bf.makespan) + " > " + who +
                       " " + std::to_string(m));
    }
}

void
checkMetamorphicRelations(const Workload &w, const OracleConfig &cfg,
                          std::vector<Violation> &out)
{
    if (!cfg.checkMetamorphic)
        return;

    const auto cands = oracleCandidateLevels(w);
    const Schedule base = baseLevelSchedule(w, cands);
    const Schedule iar = iarSchedule(w, cands).schedule;
    const Tick lb = lowerBoundAllLevels(w);

    // Appending calls never decreases a fixed schedule's make-span
    // (each extra call only adds execution time at the tail) nor the
    // lower bound (one more fastest-level term in the sum).
    const Workload longer = appendCalls(w, 1 + w.numCalls() / 2);
    if (lowerBoundAllLevels(longer) < lb)
        report(out, "metamorphic-append",
               "lower bound dropped from " + std::to_string(lb) +
                   " to " +
                   std::to_string(lowerBoundAllLevels(longer)) +
                   " after appending calls");
    for (const auto &[who, s] :
         {std::pair<const char *, const Schedule &>{"base-only", base},
          {"iar", iar}}) {
        const Tick before = simulate(w, s).makespan;
        const Tick after = simulate(longer, s).makespan;
        if (after < before)
            report(out, "metamorphic-append",
                   std::string(who) + ": make-span dropped from " +
                       std::to_string(before) + " to " +
                       std::to_string(after) +
                       " after appending calls");
    }

    // Scaling every time by k scales make-spans and the bound by
    // exactly k — the simulator is integer tick arithmetic with no
    // division, so this is an equality, not an approximation.
    constexpr Tick k = 3;
    const Workload scaled = scaleCosts(w, k);
    if (lowerBoundAllLevels(scaled) != k * lb)
        report(out, "metamorphic-scale",
               "lower bound " + std::to_string(lb) + " scaled to " +
                   std::to_string(lowerBoundAllLevels(scaled)) +
                   ", expected " + std::to_string(k * lb));
    for (const auto &[who, s] :
         {std::pair<const char *, const Schedule &>{"base-only", base},
          {"iar", iar}}) {
        const Tick before = simulate(w, s).makespan;
        const Tick after = simulate(scaled, s).makespan;
        if (after != k * before)
            report(out, "metamorphic-scale",
                   std::string(who) + ": make-span " +
                       std::to_string(before) + " scaled to " +
                       std::to_string(after) + ", expected " +
                       std::to_string(k * before));
    }

    // More compile cores never slow a static schedule (Sec. 6.2.3).
    Tick prev = maxTick;
    for (const std::size_t cores : {1u, 2u, 4u}) {
        const Tick m =
            simulate(w, iar, {.compileCores = cores}).makespan;
        if (m > prev)
            report(out, "metamorphic-cores",
                   "iar make-span rose from " + std::to_string(prev) +
                       " to " + std::to_string(m) + " going to " +
                       std::to_string(cores) + " compile cores");
        prev = m;
    }
}

std::vector<Violation>
checkAll(const Workload &w, const OracleConfig &cfg,
         OracleStats *stats)
{
    std::vector<Violation> out;
    if (w.numCalls() == 0)
        return out; // no behaviour to check; solvers reject these
    checkQualityChain(w, cfg, out, stats);
    checkMetamorphicRelations(w, cfg, out);
    return out;
}

std::string
describeViolations(const std::vector<Violation> &violations)
{
    std::string text;
    for (const Violation &v : violations)
        text += "[" + v.oracle + "] " + v.detail + "\n";
    return text;
}

} // namespace qa
} // namespace jitsched
