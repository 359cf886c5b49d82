#include "core/astar_par.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/iar.hh"
#include "core/prefix_sim.hh"
#include "core/search_util.hh"
#include "exec/mpsc_queue.hh"
#include "obs/instruments.hh"
#include "support/logging.hh"

namespace jitsched {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Signature width cap for duplicate detection (see
 * AStarConfig::duplicateDetection).
 */
constexpr std::size_t kDuplicateMaxFunctions = 64;

/**
 * Arena node of one worker.  A parent may live on another worker, so
 * the reference is (worker, index); the root is node (0, 0) and is
 * the only node without an event.
 */
struct ParNode
{
    std::int32_t parentWorker = -1;
    std::int64_t parentIndex = -1;
    CompileEvent event;
    Tick f = 0;
};

/** Open-list entry (small, by design: the queue is the hot set). */
struct OpenEntry
{
    Tick f;
    std::int64_t index;

    bool
    operator>(const OpenEntry &other) const
    {
        if (f != other.f)
            return f > other.f;
        // Depth-first among equal-f nodes: newer (deeper) nodes pop
        // first, so complete schedules surface as soon as their
        // total cost matches the current bound.  Optimality is
        // unaffected — only the order among equally-promising nodes.
        return index < other.index;
    }
};

/**
 * A generated node in flight to its owning worker.  It carries its
 * full signature (WITH the generating event applied): the owner
 * cannot walk a cross-worker parent chain while the parent's arena
 * is being appended to, so every expansion reads the signature from
 * its own node instead of rebuilding it from ancestors.
 */
struct NodeMsg
{
    PrefixSimState state;
    std::vector<LevelSig> sig;
    Tick f = 0;
    CompileEvent event;
    std::int32_t parentWorker = -1;
    std::int64_t parentIndex = -1;
    std::uint32_t uncompiled = 0;
};

/** Per-worker private search state; touched only by its owner. */
struct Worker
{
    explicit Worker(std::size_t dedup_functions)
        : table(dedup_functions)
    {
    }

    std::vector<ParNode> arena;
    std::vector<PrefixSimState> states;
    std::vector<LevelSig> sigs;            ///< arena.size() * numF
    std::vector<std::uint32_t> uncompiled; ///< per arena node
    std::priority_queue<OpenEntry, std::vector<OpenEntry>,
                        std::greater<OpenEntry>>
        open;
    DuplicateTable table;

    std::uint64_t expanded = 0;
    std::uint64_t generated = 0;
    std::uint64_t prunedDup = 0;
    std::uint64_t prunedInc = 0;
    std::uint64_t routed = 0;
    std::uint64_t evals = 0;
    std::uint64_t maxInboxDepth = 0;

    std::size_t openHighWater = 0;
    std::uint64_t peakArena = 0;
    std::uint64_t peakOpen = 0;
    std::uint64_t peakTable = 0;
};

/** State shared by every worker. */
struct Shared
{
    const Workload &w;
    const AStarConfig &cfg;
    const PrefixEvaluator evaluator;
    std::size_t numWorkers;
    std::size_t numF;
    bool dedup;
    Tick lb = 0;
    std::uint64_t nodeBytes = 0;
    Clock::time_point t0;

    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::unique_ptr<MpscQueue<NodeMsg>>> inboxes;

    /**
     * Nodes generated but not yet fully expanded or pruned.  A sender
     * increments for each child *before* delivering it and
     * decrements for the expanded parent only afterwards, so the
     * counter can never transiently hit zero while work exists; once
     * zero it stays zero — quiescence, and the incumbent is optimal.
     */
    std::atomic<std::int64_t> live{0};

    /**
     * Best-known complete cost in f units: the IAR seed, or maxTick
     * when the search runs unseeded (plain A*).
     */
    std::atomic<Tick> incumbentF{maxTick};

    /** Improvement bookkeeping, off the hot path. */
    std::mutex incMutex;
    std::int32_t bestWorker = -1; ///< guarded by incMutex
    std::int64_t bestIndex = -1;  ///< guarded by incMutex
    std::uint64_t improvements = 0;
    std::vector<AStarResult::IncumbentEvent> trail;

    /** 0 = keep running; otherwise the AStarStop cause. */
    std::atomic<int> stop{0};

    std::atomic<std::uint64_t> expansions{0};

    /** Per-worker accounted bytes (relaxed; budget enforcement). */
    std::vector<std::atomic<std::uint64_t>> memBytes;

    Shared(const Workload &workload, const AStarConfig &config)
        : w(workload), cfg(config), evaluator(workload)
    {
    }
};

void
raiseStop(Shared &sh, AStarStop cause)
{
    int expected = 0;
    sh.stop.compare_exchange_strong(expected,
                                    static_cast<int>(cause),
                                    std::memory_order_relaxed);
}

double
secondsSince(const Clock::time_point &t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Update worker memory peaks; raise the Memory stop on overrun. */
void
account(Shared &sh, Worker &me, std::uint32_t self)
{
    const std::uint64_t arena_mem = me.arena.size() * sh.nodeBytes;
    me.openHighWater = std::max(me.openHighWater, me.open.size());
    const std::uint64_t open_mem =
        me.openHighWater * sizeof(OpenEntry);
    const std::uint64_t table_mem = sh.dedup ? me.table.bytes() : 0;
    me.peakArena = std::max(me.peakArena, arena_mem);
    me.peakOpen = std::max(me.peakOpen, open_mem);
    me.peakTable = std::max(me.peakTable, table_mem);
    const std::uint64_t mine = arena_mem + open_mem + table_mem;
    sh.memBytes[self].store(mine, std::memory_order_relaxed);

    std::uint64_t total = 0;
    for (const auto &b : sh.memBytes)
        total += b.load(std::memory_order_relaxed);
    if (total > sh.cfg.memoryBudget)
        raiseStop(sh, AStarStop::Memory);
}

/**
 * Deliver one generated node into the owner's structures: duplicate
 * and incumbent checks, then store + enqueue.  Runs on the owning
 * worker only.  The caller has already counted the node in sh.live;
 * pruning releases that count here.
 */
void
receiveNode(Shared &sh, Worker &me, std::uint32_t self,
            const PrefixSimState &state, const LevelSig *sig,
            Tick f, CompileEvent event, std::int32_t parent_worker,
            std::int64_t parent_index, std::uint32_t uncompiled)
{
    if (f >= sh.incumbentF.load(std::memory_order_relaxed)) {
        ++me.prunedInc;
        sh.live.fetch_sub(1, std::memory_order_acq_rel);
        return;
    }
    if (sh.dedup && me.table.seen(state, sig)) {
        ++me.prunedDup;
        sh.live.fetch_sub(1, std::memory_order_acq_rel);
        return;
    }
    const auto idx = static_cast<std::int64_t>(me.arena.size());
    me.arena.push_back(
        ParNode{parent_worker, parent_index, event, f});
    me.states.push_back(state);
    me.sigs.insert(me.sigs.end(), sig, sig + sh.numF);
    me.uncompiled.push_back(uncompiled);
    me.open.push({f, idx});
    ++me.generated;
    account(sh, me, self);
}

/** Record a closed leaf that beats the incumbent (raced re-check). */
void
tryImprove(Shared &sh, std::uint32_t self, std::int64_t node_index,
           Tick total)
{
    std::lock_guard<std::mutex> g(sh.incMutex);
    if (total >= sh.incumbentF.load(std::memory_order_relaxed))
        return;
    sh.incumbentF.store(total, std::memory_order_relaxed);
    sh.bestWorker = static_cast<std::int32_t>(self);
    sh.bestIndex = node_index;
    ++sh.improvements;
    sh.trail.push_back({secondsSince(sh.t0), sh.lb + total,
                        static_cast<std::uint32_t>(self)});
}

void
expandNode(Shared &sh, Worker &me, std::uint32_t self,
           std::int64_t idx, std::vector<LevelSig> &sig_scratch,
           std::vector<LevelSig> &child_sig)
{
    ++me.expanded;
    const std::uint64_t total_expanded =
        sh.expansions.fetch_add(1, std::memory_order_relaxed) + 1;
    if (sh.cfg.maxExpansions != 0 &&
        total_expanded > sh.cfg.maxExpansions)
        raiseStop(sh, AStarStop::Expansions);

    // Copies: self-delivered children below reallocate the vectors.
    const PrefixSimState pstate = me.states[idx];
    const std::uint32_t uncompiled = me.uncompiled[idx];
    sig_scratch.assign(
        me.sigs.begin() + idx * static_cast<std::int64_t>(sh.numF),
        me.sigs.begin() +
            (idx + 1) * static_cast<std::int64_t>(sh.numF));

    // Closing evaluation: leaves are priced inline and never stored
    // — an improvement tightens the global incumbent immediately,
    // which is what makes the search anytime.
    if (uncompiled == 0) {
        ++me.evals;
        const Tick total =
            sh.evaluator.complete(pstate, sig_scratch.data());
        if (total < sh.incumbentF.load(std::memory_order_relaxed))
            tryImprove(sh, self, idx, total);
        else
            ++me.prunedInc;
    }

    const Workload &w = sh.w;
    for (std::size_t i = 0; i < sh.numF; ++i) {
        const auto func = static_cast<FuncId>(i);
        if (w.callCount(func) == 0)
            continue;
        const auto &prof = w.function(func);
        for (int l = sig_scratch[i] + 1;
             l < static_cast<int>(prof.numLevels()); ++l) {
            const CompileEvent ev{func, static_cast<Level>(l)};
            ++me.evals;
            const PrefixStep step =
                sh.evaluator.append(pstate, sig_scratch.data(), ev);
            if (step.f >=
                sh.incumbentF.load(std::memory_order_relaxed)) {
                ++me.prunedInc;
                continue;
            }
            child_sig = sig_scratch;
            child_sig[i] = static_cast<LevelSig>(l);
            const std::uint32_t child_unc =
                uncompiled - (sig_scratch[i] < 0 ? 1u : 0u);
            const std::uint32_t owner = static_cast<std::uint32_t>(
                DuplicateTable::stateHash(step.state,
                                          child_sig.data(), sh.numF) %
                sh.numWorkers);

            // Count the child live BEFORE delivering it (and before
            // this parent's own decrement) — the termination
            // counter's core invariant.
            sh.live.fetch_add(1, std::memory_order_acq_rel);
            if (owner == self) {
                receiveNode(sh, me, self, step.state,
                            child_sig.data(), step.f, ev,
                            static_cast<std::int32_t>(self), idx,
                            child_unc);
            } else {
                sh.inboxes[owner]->push(
                    NodeMsg{step.state, child_sig, step.f, ev,
                            static_cast<std::int32_t>(self), idx,
                            child_unc});
                ++me.routed;
                me.maxInboxDepth = std::max<std::uint64_t>(
                    me.maxInboxDepth, sh.inboxes[owner]->depth());
            }
        }
    }

    // The expanded node is no longer live; its children are.
    sh.live.fetch_sub(1, std::memory_order_acq_rel);
}

void
workerMain(Shared &sh, std::uint32_t self)
{
    Worker &me = *sh.workers[self];
    MpscQueue<NodeMsg> &inbox = *sh.inboxes[self];
    std::vector<LevelSig> sig_scratch(sh.numF);
    std::vector<LevelSig> child_sig(sh.numF);
    NodeMsg msg;

    const bool deadline_set = sh.cfg.anytimeDeadlineMs > 0;
    const Clock::time_point deadline =
        sh.t0 +
        std::chrono::milliseconds(
            deadline_set ? sh.cfg.anytimeDeadlineMs : 0);

    for (;;) {
        // Drain the inbox first so the open list always reflects
        // every delivered node before the next best-first pop.
        while (inbox.pop(msg)) {
            receiveNode(sh, me, self, msg.state, msg.sig.data(),
                        msg.f, msg.event, msg.parentWorker,
                        msg.parentIndex, msg.uncompiled);
        }

        if (sh.stop.load(std::memory_order_relaxed) != 0)
            return;
        if (deadline_set && Clock::now() >= deadline) {
            raiseStop(sh, AStarStop::Deadline);
            return;
        }

        if (me.open.empty()) {
            // Quiescent?  live == 0 can only be read after every
            // in-flight child was delivered and pruned/expanded, so
            // a zero here is global and final.
            if (sh.live.load(std::memory_order_acquire) == 0)
                return;
            std::this_thread::yield();
            continue;
        }

        // The whole open list is dominated by the incumbent: the
        // top is the minimum, so every entry has f >= incumbent and
        // none can lead to an improvement.  Drop them all — this is
        // how a pruned search quiesces.
        const Tick inc =
            sh.incumbentF.load(std::memory_order_relaxed);
        if (me.open.top().f >= inc) {
            const auto dropped =
                static_cast<std::int64_t>(me.open.size());
            me.prunedInc += static_cast<std::uint64_t>(dropped);
            me.open = {};
            sh.live.fetch_sub(dropped, std::memory_order_acq_rel);
            continue;
        }

        const std::int64_t idx = me.open.top().index;
        me.open.pop();
        expandNode(sh, me, self, idx, sig_scratch, child_sig);
    }
}

/**
 * The search itself, shared by both entry points: @p num_workers
 * workers, with the IAR incumbent seeded when @p seed_incumbent.
 * Returns Optimal, or Incumbent when a budget in @p cfg tripped.
 */
AStarResult
runSearch(const Workload &w, const AStarConfig &cfg,
          std::size_t num_workers, bool seed_incumbent)
{
    Shared sh(w, cfg);
    sh.numWorkers = num_workers;
    sh.numF = w.numFunctions();
    sh.dedup = cfg.duplicateDetection &&
               sh.numF <= kDuplicateMaxFunctions;
    sh.nodeBytes = sizeof(ParNode) + sizeof(PrefixSimState) +
                   sizeof(std::uint32_t) +
                   sh.numF * sizeof(LevelSig) + 16;
    sh.t0 = Clock::now();

    const std::vector<Tick> &best_exec = sh.evaluator.bestExec();
    for (const FuncId f : w.calls())
        sh.lb += best_exec[f];

    AStarResult res;
    res.bytesPerNode = sh.nodeBytes;

    // Incumbent seed: the IAR schedule priced through the search's
    // own cost model, so f units match exactly.  Unseeded, the first
    // closing leaf installs the first incumbent.
    Schedule seed_schedule;
    if (seed_incumbent) {
        seed_schedule = iarUpperBound(w).schedule;
        const Tick seed_f =
            evalComplete(w, seed_schedule.events(), best_exec);
        sh.incumbentF.store(seed_f, std::memory_order_relaxed);
        sh.trail.push_back({0.0, sh.lb + seed_f, 0});
        res.evaluations = 1;
    }

    sh.workers.reserve(num_workers);
    sh.inboxes.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) {
        sh.workers.push_back(
            std::make_unique<Worker>(sh.dedup ? sh.numF : 0));
        sh.inboxes.push_back(
            std::make_unique<MpscQueue<NodeMsg>>());
    }
    sh.memBytes =
        std::vector<std::atomic<std::uint64_t>>(num_workers);

    // Root (empty prefix) lives on worker 0 at index 0 — the one
    // node reconstruction recognizes as event-less.
    {
        Worker &w0 = *sh.workers[0];
        w0.arena.push_back(ParNode{-1, -1, CompileEvent{}, 0});
        w0.states.push_back(sh.evaluator.rootState());
        w0.sigs.assign(sh.numF, LevelSig{-1});
        w0.uncompiled.push_back(
            static_cast<std::uint32_t>(w.numCalledFunctions()));
        w0.open.push({0, 0});
        w0.generated = 1;
        account(sh, w0, 0);
    }
    sh.live.store(1, std::memory_order_relaxed);

    if (num_workers == 1) {
        workerMain(sh, 0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(num_workers);
        for (std::size_t i = 0; i < num_workers; ++i)
            threads.emplace_back(
                workerMain, std::ref(sh),
                static_cast<std::uint32_t>(i));
        for (std::thread &t : threads)
            t.join();
    }

    // ---- Single-threaded epilogue (joins synchronize all state).

    const Tick incumbent_f =
        sh.incumbentF.load(std::memory_order_relaxed);
    const auto stop_cause =
        static_cast<AStarStop>(sh.stop.load(
            std::memory_order_relaxed));

    // Remaining frontier: open lists plus undelivered messages.
    // Every unexplored complete schedule sits below one of these
    // nodes (or below an incumbent-pruned node, bounded by the
    // incumbent itself), so min-alive f bounds the optimum from
    // below.
    Tick min_alive = maxTick;
    for (std::size_t i = 0; i < num_workers; ++i) {
        Worker &wk = *sh.workers[i];
        if (!wk.open.empty())
            min_alive = std::min(min_alive, wk.open.top().f);
        NodeMsg msg;
        while (sh.inboxes[i]->pop(msg))
            min_alive = std::min(min_alive, msg.f);
    }
    min_alive = std::min(min_alive, incumbent_f);

    if (stop_cause == AStarStop::None) {
        res.status = AStarStatus::Optimal;
        res.gapBound = 0;
    } else {
        res.status = AStarStatus::Incumbent;
        res.gapBound = incumbent_f - min_alive;
    }
    res.stopCause = stop_cause;
    // maxTick: unseeded and stopped before any leaf closed.
    res.makespan = incumbent_f == maxTick ? 0 : sh.lb + incumbent_f;

    if (sh.bestWorker < 0) {
        // No leaf beat the seed: the IAR schedule is the answer.
        // Unseeded, a complete run always closes a leaf.
        if (!seed_incumbent && stop_cause == AStarStop::None)
            JITSCHED_PANIC("A* open list exhausted without a goal");
        res.schedule = std::move(seed_schedule);
    } else {
        std::vector<CompileEvent> events;
        std::int32_t wk = sh.bestWorker;
        std::int64_t ix = sh.bestIndex;
        while (!(wk == 0 && ix == 0)) {
            const ParNode &n =
                sh.workers[static_cast<std::size_t>(wk)]
                    ->arena[static_cast<std::size_t>(ix)];
            events.push_back(n.event);
            wk = n.parentWorker;
            ix = n.parentIndex;
        }
        std::reverse(events.begin(), events.end());
        res.schedule = Schedule(std::move(events));
    }

    res.incumbentImprovements = sh.improvements;
    res.incumbentTrail = std::move(sh.trail);
    res.workerExpansions.resize(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) {
        const Worker &wk = *sh.workers[i];
        res.workerExpansions[i] = wk.expanded;
        res.nodesExpanded += wk.expanded;
        res.nodesGenerated += wk.generated;
        res.nodesPruned += wk.prunedDup;
        res.nodesPrunedIncumbent += wk.prunedInc;
        res.nodesRouted += wk.routed;
        res.evaluations += wk.evals;
        res.maxInboxDepth =
            std::max(res.maxInboxDepth, wk.maxInboxDepth);
        res.peakArenaBytes += wk.peakArena;
        res.peakOpenBytes += wk.peakOpen;
        res.peakTableBytes += wk.peakTable;
    }
    // Sum of per-worker peaks: a (slight) over-estimate of the true
    // simultaneous high-water mark, consistent with what the budget
    // check enforces.
    res.peakMemory =
        res.peakArenaBytes + res.peakOpenBytes + res.peakTableBytes;

    return res;
}

} // anonymous namespace

AStarResult
aStarOptimal(const Workload &w, const AStarConfig &cfg)
{
    if (w.numCalls() == 0)
        JITSCHED_FATAL("aStarOptimal: empty call sequence");

    AStarConfig one = cfg;
    one.anytimeDeadlineMs = 0;
    AStarResult res = runSearch(w, one, 1, cfg.incumbentPruning);

    // Refuse on budget: an anytime stop carries no schedule here.
    if (res.status == AStarStatus::Incumbent) {
        res.status = res.stopCause == AStarStop::Memory
                         ? AStarStatus::OutOfMemory
                         : AStarStatus::ExpansionCap;
        res.schedule = Schedule();
        res.makespan = 0;
        res.gapBound = 0;
        res.stopCause = AStarStop::None;
    }

#ifndef JITSCHED_OBS_DISABLED
    // The result struct stays the deterministic, tested API; the
    // registry instruments are the monitoring surface, fed in one
    // bulk update per search.
    obs::SolverMetrics &m = obs::SolverMetrics::get();
    m.astarSearches.add();
    m.astarNodesExpanded.add(res.nodesExpanded);
    m.astarNodesGenerated.add(res.nodesGenerated);
    m.astarNodesPruned.add(res.nodesPruned);
    m.astarEvaluations.add(res.evaluations);
    m.astarPeakMemoryBytes.setMax(
        static_cast<std::int64_t>(res.peakMemory));
    m.astarPeakArenaBytes.setMax(
        static_cast<std::int64_t>(res.peakArenaBytes));
#endif
    return res;
}

AStarResult
aStarParallel(const Workload &w, const AStarConfig &cfg)
{
    if (w.numCalls() == 0)
        JITSCHED_FATAL("aStarParallel: empty call sequence");

    std::size_t num_workers = cfg.threads;
    if (num_workers == 0) {
        num_workers = std::thread::hardware_concurrency();
        if (num_workers == 0)
            num_workers = 1;
    }
    AStarResult res = runSearch(w, cfg, num_workers, true);

#ifndef JITSCHED_OBS_DISABLED
    {
        obs::SolverMetrics &m = obs::SolverMetrics::get();
        m.astarParSearches.add();
        m.astarParNodesExpanded.add(res.nodesExpanded);
        m.astarParNodesGenerated.add(res.nodesGenerated);
        m.astarParNodesPruned.add(res.nodesPruned);
        m.astarParNodesPrunedIncumbent.add(res.nodesPrunedIncumbent);
        m.astarParNodesRouted.add(res.nodesRouted);
        m.astarParIncumbentImprovements.add(
            res.incumbentImprovements);
        m.astarParEvaluations.add(res.evaluations);
        m.astarParPeakMemoryBytes.setMax(
            static_cast<std::int64_t>(res.peakMemory));
        m.astarParMaxInboxDepth.setMax(
            static_cast<std::int64_t>(res.maxInboxDepth));
        m.astarParWorkers.set(
            static_cast<std::int64_t>(num_workers));
    }
#endif

    return res;
}

} // namespace jitsched
