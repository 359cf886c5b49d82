#include "exec/eval_cache.hh"

#include <bit>
#include <cstring>

#include "obs/instruments.hh"

namespace jitsched {

namespace {

/** SplitMix64 finalizer: the avalanche step used throughout. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Running hash accumulator (order-sensitive). */
struct Hasher
{
    std::uint64_t state = 0x2545f4914f6cdd1dull;

    void
    add(std::uint64_t v)
    {
        state = mix64(state ^ mix64(v));
    }

    void
    addSigned(std::int64_t v)
    {
        add(static_cast<std::uint64_t>(v));
    }

    void
    addDouble(double v)
    {
        add(std::bit_cast<std::uint64_t>(v));
    }

    void
    addString(const std::string &s)
    {
        add(s.size());
        std::uint64_t word = 0;
        std::size_t filled = 0;
        for (const char c : s) {
            word |= static_cast<std::uint64_t>(
                        static_cast<unsigned char>(c))
                    << (8 * filled);
            if (++filled == 8) {
                add(word);
                word = 0;
                filled = 0;
            }
        }
        if (filled != 0)
            add(word);
    }
};

} // anonymous namespace

std::uint64_t
hashWorkload(const Workload &w)
{
    Hasher h;
    h.addString(w.name());
    h.add(w.numFunctions());
    for (const FunctionProfile &fp : w.functions()) {
        h.add(fp.size());
        h.add(fp.numLevels());
        for (std::size_t l = 0; l < fp.numLevels(); ++l) {
            const LevelCosts &c = fp.level(static_cast<Level>(l));
            h.addSigned(c.compile);
            h.addSigned(c.exec);
        }
    }
    h.add(w.numCalls());
    for (const FuncId f : w.calls())
        h.add(f);
    return h.state;
}

std::uint64_t
hashSchedule(const Schedule &s)
{
    Hasher h;
    h.add(s.size());
    for (const CompileEvent &ev : s.events()) {
        h.add(ev.func);
        h.add(ev.level);
    }
    return h.state;
}

std::uint64_t
hashSimOptions(const SimOptions &opts)
{
    Hasher h;
    h.add(opts.compileCores);
    h.addDouble(opts.execJitterSigma);
    h.add(opts.jitterSeed);
    return h.state;
}

EvalKey
makeEvalKey(const Workload &w, const Schedule &s,
            const SimOptions &opts)
{
    return EvalKey{hashWorkload(w), hashSchedule(s),
                   hashSimOptions(opts)};
}

std::size_t
EvalCache::KeyHash::operator()(const EvalKey &k) const
{
    return static_cast<std::size_t>(
        mix64(k.workload ^ mix64(k.schedule ^ mix64(k.options))));
}

EvalCache::Shard &
EvalCache::shardFor(const EvalKey &key)
{
    return shards_[KeyHash{}(key) % kNumShards];
}

const EvalCache::Shard &
EvalCache::shardFor(const EvalKey &key) const
{
    return const_cast<EvalCache *>(this)->shardFor(key);
}

std::optional<SimResult>
EvalCache::lookup(const EvalKey &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lk(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        JITSCHED_OBS(obs::ExecMetrics::get().cacheMisses.add());
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    JITSCHED_OBS(obs::ExecMetrics::get().cacheHits.add());
    return it->second;
}

void
EvalCache::insert(const EvalKey &key, const SimResult &result)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lk(shard.mutex);
    shard.map[key] = result;
}

std::size_t
EvalCache::size() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard.mutex);
        total += shard.map.size();
    }
    return total;
}

void
EvalCache::clear()
{
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard.mutex);
        shard.map.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
}

} // namespace jitsched
