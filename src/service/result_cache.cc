#include "service/result_cache.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/instruments.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

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

/** Order-sensitive hash chain over raw bytes. */
std::uint64_t
chainBytes(std::uint64_t state, const std::string &bytes)
{
    state = mix64(state ^ mix64(bytes.size()));
    std::uint64_t word = 0;
    std::size_t filled = 0;
    for (const char c : bytes) {
        word |= static_cast<std::uint64_t>(
                    static_cast<unsigned char>(c))
                << (8 * filled);
        if (++filled == 8) {
            state = mix64(state ^ mix64(word));
            word = 0;
            filled = 0;
        }
    }
    if (filled != 0)
        state = mix64(state ^ mix64(word));
    return state;
}

bool
snapshotFail(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = "result-cache snapshot: " + msg;
    return false;
}

constexpr const char *kSnapshotMagic = "jitsched-result-cache v1";

/** Running checksum over the snapshot's entry stream. */
std::uint64_t
snapshotChecksum(const std::vector<std::pair<std::string,
                                             std::string>> &entries)
{
    std::uint64_t state = 0x2545f4914f6cdd1dull;
    state = mix64(state ^ mix64(entries.size()));
    for (const auto &[key, body] : entries) {
        state = chainBytes(state, key);
        state = chainBytes(state, body);
    }
    return state;
}

} // anonymous namespace

ResultCache::ResultCache(ResultCacheConfig cfg)
    : cfg_(cfg),
      nshards_(std::clamp<std::size_t>(cfg.shards, 1, 64))
{
    shards_.reserve(nshards_);
    for (std::size_t i = 0; i < nshards_; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard &
ResultCache::shardFor(std::uint64_t hash)
{
    // The canonical hash is already mixed; its low bits shard.
    return *shards_[hash % nshards_];
}

std::size_t
ResultCache::shardCapacity() const
{
    return std::max<std::size_t>(cfg_.capacityBytes / nshards_, 1);
}

std::size_t
ResultCache::maxEntryBytes() const
{
    if (cfg_.maxEntryBytes != 0)
        return cfg_.maxEntryBytes;
    return std::max<std::size_t>(cfg_.capacityBytes / 8, 1);
}

std::string
ResultCache::keyMaterial(const ServiceRequest &req)
{
    // The request body without the non-semantic fields: no id, no
    // deadline-ms, no trace-id.  jitter-seed follows the writer's
    // rule — omitted when sigma is 0, where the simulator never reads
    // it — so requests differing only in a dormant seed share one
    // entry.  threads stays in the key: the parallel search promises
    // cost determinism across worker counts, not schedule identity,
    // and the cache promises byte identity.
    std::string out;
    appendRequestBody(out, req, /*volatile_options=*/false);
    return out;
}

std::uint64_t
ResultCache::keyHash(const std::string &material)
{
    return chainBytes(0x9e3779b97f4a7c15ull, material);
}

ResultCache::Lru::iterator
ResultCache::findLocked(Shard &shard, std::uint64_t hash,
                        const std::string &material)
{
    const auto bucket = shard.index.find(hash);
    if (bucket == shard.index.end())
        return shard.lru.end();
    for (const Lru::iterator it : bucket->second)
        if (it->key == material) // full-key compare on hit
            return it;
    return shard.lru.end();
}

void
ResultCache::eraseIndexLocked(Shard &shard, Lru::iterator it)
{
    const auto bucket = shard.index.find(it->hash);
    if (bucket == shard.index.end())
        return;
    auto &chain = bucket->second;
    chain.erase(std::remove(chain.begin(), chain.end(), it),
                chain.end());
    if (chain.empty())
        shard.index.erase(bucket);
}

void
ResultCache::insertLocked(Shard &shard, std::string key,
                          std::string body, std::uint64_t hash,
                          bool count_insertion)
{
    const std::size_t charge =
        key.size() + body.size() + kEntryOverhead;
    if (charge > maxEntryBytes() || charge > shardCapacity()) {
        std::lock_guard<std::mutex> clk(counters_mutex_);
        ++counters_.oversized;
        return;
    }
    if (findLocked(shard, hash, key) != shard.lru.end())
        return; // a racing leader beat us; its body is identical

    std::uint64_t evicted = 0;
    while (shard.bytes + charge > shardCapacity() &&
           !shard.lru.empty()) {
        const Lru::iterator victim = std::prev(shard.lru.end());
        shard.bytes -= victim->key.size() + victim->body.size() +
                       kEntryOverhead;
        eraseIndexLocked(shard, victim);
        shard.lru.erase(victim);
        ++evicted;
    }

    shard.lru.push_front(Entry{std::move(key), std::move(body),
                               hash});
    shard.index[hash].push_back(shard.lru.begin());
    shard.bytes += charge;

    {
        std::lock_guard<std::mutex> clk(counters_mutex_);
        counters_.evictions += evicted;
        if (count_insertion)
            ++counters_.insertions;
    }
    // The size gauges are refreshed by the caller once the shard
    // lock is released: bytes()/entries() re-lock every shard, which
    // would self-deadlock here.
    JITSCHED_OBS({
        if (evicted != 0)
            obs::ServiceMetrics::get().resultCacheEvictions.add(
                evicted);
    });
}

ResultCache::Probe
ResultCache::begin(const ServiceRequest &req)
{
    Probe probe;
    if (!enabled())
        return probe; // Bypass: byte-for-byte today's behavior

    probe.key = keyMaterial(req);
    probe.hash = keyHash(probe.key);
    Shard &shard = shardFor(probe.hash);

    std::lock_guard<std::mutex> lk(shard.mutex);
    const Lru::iterator it = findLocked(shard, probe.hash, probe.key);
    if (it != shard.lru.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        probe.kind = Probe::Kind::Hit;
        probe.body = it->body;
        {
            std::lock_guard<std::mutex> clk(counters_mutex_);
            ++counters_.hits;
        }
        JITSCHED_OBS(
            obs::ServiceMetrics::get().resultCacheHits.add());
        return probe;
    }

    {
        std::lock_guard<std::mutex> clk(counters_mutex_);
        ++counters_.misses;
    }
    JITSCHED_OBS(obs::ServiceMetrics::get().resultCacheMisses.add());

    const auto flight = shard.flights.find(probe.key);
    if (flight != shard.flights.end()) {
        if (flight->second->waiters >= cfg_.maxWaiters) {
            // Bounded waiter list: overflow degrades to an
            // independent solve, never to an unbounded queue.
            {
                std::lock_guard<std::mutex> clk(counters_mutex_);
                ++counters_.waiterOverflow;
            }
            probe.kind = Probe::Kind::Bypass;
            return probe;
        }
        ++flight->second->waiters;
        probe.kind = Probe::Kind::Follower;
        probe.flight = flight->second;
        return probe;
    }

    probe.kind = Probe::Kind::Leader;
    probe.flight = std::make_shared<ResultCacheFlight>();
    shard.flights.emplace(probe.key, probe.flight);
    return probe;
}

void
ResultCache::publish(const Probe &probe, bool ok, std::string body)
{
    if (probe.flight == nullptr)
        return;
    Shard &shard = shardFor(probe.hash);
    {
        // Retire the flight first so late probers start a new one
        // instead of following a flight that already fired.
        std::lock_guard<std::mutex> lk(shard.mutex);
        shard.flights.erase(probe.key);
        if (ok)
            insertLocked(shard, probe.key, body, probe.hash,
                         /*count_insertion=*/true);
    }
    JITSCHED_OBS({
        obs::ServiceMetrics &m = obs::ServiceMetrics::get();
        m.resultCacheBytes.set(static_cast<std::int64_t>(bytes()));
        m.resultCacheEntries.set(
            static_cast<std::int64_t>(entries()));
    });
    {
        std::lock_guard<std::mutex> flk(probe.flight->mutex);
        probe.flight->done = true;
        probe.flight->ok = ok;
        probe.flight->body = std::move(body);
    }
    probe.flight->cv.notify_all();
}

ResultCache::WaitOutcome
ResultCache::waitFollower(
    const Probe &probe,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    bool *ok, std::string *body)
{
    ResultCacheFlight &flight = *probe.flight;
    bool ready = false;
    {
        std::unique_lock<std::mutex> lk(flight.mutex);
        const auto done = [&] { return flight.done; };
        if (deadline.has_value())
            ready = flight.cv.wait_until(lk, *deadline, done);
        else {
            flight.cv.wait(lk, done);
            ready = true;
        }
        if (ready) {
            *ok = flight.ok;
            *body = flight.body;
        }
    }
    {
        // The waiter slot frees under the shard lock that admitted it.
        Shard &shard = shardFor(probe.hash);
        std::lock_guard<std::mutex> lk(shard.mutex);
        if (probe.flight->waiters > 0)
            --probe.flight->waiters;
    }
    std::lock_guard<std::mutex> clk(counters_mutex_);
    if (ready) {
        ++counters_.collapsed;
        JITSCHED_OBS(
            obs::ServiceMetrics::get().resultCacheCollapsed.add());
        return WaitOutcome::Ready;
    }
    ++counters_.collapseTimeouts;
    return WaitOutcome::Timeout;
}

bool
ResultCache::saveSnapshot(const std::string &path, std::string *error,
                          std::size_t *entries_out,
                          std::size_t *bytes_out)
{
    // Collect MRU-first so a smaller restart capacity keeps the
    // hottest entries when the loader truncates the tail.
    std::vector<std::pair<std::string, std::string>> rows;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard->mutex);
        for (const Entry &e : shard->lru)
            rows.emplace_back(e.key, e.body);
    }

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return snapshotFail(error, "cannot open '" + path +
                            "' for writing");
    os << kSnapshotMagic << "\n";
    os << "entries " << rows.size() << "\n";
    std::size_t payload = 0;
    for (const auto &[key, body] : rows) {
        os << "entry " << key.size() << " " << body.size() << "\n";
        os.write(key.data(),
                 static_cast<std::streamsize>(key.size()));
        os.write(body.data(),
                 static_cast<std::streamsize>(body.size()));
        os << "\n";
        payload += key.size() + body.size();
    }
    os << "checksum "
       << strprintf("%016llx",
                    static_cast<unsigned long long>(
                        snapshotChecksum(rows)))
       << "\n";
    os << "end\n";
    os.flush();
    if (!os)
        return snapshotFail(error, "write to '" + path + "' failed");

    {
        std::lock_guard<std::mutex> clk(counters_mutex_);
        ++counters_.snapshotSaves;
    }
    JITSCHED_OBS(
        obs::ServiceMetrics::get().resultCacheSnapshotSaves.add());
    if (entries_out != nullptr)
        *entries_out = rows.size();
    if (bytes_out != nullptr)
        *bytes_out = payload;
    return true;
}

bool
ResultCache::loadSnapshot(const std::string &path, std::string *error,
                          std::size_t *entries_out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return snapshotFail(error, "cannot open '" + path + "'");

    std::string line;
    if (!std::getline(is, line) || line != kSnapshotMagic)
        return snapshotFail(error, "bad magic/version line '" + line +
                            "' (expected '" +
                            std::string(kSnapshotMagic) + "')");

    if (!std::getline(is, line))
        return snapshotFail(error, "truncated before entry count");
    std::uint64_t declared = 0;
    {
        std::istringstream ls(line);
        std::string key, count_tok;
        ls >> key >> count_tok;
        const auto n = parseInt(count_tok);
        if (key != "entries" || !n || *n < 0)
            return snapshotFail(error, "bad entries line '" + line +
                                "'");
        declared = static_cast<std::uint64_t>(*n);
    }
    // Entry-count sanity bound: a snapshot is size-capped at write
    // time, so an absurd count is corruption, not data.
    if (declared > (std::uint64_t(1) << 24))
        return snapshotFail(error, "implausible entry count " +
                            std::to_string(declared));

    // Validate everything before touching the cache: a corrupt tail
    // must not leave a half-loaded store behind.
    std::vector<std::pair<std::string, std::string>> rows;
    rows.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(declared, 1 << 16)));
    for (std::uint64_t i = 0; i < declared; ++i) {
        if (!std::getline(is, line))
            return snapshotFail(error, "truncated at entry " +
                                std::to_string(i));
        std::istringstream ls(line);
        std::string tag, key_tok, body_tok;
        ls >> tag >> key_tok >> body_tok;
        const auto key_len = parseInt(key_tok);
        const auto body_len = parseInt(body_tok);
        if (tag != "entry" || !key_len || *key_len < 0 || !body_len ||
            *body_len < 0)
            return snapshotFail(error, "bad entry header '" + line +
                                "'");
        constexpr std::int64_t kMaxLen = std::int64_t(1) << 26;
        if (*key_len > kMaxLen || *body_len > kMaxLen)
            return snapshotFail(error, "implausible entry length in '" +
                                line + "'");
        std::string key(static_cast<std::size_t>(*key_len), '\0');
        std::string body(static_cast<std::size_t>(*body_len), '\0');
        if (!is.read(key.data(),
                     static_cast<std::streamsize>(key.size())) ||
            !is.read(body.data(),
                     static_cast<std::streamsize>(body.size())))
            return snapshotFail(error, "truncated entry payload at "
                                "entry " + std::to_string(i));
        char nl = '\0';
        if (!is.get(nl) || nl != '\n')
            return snapshotFail(error, "entry " + std::to_string(i) +
                                " payload not newline-terminated");
        rows.emplace_back(std::move(key), std::move(body));
    }

    if (!std::getline(is, line))
        return snapshotFail(error, "truncated before checksum");
    {
        std::istringstream ls(line);
        std::string tag, hex;
        ls >> tag >> hex;
        if (tag != "checksum" || hex.size() != 16)
            return snapshotFail(error, "bad checksum line '" + line +
                                "'");
        const std::uint64_t stored =
            std::strtoull(hex.c_str(), nullptr, 16);
        if (stored != snapshotChecksum(rows))
            return snapshotFail(error, "checksum mismatch — the file "
                                "is corrupt");
    }
    if (!std::getline(is, line) || line != "end")
        return snapshotFail(error, "missing end trailer");

    // Replay MRU-first into an empty-tail position per shard: each
    // row lands at the LRU end, so file order becomes LRU order and
    // capacity overflow drops the coldest rows.
    std::size_t loaded = 0;
    for (auto &[key, body] : rows) {
        const std::uint64_t hash = keyHash(key);
        Shard &shard = shardFor(hash);
        std::lock_guard<std::mutex> lk(shard.mutex);
        const std::size_t charge =
            key.size() + body.size() + kEntryOverhead;
        if (charge > maxEntryBytes() ||
            shard.bytes + charge > shardCapacity())
            continue;
        if (findLocked(shard, hash, key) != shard.lru.end())
            continue;
        shard.lru.push_back(Entry{std::move(key), std::move(body),
                                  hash});
        shard.index[hash].push_back(std::prev(shard.lru.end()));
        shard.bytes += charge;
        ++loaded;
    }

    {
        std::lock_guard<std::mutex> clk(counters_mutex_);
        ++counters_.snapshotLoads;
    }
    JITSCHED_OBS({
        obs::ServiceMetrics &m = obs::ServiceMetrics::get();
        m.resultCacheSnapshotLoads.add();
        m.resultCacheBytes.set(static_cast<std::int64_t>(bytes()));
        m.resultCacheEntries.set(
            static_cast<std::int64_t>(entries()));
    });
    if (entries_out != nullptr)
        *entries_out = loaded;
    return true;
}

std::size_t
ResultCache::entries() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard->mutex);
        total += shard->lru.size();
    }
    return total;
}

std::size_t
ResultCache::bytes() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard->mutex);
        total += shard->bytes;
    }
    return total;
}

ResultCache::Counters
ResultCache::counters() const
{
    std::lock_guard<std::mutex> clk(counters_mutex_);
    return counters_;
}

void
ResultCache::clear()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard->mutex);
        shard->lru.clear();
        shard->index.clear();
        // Dropping a pending flight record only means later probers
        // lead their own solves; existing followers keep their
        // shared_ptr and are still released by their leader.
        shard->flights.clear();
        shard->bytes = 0;
    }
}

std::string
responseBodyText(const ServiceResponse &resp)
{
    // Everything responseText() emits between the header line and
    // the stats line: serialize without stats, then strip the header
    // and the trailing `end`.
    const std::string full = responseText(resp, /*include_stats=*/
                                          false);
    const std::size_t header_end = full.find('\n');
    if (header_end == std::string::npos)
        return {};
    constexpr std::size_t kEndLen = sizeof("end\n") - 1;
    if (full.size() < header_end + 1 + kEndLen)
        return {};
    return full.substr(header_end + 1,
                       full.size() - header_end - 1 - kEndLen);
}

std::string
cachedResponseText(std::uint64_t id, const std::string &body,
                   const ServiceStats &stats)
{
    std::string out = "jitsched-response ";
    appendInt(out, id);
    out += '\n';
    out += body;
    appendStatsLine(out, stats);
    out += "end\n";
    return out;
}

std::size_t
parseResultCacheMbEnv(const char *env)
{
    if (env == nullptr || *env == '\0')
        return 0;
    const auto n = parseInt(trim(env));
    if (!n.has_value() || *n < 0)
        JITSCHED_FATAL("JITSCHED_RESULT_CACHE_MB must be a "
                       "non-negative integer (MiB), got '", env, "'");
    return static_cast<std::size_t>(*n);
}

} // namespace jitsched
