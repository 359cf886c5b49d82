#include "service/result_cache.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/instruments.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

namespace jitsched {

namespace {

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

ResultCache::Key::Key(const ServiceRequest &req)
    : material(keyMaterial(req)), hash(keyHash(material))
{
}

ResultCache::ResultCache(std::size_t capacityBytes)
    : capacity_(capacityBytes),
      shardBytes_(std::max<std::size_t>(capacityBytes / kShards, 1))
{
}

ResultCache::Shard &
ResultCache::shardFor(std::uint64_t hash)
{
    // The canonical hash is already mixed; its low bits shard.
    return shards_[hash % kShards];
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

std::optional<std::string>
ResultCache::lookup(const Key &key)
{
    if (!enabled())
        return std::nullopt;
    Shard &shard = shardFor(key.hash);
    std::optional<std::string> body;
    {
        std::lock_guard<std::mutex> lk(shard.mutex);
        const Lru::iterator it =
            findLocked(shard, key.hash, key.material);
        if (it != shard.lru.end()) {
            shard.lru.splice(shard.lru.begin(), shard.lru, it);
            body = it->body;
        }
    }
    {
        std::lock_guard<std::mutex> clk(counters_mutex_);
        ++(body ? counters_.hits : counters_.misses);
    }
    JITSCHED_OBS({
        obs::ServiceMetrics &m = obs::ServiceMetrics::get();
        (body ? m.resultCacheHits : m.resultCacheMisses).add();
    });
    return body;
}

void
ResultCache::insert(Key key, std::string body)
{
    if (!enabled())
        return;
    const std::size_t charge =
        key.material.size() + body.size() + kEntryOverhead;
    if (charge > shardBytes_) {
        std::lock_guard<std::mutex> clk(counters_mutex_);
        ++counters_.oversized;
        return;
    }
    Shard &shard = shardFor(key.hash);
    std::uint64_t evicted = 0;
    {
        std::lock_guard<std::mutex> lk(shard.mutex);
        // A concurrent identical miss stored it first; its body is
        // identical.
        if (findLocked(shard, key.hash, key.material) !=
            shard.lru.end())
            return;
        while (shard.bytes + charge > shardBytes_ &&
               !shard.lru.empty()) {
            const Lru::iterator victim = std::prev(shard.lru.end());
            shard.bytes -= victim->key.size() + victim->body.size() +
                           kEntryOverhead;
            eraseIndexLocked(shard, victim);
            shard.lru.erase(victim);
            ++evicted;
        }
        shard.lru.push_front(
            Entry{std::move(key.material), std::move(body), key.hash});
        shard.index[key.hash].push_back(shard.lru.begin());
        shard.bytes += charge;
    }
    {
        std::lock_guard<std::mutex> clk(counters_mutex_);
        counters_.evictions += evicted;
        ++counters_.insertions;
    }
    // The gauges re-lock every shard, so they are read only once the
    // shard lock is released.
    JITSCHED_OBS({
        obs::ServiceMetrics &m = obs::ServiceMetrics::get();
        if (evicted != 0)
            m.resultCacheEvictions.add(evicted);
        m.resultCacheBytes.set(static_cast<std::int64_t>(bytes()));
        m.resultCacheEntries.set(
            static_cast<std::int64_t>(entries()));
    });
}

bool
ResultCache::saveSnapshot(const std::string &path, std::string *error,
                          std::size_t *entries_out,
                          std::size_t *bytes_out)
{
    // Collect MRU-first so a smaller restart capacity keeps the
    // hottest entries when the loader truncates the tail.
    std::vector<std::pair<std::string, std::string>> rows;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard.mutex);
        for (const Entry &e : shard.lru)
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
        if (shard.bytes + charge > shardBytes_)
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
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard.mutex);
        total += shard.lru.size();
    }
    return total;
}

std::size_t
ResultCache::bytes() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard.mutex);
        total += shard.bytes;
    }
    return total;
}

ResultCache::Counters
ResultCache::counters() const
{
    std::lock_guard<std::mutex> clk(counters_mutex_);
    return counters_;
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
