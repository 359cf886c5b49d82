#include "service/protocol.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <type_traits>

#include "exec/eval_cache.hh"
#include "obs/span.hh"
#include "support/strutil.hh"
#include "trace/trace_io.hh"

namespace jitsched {

namespace {

/** Set *error to "protocol parse error: " + @p parts; false. */
template <typename... Parts>
bool
parseFail(std::string *error, const Parts &...parts)
{
    if (error != nullptr) {
        *error = "protocol parse error: ";
        (error->append(std::string_view(parts)), ...);
    }
    return false;
}

/** splitmix64 finalizer — the repo's standard bit mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
hashCombine(std::uint64_t seed, std::uint64_t v)
{
    return mix64(seed ^ mix64(v));
}

/**
 * Append a double so that it round-trips through parseDouble: 17
 * significant digits, the bytes `%.17g` (and an ostream at
 * max_digits10 precision) produce.
 */
void
appendDouble(std::string &out, double v)
{
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v,
                      std::chars_format::general,
                      std::numeric_limits<double>::max_digits10);
    out.append(buf, res.ptr);
}

/** Append `<key> <int>\n`. */
template <typename T>
void
appendField(std::string &out, std::string_view key, T v)
{
    out += key;
    out += ' ';
    appendInt(out, v);
    out += '\n';
}

/**
 * Read an integer field into @p out.  Unsigned fields get the one
 * range check: a negative or oversized value is rejected rather than
 * wrapped, so every accepted frame re-serializes to a frame that
 * parses back to the same value.
 */
template <typename T>
bool
readField(std::string_view tok, T &out)
{
    const auto v = parseInt(tok);
    if constexpr (std::is_signed_v<T>) {
        if (v)
            out = *v;
        return v.has_value();
    } else {
        if (!v || *v < 0 ||
            static_cast<std::uint64_t>(*v) > std::numeric_limits<T>::max())
            return false;
        out = static_cast<T>(*v);
        return true;
    }
}

} // anonymous namespace

bool
isFrameEnd(std::string_view raw_line)
{
    return cleanLine(raw_line) == "end";
}

std::string_view
frameTag(std::string_view text)
{
    LineCursor lines(text);
    const auto first = lines.next();
    return first ? Tokenizer(*first).next() : std::string_view();
}

void
appendRequestBody(std::string &out, const ServiceRequest &req,
                  bool volatile_options)
{
    out += "policy ";
    out += req.policy;
    out += '\n';
    const ServiceOptions &o = req.options;
    appendField(out, "option compile-cores", o.compileCores);
    out += o.model == ModelKind::Oracle ? "option model oracle\n"
                                        : "option model default\n";
    if (o.jitterSigma != 0.0) {
        out += "option jitter-sigma ";
        appendDouble(out, o.jitterSigma);
        out += '\n';
        appendField(out, "option jitter-seed", o.jitterSeed);
    }
    appendField(out, "option astar-max-expansions",
                o.astarMaxExpansions);
    appendField(out, "option astar-memory-mb", o.astarMemoryMb);
    // Serialized only when set: requests that never mention threads
    // stay byte-identical to what pre-astar-par builds emitted.
    if (o.astarThreads != 0)
        appendField(out, "option threads", o.astarThreads);
    if (volatile_options && o.deadlineMs >= 0)
        appendField(out, "option deadline-ms", o.deadlineMs);
    // Like threads: untraced requests stay byte-identical to what
    // pre-tracing builds emitted.
    if (volatile_options && req.traceId != 0) {
        out += "option trace-id ";
        out += obs::traceIdHex(req.traceId);
        out += '\n';
    }
    out += "payload\n";
    appendWorkload(out, req.workload);
}

void
appendStatsLine(std::string &out, const ServiceStats &stats)
{
    out += "stats cache-hits ";
    appendInt(out, stats.cacheHits);
    out += " cache-misses ";
    appendInt(out, stats.cacheMisses);
    out += " queue-ns ";
    appendInt(out, stats.queueNs);
    out += " solve-ns ";
    appendInt(out, stats.solveNs);
    // Emitted only when the result cache served the response: a
    // cache-off daemon's frames stay byte-identical to pre-cache
    // builds.
    if (stats.resultCache != 0) {
        out += " result-cache ";
        appendInt(out, stats.resultCache);
    }
    if (stats.traceId != 0) {
        out += " trace-id ";
        out += obs::traceIdHex(stats.traceId);
    }
    out += '\n';
}

namespace {

// --- Per-verb keys ------------------------------------------------
//
// Spec<T> is everything verb T adds to the shared envelope:
//
//   tag, noun   header tag; the verb's name in error messages
//   body        None: header then `end`; Keyed: status/error and
//               key lines up to `end`; Payload: the request's own
//               preamble and workload
//   State       parse-local bookkeeping the verb's keys share
//   readArgs    header tokens after the id
//   readKey     one body line; Unknown lets the envelope report it
//   finish      checks once `end` is reached
//   writeArgs / writeBody   the writer's side of the same

enum class Body
{
    None,
    Keyed,
    Payload,
};

enum class Key
{
    Taken,
    Unknown,
    Bad,
};

/** What a verb that adds nothing gets. */
struct Defaults
{
    struct State
    {
    };

    template <typename T>
    static bool
    readArgs(T &, Tokenizer &, std::string *)
    {
        return true;
    }

    template <typename T>
    static Key
    readKey(T &, State &, std::string_view, Tokenizer &, LineCursor &,
            std::string *)
    {
        return Key::Unknown;
    }

    template <typename T>
    static bool
    finish(const T &, const State &, std::string *)
    {
        return true;
    }

    template <typename T>
    static void
    writeArgs(std::string &, const T &)
    {
    }

    template <typename T>
    static void
    writeBody(std::string &, const T &, bool)
    {
    }
};

/** `<key> <int>` into @p out; "bad <what> '<tok>'" if it fails. */
template <typename T>
Key
intField(Tokenizer &ls, std::string_view what, T &out,
         std::string *error)
{
    const std::string_view tok = ls.next();
    if (readField(tok, out))
        return Key::Taken;
    parseFail(error, "bad ", what, " '", tok, "'");
    return Key::Bad;
}

/** The `<what> <n>` count of a block; negatives fail by name. */
Key
countField(Tokenizer &ls, std::string_view what, std::int64_t &out,
           std::string *error)
{
    const std::string_view tok = ls.next();
    if (!readField(tok, out))
        parseFail(error, "bad ", what, " size '", tok, "'");
    else if (out < 0)
        parseFail(error, "negative ", what, " size");
    else
        return Key::Taken;
    return Key::Bad;
}

template <typename T>
struct Spec;

/** Apply one `option <key> <value>` line; false + error on failure. */
bool
applyOption(ServiceRequest &req, std::string_view key,
            const std::string &value, std::string *error)
{
    ServiceOptions &o = req.options;
    const auto asInt = [&]() { return parseInt(value); };

    if (key == "compile-cores") {
        const auto v = asInt();
        if (!v || *v < 1)
            return parseFail(error, "option compile-cores must be an "
                             "integer >= 1, got '" + value + "'");
        o.compileCores = static_cast<std::size_t>(*v);
        return true;
    }
    if (key == "model") {
        if (value == "oracle")
            o.model = ModelKind::Oracle;
        else if (value == "default")
            o.model = ModelKind::Default;
        else
            return parseFail(error, "option model must be 'oracle' or "
                             "'default', got '" + value + "'");
        return true;
    }
    if (key == "jitter-sigma") {
        const auto v = parseDouble(value);
        if (!v || *v < 0.0)
            return parseFail(error, "option jitter-sigma must be a "
                             "number >= 0, got '" + value + "'");
        o.jitterSigma = *v;
        return true;
    }
    if (key == "jitter-seed") {
        const auto v = asInt();
        if (!v || *v < 0)
            return parseFail(error, "option jitter-seed must be a "
                             "non-negative integer, got '" + value +
                             "'");
        o.jitterSeed = static_cast<std::uint64_t>(*v);
        return true;
    }
    if (key == "astar-max-expansions") {
        const auto v = asInt();
        if (!v || *v < 0)
            return parseFail(error, "option astar-max-expansions must "
                             "be a non-negative integer, got '" +
                             value + "'");
        o.astarMaxExpansions = static_cast<std::uint64_t>(*v);
        return true;
    }
    if (key == "astar-memory-mb") {
        const auto v = asInt();
        if (!v || *v < 1)
            return parseFail(error, "option astar-memory-mb must be "
                             "an integer >= 1, got '" + value + "'");
        o.astarMemoryMb = static_cast<std::uint64_t>(*v);
        return true;
    }
    if (key == "threads") {
        const auto v = asInt();
        if (!v || *v < 1)
            return parseFail(error, "option threads must be an "
                             "integer >= 1, got '" + value + "'");
        o.astarThreads = static_cast<std::size_t>(*v);
        return true;
    }
    if (key == "deadline-ms") {
        const auto v = asInt();
        if (!v || *v < 0)
            return parseFail(error, "option deadline-ms must be a "
                             "non-negative integer, got '" + value +
                             "'");
        o.deadlineMs = *v;
        return true;
    }
    if (key == "trace-id") {
        const auto v = obs::parseTraceIdHex(value);
        if (!v)
            return parseFail(error, "option trace-id must be 1-16 "
                             "hex digits and nonzero, got '" + value +
                             "'");
        req.traceId = *v;
        return true;
    }
    return parseFail(error, "unknown option '" + std::string(key) + "'");
}

template <>
struct Spec<ServiceRequest> : Defaults
{
    static constexpr std::string_view tag = tag::request;
    static constexpr std::string_view noun = "request";
    static constexpr Body body = Body::Payload;

    /** Preamble (policy and options) up to `payload`, then the workload. */
    static bool
    readPayload(ServiceRequest &req, LineCursor &lines,
                std::string *error)
    {
        for (;;) {
            const auto line = lines.next();
            if (!line)
                return parseFail(error,
                                 "request truncated before payload");
            if (*line == "payload")
                break;
            if (*line == "end")
                return parseFail(error, "request has no payload");
            Tokenizer ls(*line);
            const std::string_view key = ls.next();
            if (key == "policy") {
                // A bare `policy` line keeps any policy named earlier.
                if (const auto name = ls.next(); !name.empty())
                    req.policy = name;
                if (req.policy.empty())
                    return parseFail(error,
                                     "policy line names no policy");
            } else if (key == "option") {
                const std::string_view opt_key = ls.next();
                const std::string opt_value(ls.next());
                if (opt_key.empty() || opt_value.empty())
                    return parseFail(
                        error, "option line needs a key and a value");
                if (!applyOption(req, opt_key, opt_value, error))
                    return false;
            } else {
                return parseFail(error, "unknown directive '", key,
                                 "' before payload");
            }
        }
        if (req.policy.empty())
            return parseFail(error, "request names no policy");

        std::string wl_error;
        auto w = tryReadWorkload(lines.rest(), &wl_error, "end");
        if (!w) {
            if (error != nullptr)
                *error = wl_error;
            return false;
        }
        req.workload = *std::move(w);
        return true;
    }

    static void
    writeBody(std::string &out, const ServiceRequest &req,
              bool with_volatile)
    {
        appendRequestBody(out, req, with_volatile);
    }
};

template <>
struct Spec<ServiceResponse> : Defaults
{
    static constexpr std::string_view tag = tag::response;
    static constexpr std::string_view noun = "response";
    static constexpr Body body = Body::Keyed;

    static Key
    readKey(ServiceResponse &r, State &, std::string_view key,
            Tokenizer &ls, LineCursor &lines, std::string *error)
    {
        SimResult &s = r.sim;
        if (key == "policy") {
            // Like `istream >> policy`: a bare line keeps the old one.
            if (const auto name = ls.next(); !name.empty())
                r.policy = name;
            return Key::Taken;
        }
        if (key == "lower-bound")
            return intField(ls, key, r.lowerBound, error);
        if (key == "makespan") {
            r.hasSim = true;
            return intField(ls, key, s.makespan, error);
        }
        if (key == "compile-end")
            return intField(ls, key, s.compileEnd, error);
        if (key == "exec-end")
            return intField(ls, key, s.execEnd, error);
        if (key == "total-bubble")
            return intField(ls, key, s.totalBubble, error);
        if (key == "bubble-count")
            return intField(ls, key, s.bubbleCount, error);
        if (key == "total-exec")
            return intField(ls, key, s.totalExec, error);
        if (key == "total-compile")
            return intField(ls, key, s.totalCompile, error);
        if (key == "calls-at-level") {
            for (auto tok = ls.next(); !tok.empty(); tok = ls.next()) {
                std::uint64_t n = 0;
                if (!readField(tok, n)) {
                    parseFail(error, "bad calls-at-level entry '", tok,
                              "'");
                    return Key::Bad;
                }
                s.callsAtLevel.push_back(n);
            }
            return Key::Taken;
        }
        if (key == "schedule")
            return readSchedule(r, ls, lines, error);
        if (key == "stats")
            return readStats(r.stats, ls, error);
        return Key::Unknown;
    }

    /** `schedule <K>` and the K event lines after it. */
    static Key
    readSchedule(ServiceResponse &r, Tokenizer &ls, LineCursor &lines,
                 std::string *error)
    {
        std::int64_t n = 0;
        if (countField(ls, "schedule", n, error) == Key::Bad)
            return Key::Bad;
        r.hasSchedule = true;
        // The declared size is foreign input: cap the reserve so an
        // absurd header cannot throw length_error/bad_alloc;
        // push_back grows past the cap if the events really arrive,
        // and a short frame fails "schedule truncated".
        r.schedule.reserve(std::min(static_cast<std::size_t>(n),
                                    std::size_t(1) << 20));
        for (std::int64_t i = 0; i < n; ++i) {
            const auto ev_line = lines.next();
            if (!ev_line) {
                parseFail(error, "schedule truncated");
                return Key::Bad;
            }
            Tokenizer es(*ev_line);
            CompileEvent ev;
            if (!readField(es.next(), ev.func) ||
                !readField(es.next(), ev.level)) {
                parseFail(error, "bad schedule event '", *ev_line, "'");
                return Key::Bad;
            }
            r.schedule.push_back(ev);
        }
        return Key::Taken;
    }

    /** The `stats <key> <value> ...` pairs. */
    static Key
    readStats(ServiceStats &st, Tokenizer &ls, std::string *error)
    {
        for (;;) {
            const std::string_view k = ls.next();
            const std::string_view v = ls.next();
            if (k.empty() || v.empty())
                return Key::Taken;
            // trace-id is hex, not an integer.
            if (k == "trace-id") {
                const auto t = obs::parseTraceIdHex(v);
                if (!t) {
                    parseFail(error, "bad stats trace-id '", v, "'");
                    return Key::Bad;
                }
                st.traceId = *t;
                continue;
            }
            bool ok = false;
            if (k == "cache-hits")
                ok = readField(v, st.cacheHits);
            else if (k == "cache-misses")
                ok = readField(v, st.cacheMisses);
            else if (k == "result-cache")
                ok = readField(v, st.resultCache);
            else if (k == "queue-ns")
                ok = readField(v, st.queueNs);
            else if (k == "solve-ns")
                ok = readField(v, st.solveNs);
            else // unknown keys are ignored (forward compat)
                ok = parseInt(v).has_value();
            if (!ok) {
                parseFail(error, "bad stats value '", v, "'");
                return Key::Bad;
            }
        }
    }

    static void
    writeBody(std::string &out, const ServiceResponse &r,
              bool with_volatile)
    {
        if (!r.policy.empty()) {
            out += "policy ";
            out += r.policy;
            out += '\n';
        }
        if (r.ok) {
            appendField(out, "lower-bound", r.lowerBound);
            if (r.hasSim) {
                const SimResult &s = r.sim;
                appendField(out, "makespan", s.makespan);
                appendField(out, "compile-end", s.compileEnd);
                appendField(out, "exec-end", s.execEnd);
                appendField(out, "total-bubble", s.totalBubble);
                appendField(out, "bubble-count", s.bubbleCount);
                appendField(out, "total-exec", s.totalExec);
                appendField(out, "total-compile", s.totalCompile);
                if (!s.callsAtLevel.empty()) {
                    out += "calls-at-level";
                    for (const std::uint64_t n : s.callsAtLevel) {
                        out += ' ';
                        appendInt(out, n);
                    }
                    out += '\n';
                }
            }
            if (r.hasSchedule) {
                appendField(out, "schedule", r.schedule.size());
                for (const CompileEvent &ev : r.schedule) {
                    appendInt(out, ev.func);
                    out += ' ';
                    appendInt(out, static_cast<int>(ev.level));
                    out += '\n';
                }
            }
        }
        if (with_volatile)
            appendStatsLine(out, r.stats);
    }
};

template <>
struct Spec<StatsRequest> : Defaults
{
    static constexpr std::string_view tag = tag::stats;
    static constexpr std::string_view noun = "stats-request";
    static constexpr Body body = Body::None;

    static bool
    readArgs(StatsRequest &req, Tokenizer &hs, std::string *error)
    {
        const std::string_view arg = hs.next();
        if (arg.empty())
            return true;
        if (arg != "prom")
            return parseFail(error, "bad stats-request argument '", arg,
                             "' (only 'prom' is known)");
        req.prom = true;
        return true;
    }

    static void
    writeArgs(std::string &out, const StatsRequest &req)
    {
        if (req.prom)
            out += " prom";
    }
};

template <>
struct Spec<StatsResponse> : Defaults
{
    static constexpr std::string_view tag = tag::statsResponse;
    static constexpr std::string_view noun = "stats-response";
    static constexpr Body body = Body::Keyed;

    static Key
    readKey(StatsResponse &r, State &, std::string_view key,
            Tokenizer &ls, LineCursor &lines, std::string *error)
    {
        if (key == "format") {
            const std::string_view fmt = ls.next();
            if (fmt != "prom") {
                parseFail(error, "unknown snapshot format '", fmt, "'");
                return Key::Bad;
            }
            r.prom = true;
            return Key::Taken;
        }
        if (key != "snapshot")
            return Key::Unknown;
        std::int64_t n = 0;
        if (countField(ls, "snapshot", n, error) == Key::Bad)
            return Key::Bad;
        // The N snapshot lines are counted payload, not grammar: read
        // them raw.  Prometheus exposition has '#' comment lines the
        // cleaning reader would swallow, desyncing the count.
        r.lines.reserve(std::min(static_cast<std::size_t>(n),
                                 std::size_t(1) << 16));
        for (std::int64_t i = 0; i < n; ++i) {
            const auto raw = lines.nextRaw();
            if (!raw) {
                parseFail(error, "snapshot truncated");
                return Key::Bad;
            }
            r.lines.emplace_back(*raw);
        }
        return Key::Taken;
    }

    static void
    writeBody(std::string &out, const StatsResponse &r, bool)
    {
        if (!r.ok)
            return;
        if (r.prom)
            out += "format prom\n";
        appendField(out, "snapshot", r.lines.size());
        for (const std::string &line : r.lines) {
            out += line;
            out += '\n';
        }
    }
};

template <>
struct Spec<DumpRequest> : Defaults
{
    static constexpr std::string_view tag = tag::dump;
    static constexpr std::string_view noun = "dump-request";
    static constexpr Body body = Body::None;
};

template <>
struct Spec<DumpResponse> : Defaults
{
    static constexpr std::string_view tag = tag::dumpResponse;
    static constexpr std::string_view noun = "dump-response";
    static constexpr Body body = Body::Keyed;

    struct State
    {
        std::int64_t declared = -1; ///< the `records <N>` count
    };

    static Key
    readKey(DumpResponse &r, State &st, std::string_view key,
            Tokenizer &ls, LineCursor &, std::string *error)
    {
        if (key == "records") {
            if (countField(ls, "records", st.declared, error) ==
                Key::Bad)
                return Key::Bad;
            // Foreign input: cap the reserve like schedule/snapshot.
            r.records.reserve(
                std::min(static_cast<std::size_t>(st.declared),
                         std::size_t(1) << 16));
            return Key::Taken;
        }
        if (key != "record")
            return Key::Unknown;
        obs::FlightRecord rec;
        if (!readRecord(rec, ls, error))
            return Key::Bad;
        r.records.push_back(std::move(rec));
        return Key::Taken;
    }

    /** One `record ...` line's key/value tail. */
    static bool
    readRecord(obs::FlightRecord &r, Tokenizer &ls, std::string *error)
    {
        for (;;) {
            const std::string_view k = ls.next();
            const std::string_view v = ls.next();
            if (k.empty() || v.empty())
                return true;
            if (k == "trace") {
                if (v == "0") {
                    r.traceId = 0;
                    continue;
                }
                const auto t = obs::parseTraceIdHex(v);
                if (!t)
                    return parseFail(error, "bad record trace id '", v,
                                     "'");
                r.traceId = *t;
                continue;
            }
            if (k == "policy" || k == "status") {
                (k == "policy" ? r.policy : r.status) =
                    v == "-" ? std::string_view() : v;
                continue;
            }
            bool ok = false;
            if (k == "request")
                ok = readField(v, r.requestId);
            else if (k == "queue-ns")
                ok = readField(v, r.queueNs);
            else if (k == "solve-ns")
                ok = readField(v, r.solveNs);
            else if (k == "bytes")
                ok = readField(v, r.bytes);
            else if (k == "hops")
                ok = readField(v, r.hops);
            else if (const auto n = parseInt(v); n.has_value()) {
                ok = true;
                if (k == "cached")
                    r.cached = *n != 0;
                // Unknown numeric keys are ignored (forward compat).
            }
            if (!ok)
                return parseFail(error, "bad record value '", v,
                                 "' for '", k, "'");
        }
    }

    static bool
    finish(const DumpResponse &r, const State &st, std::string *error)
    {
        if (!r.ok || st.declared < 0 ||
            static_cast<std::size_t>(st.declared) == r.records.size())
            return true;
        return parseFail(error, "dump response declared ",
                         std::to_string(st.declared),
                         " records but carried ",
                         std::to_string(r.records.size()));
    }

    static void
    writeBody(std::string &out, const DumpResponse &r, bool)
    {
        if (!r.ok)
            return;
        appendField(out, "records", r.records.size());
        for (const obs::FlightRecord &rec : r.records) {
            out += "record ";
            out += obs::FlightRecorder::recordLine(rec);
            out += '\n';
        }
    }
};

template <>
struct Spec<SnapshotRequest> : Defaults
{
    static constexpr std::string_view tag = tag::snapshot;
    static constexpr std::string_view noun = "snapshot-request";
    static constexpr Body body = Body::None;
};

template <>
struct Spec<SnapshotResponse> : Defaults
{
    static constexpr std::string_view tag = tag::snapshotResponse;
    static constexpr std::string_view noun = "snapshot-response";
    static constexpr Body body = Body::Keyed;

    static Key
    readKey(SnapshotResponse &r, State &, std::string_view key,
            Tokenizer &ls, LineCursor &, std::string *error)
    {
        if (key == "entries")
            return intField(ls, key, r.entries, error);
        if (key == "bytes")
            return intField(ls, key, r.bytes, error);
        return Key::Unknown;
    }

    static void
    writeBody(std::string &out, const SnapshotResponse &r, bool)
    {
        if (!r.ok)
            return;
        appendField(out, "entries", r.entries);
        appendField(out, "bytes", r.bytes);
    }
};

template <>
struct Spec<PingRequest> : Defaults
{
    static constexpr std::string_view tag = tag::ping;
    static constexpr std::string_view noun = "ping";
    static constexpr Body body = Body::None;
};

template <>
struct Spec<PongResponse> : Defaults
{
    static constexpr std::string_view tag = tag::pong;
    static constexpr std::string_view noun = "pong";
    static constexpr Body body = Body::Keyed;
};

// --- The envelope -------------------------------------------------

/** A verb's noun as prose: "stats-request" reads "stats request". */
std::string
prose(std::string_view noun)
{
    std::string out(noun);
    std::replace(out.begin(), out.end(), '-', ' ');
    return out;
}

/**
 * The envelope reader, the only one: the `<tag> <id> [args]` header,
 * then per Spec<T>::body either a lone `end`, the status/error and
 * key lines up to `end`, or the request's payload.
 */
template <typename T>
std::optional<T>
readFrame(std::string_view text, std::string *error)
{
    using S = Spec<T>;
    T f;
    LineCursor lines(text);

    const auto header = lines.next();
    if (!header) {
        parseFail(error, "empty ", S::noun, " frame");
        return std::nullopt;
    }
    Tokenizer hs(*header);
    const std::string_view tag = hs.next();
    const std::string_view id_tok = hs.next();
    if (tag != S::tag) {
        parseFail(error, "expected '", S::tag, " <id>', got '", *header,
                  "'");
        return std::nullopt;
    }
    if (!readField(id_tok, f.id)) {
        parseFail(error, "bad ", S::noun, " id '", id_tok, "'");
        return std::nullopt;
    }
    if (!S::readArgs(f, hs, error))
        return std::nullopt;

    if constexpr (S::body == Body::Payload) {
        if (!S::readPayload(f, lines, error))
            return std::nullopt;
    } else if constexpr (S::body == Body::None) {
        const auto tail = lines.next();
        if (!tail || *tail != "end") {
            parseFail(error, prose(S::noun),
                      " carries a body (expected 'end')");
            return std::nullopt;
        }
    } else {
        typename S::State state;
        bool saw_status = false;
        for (;;) {
            const auto line = lines.next();
            if (!line) {
                parseFail(error, prose(S::noun),
                          " truncated (no 'end')");
                return std::nullopt;
            }
            if (*line == "end")
                break;
            Tokenizer ls(*line);
            const std::string_view key = ls.next();
            if (key == "status") {
                const std::string_view st = ls.next();
                if (st == "ok") {
                    f.ok = true;
                } else if (st == "error") {
                    f.ok = false;
                    // Like `istream >> code`: no token keeps the old.
                    if (const auto code = ls.next(); !code.empty())
                        f.code = code;
                    if (f.code.empty()) {
                        parseFail(error, "status error carries no code");
                        return std::nullopt;
                    }
                } else {
                    parseFail(error, "bad status '", st, "'");
                    return std::nullopt;
                }
                saw_status = true;
            } else if (key == "error") {
                // The message is the rest of the line.
                f.error = line->substr(
                    std::min(line->size(), sizeof("error ") - 1));
            } else {
                switch (S::readKey(f, state, key, ls, lines, error)) {
                case Key::Taken:
                    break;
                case Key::Bad:
                    return std::nullopt;
                case Key::Unknown:
                    parseFail(error, "unknown ", S::noun, " directive '",
                              key, "'");
                    return std::nullopt;
                }
            }
        }
        if (!saw_status) {
            parseFail(error, prose(S::noun), " carries no status");
            return std::nullopt;
        }
        if (!S::finish(f, state, error))
            return std::nullopt;
    }
    return f;
}

/**
 * The envelope writer, the only one: header, status/error lines for
 * responses, the verb's body, `end`.  @p with_volatile false leaves
 * out what is not part of the answer (see responseText and
 * appendRequestBody).
 */
template <typename T>
void
writeFrame(std::string &out, const T &f, bool with_volatile = true)
{
    using S = Spec<T>;
    out += S::tag;
    out += ' ';
    appendInt(out, f.id);
    S::writeArgs(out, f);
    out += '\n';
    if constexpr (S::body == Body::Keyed) {
        if (f.ok) {
            out += "status ok\n";
        } else {
            out += "status error ";
            out += f.code.empty() ? std::string_view(errcode::unavailable)
                                  : std::string_view(f.code);
            out += "\nerror ";
            out += f.error;
            out += '\n';
        }
    }
    S::writeBody(out, f, with_volatile);
    out += "end\n";
}

/**
 * Buffer one frame from a stream: every line through the first `end`
 * line, leaving the rest unread.  Neither grammar read through a
 * stream can carry an `end` line before its terminator, so this is
 * exactly what a parse would consume.
 */
std::string
bufferFrame(std::istream &is)
{
    std::string frame;
    if (const std::streamsize buffered = is.rdbuf()->in_avail();
        buffered > 0)
        frame.reserve(static_cast<std::size_t>(buffered));
    std::string raw;
    while (std::getline(is, raw)) {
        frame += raw;
        frame += '\n';
        if (isFrameEnd(raw))
            break;
    }
    return frame;
}

/** Dispatch @p text to the verb whose tag it carries. */
template <std::size_t I = 0>
std::optional<AnyFrame>
readAnyFrame(std::string_view tag_tok, std::string_view text,
             std::string *error)
{
    if constexpr (I == std::variant_size_v<AnyFrame>) {
        auto req = readFrame<ServiceRequest>(text, error);
        return req ? std::optional<AnyFrame>(*std::move(req))
                   : std::nullopt;
    } else {
        using T = std::variant_alternative_t<I, AnyFrame>;
        if (tag_tok != Spec<T>::tag)
            return readAnyFrame<I + 1>(tag_tok, text, error);
        auto f = readFrame<T>(text, error);
        return f ? std::optional<AnyFrame>(*std::move(f))
                 : std::nullopt;
    }
}

} // anonymous namespace

template <typename T>
std::string
frameText(const T &frame)
{
    std::string out;
    writeFrame(out, frame);
    return out;
}

template <typename T>
std::optional<T>
tryReadFrame(std::string_view text, std::string *error)
{
    return readFrame<T>(text, error);
}

// The verbs frameText/tryReadFrame serve: AnyFrame's alternatives.
#define JITSCHED_FRAME_VERB(T)                                        \
    template std::string frameText<T>(const T &);                     \
    template std::optional<T> tryReadFrame<T>(std::string_view,       \
                                              std::string *);
JITSCHED_FRAME_VERB(ServiceRequest)
JITSCHED_FRAME_VERB(ServiceResponse)
JITSCHED_FRAME_VERB(StatsRequest)
JITSCHED_FRAME_VERB(StatsResponse)
JITSCHED_FRAME_VERB(DumpRequest)
JITSCHED_FRAME_VERB(DumpResponse)
JITSCHED_FRAME_VERB(SnapshotRequest)
JITSCHED_FRAME_VERB(SnapshotResponse)
JITSCHED_FRAME_VERB(PingRequest)
JITSCHED_FRAME_VERB(PongResponse)
#undef JITSCHED_FRAME_VERB

std::string
frameText(const AnyFrame &frame)
{
    return std::visit([](const auto &f) { return frameText(f); }, frame);
}

std::optional<AnyFrame>
tryReadAnyFrame(std::string_view text, std::string *error)
{
    return readAnyFrame(frameTag(text), text, error);
}

std::string
requestText(const ServiceRequest &req)
{
    return frameText(req);
}

std::optional<ServiceRequest>
tryReadRequest(std::string_view frame, std::string *error)
{
    return readFrame<ServiceRequest>(frame, error);
}

std::optional<ServiceRequest>
tryReadRequest(std::istream &is, std::string *error)
{
    return readFrame<ServiceRequest>(bufferFrame(is), error);
}

std::string
responseText(const ServiceResponse &resp, bool include_stats)
{
    std::string out;
    writeFrame(out, resp, include_stats);
    return out;
}

std::optional<ServiceResponse>
tryReadResponse(std::istream &is, std::string *error)
{
    return readFrame<ServiceResponse>(bufferFrame(is), error);
}

ServiceResponse
makeErrorResponse(std::uint64_t id, const std::string &code,
                  const std::string &message)
{
    ServiceResponse resp;
    resp.id = id;
    resp.ok = false;
    resp.code = code;
    resp.error = message;
    return resp;
}

StatsResponse
makeStatsResponse(std::uint64_t id, const std::string &snapshot_text,
                  bool prom)
{
    StatsResponse resp;
    resp.id = id;
    resp.ok = true;
    resp.prom = prom;
    LineCursor lines(snapshot_text);
    while (const auto line = lines.nextRaw())
        if (!line->empty())
            resp.lines.emplace_back(*line);
    return resp;
}

DumpResponse
makeDumpResponse(std::uint64_t id,
                 const std::vector<obs::FlightRecord> &records)
{
    DumpResponse resp;
    resp.id = id;
    resp.ok = true;
    resp.records = records;
    return resp;
}

SnapshotResponse
makeSnapshotResponse(std::uint64_t id, std::uint64_t entries,
                     std::uint64_t bytes)
{
    SnapshotResponse resp;
    resp.id = id;
    resp.ok = true;
    resp.entries = entries;
    resp.bytes = bytes;
    return resp;
}

PongResponse
makePongResponse(std::uint64_t id)
{
    PongResponse resp;
    resp.id = id;
    resp.ok = true;
    return resp;
}

std::uint64_t
requestFingerprint(const ServiceRequest &req)
{
    std::uint64_t h = hashWorkload(req.workload);
    h = hashCombine(h, std::hash<std::string>{}(req.policy));
    const ServiceOptions &o = req.options;
    h = hashCombine(h, o.compileCores);
    h = hashCombine(h, o.model == ModelKind::Oracle ? 1 : 0);
    std::uint64_t sigma_bits = 0;
    static_assert(sizeof(sigma_bits) == sizeof(o.jitterSigma));
    std::memcpy(&sigma_bits, &o.jitterSigma, sizeof(sigma_bits));
    h = hashCombine(h, sigma_bits);
    h = hashCombine(h, o.jitterSeed);
    h = hashCombine(h, o.astarMaxExpansions);
    h = hashCombine(h, o.astarMemoryMb);
    return h;
}

} // namespace jitsched
