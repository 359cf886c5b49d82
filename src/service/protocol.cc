#include "service/protocol.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "exec/eval_cache.hh"
#include "obs/span.hh"
#include "support/logging.hh"
#include "support/strutil.hh"
#include "trace/trace_io.hh"

namespace jitsched {

namespace {

/** Next non-empty cleaned line, or nullopt at EOF. */
std::optional<std::string>
nextLine(std::istream &is)
{
    std::string raw;
    while (std::getline(is, raw)) {
        const std::string_view line = cleanLine(raw);
        if (!line.empty())
            return std::string(line);
    }
    return std::nullopt;
}

bool
parseFail(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = "protocol parse error: " + msg;
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

} // anonymous namespace

bool
isFrameEnd(std::string_view raw_line)
{
    return cleanLine(raw_line) == "end";
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

std::string
requestText(const ServiceRequest &req)
{
    std::string out;
    appendField(out, "jitsched-request", req.id);
    appendRequestBody(out, req, /*volatile_options=*/true);
    out += "end\n";
    return out;
}

namespace {

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

} // anonymous namespace

std::optional<ServiceRequest>
tryReadRequest(std::string_view frame, std::string *error)
{
    ServiceRequest req;
    LineCursor lines(frame);

    const auto header = lines.next();
    if (!header) {
        parseFail(error, "empty request frame");
        return std::nullopt;
    }
    {
        Tokenizer hs(*header);
        const std::string_view tag = hs.next();
        const std::string_view id_tok = hs.next();
        if (tag != "jitsched-request") {
            parseFail(error, "expected 'jitsched-request <id>', got '" +
                      std::string(*header) + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error,
                      "bad request id '" + std::string(id_tok) + "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
    }

    // Preamble: policy and options, up to the payload marker.
    for (;;) {
        const auto line = lines.next();
        if (!line) {
            parseFail(error, "request truncated before payload");
            return std::nullopt;
        }
        if (*line == "payload")
            break;
        if (*line == "end") {
            parseFail(error, "request has no payload");
            return std::nullopt;
        }
        Tokenizer ls(*line);
        const std::string_view key = ls.next();
        if (key == "policy") {
            // A bare `policy` line keeps any policy named earlier.
            if (const auto name = ls.next(); !name.empty())
                req.policy = name;
            if (req.policy.empty()) {
                parseFail(error, "policy line names no policy");
                return std::nullopt;
            }
        } else if (key == "option") {
            const std::string_view opt_key = ls.next();
            const std::string opt_value(ls.next());
            if (opt_key.empty() || opt_value.empty()) {
                parseFail(error,
                          "option line needs a key and a value");
                return std::nullopt;
            }
            if (!applyOption(req, opt_key, opt_value, error))
                return std::nullopt;
        } else {
            parseFail(error, "unknown directive '" + std::string(key) +
                      "' before payload");
            return std::nullopt;
        }
    }

    if (req.policy.empty()) {
        parseFail(error, "request names no policy");
        return std::nullopt;
    }

    std::string wl_error;
    auto w = tryReadWorkload(lines.rest(), &wl_error, "end");
    if (!w) {
        if (error != nullptr)
            *error = wl_error;
        return std::nullopt;
    }
    req.workload = *std::move(w);
    return req;
}

std::optional<ServiceRequest>
tryReadRequest(std::istream &is, std::string *error)
{
    // A request frame ends at its first `end` line wherever that
    // line falls, so buffering through it and no further leaves the
    // stream exactly where the frame stops.
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
    return tryReadRequest(std::string_view(frame), error);
}

std::string
responseText(const ServiceResponse &resp, bool include_stats)
{
    std::string out;
    appendField(out, "jitsched-response", resp.id);
    if (resp.ok) {
        out += "status ok\n";
    } else {
        out += "status error ";
        out += resp.code.empty() ? errcode::unavailable : resp.code;
        out += "\nerror ";
        out += resp.error;
        out += '\n';
    }
    if (!resp.policy.empty()) {
        out += "policy ";
        out += resp.policy;
        out += '\n';
    }
    if (resp.ok) {
        appendField(out, "lower-bound", resp.lowerBound);
        if (resp.hasSim) {
            const SimResult &s = resp.sim;
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
        if (resp.hasSchedule) {
            appendField(out, "schedule", resp.schedule.size());
            for (const CompileEvent &ev : resp.schedule) {
                appendInt(out, ev.func);
                out += ' ';
                appendInt(out, static_cast<int>(ev.level));
                out += '\n';
            }
        }
    }
    if (include_stats)
        appendStatsLine(out, resp.stats);
    out += "end\n";
    return out;
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

/** Parse `<key> <int>` tails of the response grammar. */
bool
intField(std::istringstream &ls, const char *what, std::int64_t *out,
         std::string *error)
{
    std::string tok;
    ls >> tok;
    const auto v = parseInt(tok);
    if (!v)
        return parseFail(error, std::string("bad ") + what + " '" +
                         tok + "'");
    *out = *v;
    return true;
}

} // anonymous namespace

std::optional<ServiceResponse>
tryReadResponse(std::istream &is, std::string *error)
{
    ServiceResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty response frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-response") {
            parseFail(error,
                      "expected 'jitsched-response <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad response id '" + id_tok + "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "response truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;
        std::int64_t v = 0;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            // The message is the rest of the line.
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else if (key == "policy") {
            ls >> resp.policy;
        } else if (key == "lower-bound") {
            if (!intField(ls, "lower-bound", &v, error))
                return std::nullopt;
            resp.lowerBound = v;
        } else if (key == "makespan") {
            if (!intField(ls, "makespan", &v, error))
                return std::nullopt;
            resp.sim.makespan = v;
            resp.hasSim = true;
        } else if (key == "compile-end") {
            if (!intField(ls, "compile-end", &v, error))
                return std::nullopt;
            resp.sim.compileEnd = v;
        } else if (key == "exec-end") {
            if (!intField(ls, "exec-end", &v, error))
                return std::nullopt;
            resp.sim.execEnd = v;
        } else if (key == "total-bubble") {
            if (!intField(ls, "total-bubble", &v, error))
                return std::nullopt;
            resp.sim.totalBubble = v;
        } else if (key == "bubble-count") {
            if (!intField(ls, "bubble-count", &v, error))
                return std::nullopt;
            resp.sim.bubbleCount = static_cast<std::uint64_t>(v);
        } else if (key == "total-exec") {
            if (!intField(ls, "total-exec", &v, error))
                return std::nullopt;
            resp.sim.totalExec = v;
        } else if (key == "total-compile") {
            if (!intField(ls, "total-compile", &v, error))
                return std::nullopt;
            resp.sim.totalCompile = v;
        } else if (key == "calls-at-level") {
            std::string tok;
            while (ls >> tok) {
                const auto n = parseInt(tok);
                if (!n || *n < 0) {
                    parseFail(error, "bad calls-at-level entry '" +
                              tok + "'");
                    return std::nullopt;
                }
                resp.sim.callsAtLevel.push_back(
                    static_cast<std::uint64_t>(*n));
            }
        } else if (key == "schedule") {
            if (!intField(ls, "schedule size", &v, error))
                return std::nullopt;
            if (v < 0) {
                parseFail(error, "negative schedule size");
                return std::nullopt;
            }
            resp.hasSchedule = true;
            // The declared size is foreign input: cap the reserve so
            // an absurd header cannot throw length_error/bad_alloc;
            // push_back below grows past the cap if the events really
            // arrive, and a short frame fails "schedule truncated".
            resp.schedule.reserve(
                std::min(static_cast<std::size_t>(v),
                         std::size_t(1) << 20));
            for (std::int64_t i = 0; i < v; ++i) {
                const auto ev_line = nextLine(is);
                if (!ev_line) {
                    parseFail(error, "schedule truncated");
                    return std::nullopt;
                }
                std::istringstream es(*ev_line);
                std::string f_tok, l_tok;
                es >> f_tok >> l_tok;
                const auto f = parseInt(f_tok);
                const auto l = parseInt(l_tok);
                if (!f || *f < 0 || !l || *l < 0) {
                    parseFail(error, "bad schedule event '" +
                              *ev_line + "'");
                    return std::nullopt;
                }
                resp.schedule.push_back(
                    {static_cast<FuncId>(*f),
                     static_cast<Level>(*l)});
            }
        } else if (key == "stats") {
            std::string k, val;
            while (ls >> k >> val) {
                // trace-id is hex, not an integer — handle it before
                // the generic numeric path.
                if (k == "trace-id") {
                    const auto t = obs::parseTraceIdHex(val);
                    if (!t) {
                        parseFail(error, "bad stats trace-id '" + val +
                                  "'");
                        return std::nullopt;
                    }
                    resp.stats.traceId = *t;
                    continue;
                }
                const auto n = parseInt(val);
                if (!n) {
                    parseFail(error, "bad stats value '" + val + "'");
                    return std::nullopt;
                }
                if (k == "cache-hits")
                    resp.stats.cacheHits =
                        static_cast<std::uint64_t>(*n);
                else if (k == "cache-misses")
                    resp.stats.cacheMisses =
                        static_cast<std::uint64_t>(*n);
                else if (k == "queue-ns")
                    resp.stats.queueNs = *n;
                else if (k == "solve-ns")
                    resp.stats.solveNs = *n;
                else if (k == "result-cache")
                    resp.stats.resultCache =
                        static_cast<std::uint64_t>(*n);
                // Unknown stats keys are ignored (forward compat).
            }
        } else {
            parseFail(error, "unknown response directive '" + key +
                      "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "response carries no status");
        return std::nullopt;
    }
    return resp;
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

void
writeStatsRequest(std::ostream &os, const StatsRequest &req)
{
    os << "jitsched-stats " << req.id;
    if (req.prom)
        os << " prom";
    os << "\n";
    os << "end\n";
}

std::string
statsRequestText(const StatsRequest &req)
{
    std::ostringstream os;
    writeStatsRequest(os, req);
    return os.str();
}

std::optional<StatsRequest>
tryReadStatsRequest(std::istream &is, std::string *error)
{
    StatsRequest req;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty stats-request frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok, arg;
        hs >> tag >> id_tok;
        if (tag != "jitsched-stats") {
            parseFail(error, "expected 'jitsched-stats <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad stats-request id '" + id_tok + "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
        if (hs >> arg) {
            if (arg != "prom") {
                parseFail(error, "bad stats-request argument '" +
                          arg + "' (only 'prom' is known)");
                return std::nullopt;
            }
            req.prom = true;
        }
    }

    const auto tail = nextLine(is);
    if (!tail || *tail != "end") {
        parseFail(error, "stats request carries a body (expected "
                  "'end')");
        return std::nullopt;
    }
    return req;
}

void
writeStatsResponse(std::ostream &os, const StatsResponse &resp)
{
    os << "jitsched-stats-response " << resp.id << "\n";
    if (resp.ok) {
        os << "status ok\n";
        if (resp.prom)
            os << "format prom\n";
        os << "snapshot " << resp.lines.size() << "\n";
        for (const std::string &line : resp.lines)
            os << line << "\n";
    } else {
        os << "status error "
           << (resp.code.empty() ? errcode::unavailable : resp.code)
           << "\n";
        os << "error " << resp.error << "\n";
    }
    os << "end\n";
}

std::string
statsResponseText(const StatsResponse &resp)
{
    std::ostringstream os;
    writeStatsResponse(os, resp);
    return os.str();
}

std::optional<StatsResponse>
tryReadStatsResponse(std::istream &is, std::string *error)
{
    StatsResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty stats-response frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-stats-response") {
            parseFail(error,
                      "expected 'jitsched-stats-response <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad stats-response id '" + id_tok + "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "stats response truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else if (key == "format") {
            std::string fmt;
            ls >> fmt;
            if (fmt != "prom") {
                parseFail(error, "unknown snapshot format '" + fmt +
                          "'");
                return std::nullopt;
            }
            resp.prom = true;
        } else if (key == "snapshot") {
            std::int64_t v = 0;
            if (!intField(ls, "snapshot size", &v, error))
                return std::nullopt;
            if (v < 0) {
                parseFail(error, "negative snapshot size");
                return std::nullopt;
            }
            // The N snapshot lines are counted payload, not grammar:
            // read them raw.  Prometheus exposition has '#' comment
            // lines the cleaning reader would swallow, desyncing the
            // declared count.
            resp.lines.reserve(
                std::min(static_cast<std::size_t>(v),
                         std::size_t(1) << 16));
            std::string raw;
            for (std::int64_t i = 0; i < v; ++i) {
                if (!std::getline(is, raw)) {
                    parseFail(error, "snapshot truncated");
                    return std::nullopt;
                }
                resp.lines.push_back(raw);
            }
        } else {
            parseFail(error, "unknown stats-response directive '" +
                      key + "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "stats response carries no status");
        return std::nullopt;
    }
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
    std::istringstream is(snapshot_text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty())
            resp.lines.push_back(line);
    }
    return resp;
}

void
writeDumpRequest(std::ostream &os, const DumpRequest &req)
{
    os << "jitsched-dump " << req.id << "\n";
    os << "end\n";
}

std::string
dumpRequestText(const DumpRequest &req)
{
    std::ostringstream os;
    writeDumpRequest(os, req);
    return os.str();
}

std::optional<DumpRequest>
tryReadDumpRequest(std::istream &is, std::string *error)
{
    DumpRequest req;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty dump-request frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-dump") {
            parseFail(error, "expected 'jitsched-dump <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad dump-request id '" + id_tok + "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
    }

    const auto tail = nextLine(is);
    if (!tail || *tail != "end") {
        parseFail(error, "dump request carries a body (expected "
                  "'end')");
        return std::nullopt;
    }
    return req;
}

void
writeDumpResponse(std::ostream &os, const DumpResponse &resp)
{
    os << "jitsched-dump-response " << resp.id << "\n";
    if (resp.ok) {
        os << "status ok\n";
        os << "records " << resp.records.size() << "\n";
        for (const obs::FlightRecord &r : resp.records)
            os << "record " << obs::FlightRecorder::recordLine(r)
               << "\n";
    } else {
        os << "status error "
           << (resp.code.empty() ? errcode::unavailable : resp.code)
           << "\n";
        os << "error " << resp.error << "\n";
    }
    os << "end\n";
}

std::string
dumpResponseText(const DumpResponse &resp)
{
    std::ostringstream os;
    writeDumpResponse(os, resp);
    return os.str();
}

namespace {

/** Parse one `record ...` line's key/value tail. */
bool
parseRecordLine(std::istringstream &ls, obs::FlightRecord *out,
                std::string *error)
{
    std::string k, val;
    while (ls >> k >> val) {
        if (k == "trace") {
            if (val == "0") {
                out->traceId = 0;
                continue;
            }
            const auto t = obs::parseTraceIdHex(val);
            if (!t)
                return parseFail(error, "bad record trace id '" + val +
                                 "'");
            out->traceId = *t;
        } else if (k == "policy") {
            out->policy = val == "-" ? "" : val;
        } else if (k == "status") {
            out->status = val == "-" ? "" : val;
        } else {
            const auto n = parseInt(val);
            if (!n)
                return parseFail(error, "bad record value '" + val +
                                 "' for '" + k + "'");
            if (k == "request")
                out->requestId = static_cast<std::uint64_t>(*n);
            else if (k == "queue-ns")
                out->queueNs = *n;
            else if (k == "solve-ns")
                out->solveNs = *n;
            else if (k == "bytes")
                out->bytes = static_cast<std::uint64_t>(*n);
            else if (k == "hops")
                out->hops = static_cast<std::uint32_t>(*n);
            else if (k == "cached")
                out->cached = *n != 0;
            // Unknown numeric keys are ignored (forward compat).
        }
    }
    return true;
}

} // anonymous namespace

std::optional<DumpResponse>
tryReadDumpResponse(std::istream &is, std::string *error)
{
    DumpResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty dump-response frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-dump-response") {
            parseFail(error,
                      "expected 'jitsched-dump-response <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad dump-response id '" + id_tok + "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    std::int64_t declared = -1;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "dump response truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else if (key == "records") {
            if (!intField(ls, "records size", &declared, error))
                return std::nullopt;
            if (declared < 0) {
                parseFail(error, "negative records size");
                return std::nullopt;
            }
            // Foreign input: cap the reserve like schedule/snapshot.
            resp.records.reserve(
                std::min(static_cast<std::size_t>(declared),
                         std::size_t(1) << 16));
        } else if (key == "record") {
            obs::FlightRecord r;
            if (!parseRecordLine(ls, &r, error))
                return std::nullopt;
            resp.records.push_back(std::move(r));
        } else {
            parseFail(error, "unknown dump-response directive '" +
                      key + "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "dump response carries no status");
        return std::nullopt;
    }
    if (resp.ok && declared >= 0 &&
        static_cast<std::size_t>(declared) != resp.records.size()) {
        parseFail(error, "dump response declared " +
                  std::to_string(declared) + " records but carried " +
                  std::to_string(resp.records.size()));
        return std::nullopt;
    }
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

void
writeSnapshotRequest(std::ostream &os, const SnapshotRequest &req)
{
    os << "jitsched-snapshot " << req.id << "\n";
    os << "end\n";
}

std::string
snapshotRequestText(const SnapshotRequest &req)
{
    std::ostringstream os;
    writeSnapshotRequest(os, req);
    return os.str();
}

std::optional<SnapshotRequest>
tryReadSnapshotRequest(std::istream &is, std::string *error)
{
    SnapshotRequest req;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty snapshot-request frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-snapshot") {
            parseFail(error,
                      "expected 'jitsched-snapshot <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad snapshot-request id '" + id_tok +
                      "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
    }

    const auto tail = nextLine(is);
    if (!tail || *tail != "end") {
        parseFail(error, "snapshot request carries a body (expected "
                  "'end')");
        return std::nullopt;
    }
    return req;
}

void
writeSnapshotResponse(std::ostream &os, const SnapshotResponse &resp)
{
    os << "jitsched-snapshot-response " << resp.id << "\n";
    if (resp.ok) {
        os << "status ok\n";
        os << "entries " << resp.entries << "\n";
        os << "bytes " << resp.bytes << "\n";
    } else {
        os << "status error "
           << (resp.code.empty() ? errcode::unavailable : resp.code)
           << "\n";
        os << "error " << resp.error << "\n";
    }
    os << "end\n";
}

std::string
snapshotResponseText(const SnapshotResponse &resp)
{
    std::ostringstream os;
    writeSnapshotResponse(os, resp);
    return os.str();
}

std::optional<SnapshotResponse>
tryReadSnapshotResponse(std::istream &is, std::string *error)
{
    SnapshotResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty snapshot-response frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-snapshot-response") {
            parseFail(
                error,
                "expected 'jitsched-snapshot-response <id>', got '" +
                *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad snapshot-response id '" + id_tok +
                      "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "snapshot response truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;
        std::int64_t v = 0;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else if (key == "entries") {
            if (!intField(ls, "entries", &v, error))
                return std::nullopt;
            resp.entries = static_cast<std::uint64_t>(v);
        } else if (key == "bytes") {
            if (!intField(ls, "bytes", &v, error))
                return std::nullopt;
            resp.bytes = static_cast<std::uint64_t>(v);
        } else {
            parseFail(error, "unknown snapshot-response directive '" +
                      key + "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "snapshot response carries no status");
        return std::nullopt;
    }
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

void
writePingRequest(std::ostream &os, const PingRequest &req)
{
    os << "jitsched-ping " << req.id << "\n";
    os << "end\n";
}

std::string
pingRequestText(const PingRequest &req)
{
    std::ostringstream os;
    writePingRequest(os, req);
    return os.str();
}

std::optional<PingRequest>
tryReadPingRequest(std::istream &is, std::string *error)
{
    PingRequest req;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty ping frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-ping") {
            parseFail(error, "expected 'jitsched-ping <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad ping id '" + id_tok + "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
    }

    const auto tail = nextLine(is);
    if (!tail || *tail != "end") {
        parseFail(error, "ping carries a body (expected 'end')");
        return std::nullopt;
    }
    return req;
}

void
writePongResponse(std::ostream &os, const PongResponse &resp)
{
    os << "jitsched-pong " << resp.id << "\n";
    if (resp.ok) {
        os << "status ok\n";
    } else {
        os << "status error "
           << (resp.code.empty() ? errcode::unavailable : resp.code)
           << "\n";
        os << "error " << resp.error << "\n";
    }
    os << "end\n";
}

std::string
pongResponseText(const PongResponse &resp)
{
    std::ostringstream os;
    writePongResponse(os, resp);
    return os.str();
}

std::optional<PongResponse>
tryReadPongResponse(std::istream &is, std::string *error)
{
    PongResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty pong frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-pong") {
            parseFail(error, "expected 'jitsched-pong <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad pong id '" + id_tok + "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "pong truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else {
            parseFail(error, "unknown pong directive '" + key + "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "pong carries no status");
        return std::nullopt;
    }
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

namespace {

/** First whitespace token of a frame's first meaningful line. */
std::string_view
frameTag(std::string_view frame)
{
    LineCursor lines(frame);
    const auto first = lines.next();
    return first ? Tokenizer(*first).next() : std::string_view();
}

} // anonymous namespace

bool
isStatsRequestFrame(std::string_view frame)
{
    return frameTag(frame) == "jitsched-stats";
}

bool
isPingRequestFrame(std::string_view frame)
{
    return frameTag(frame) == "jitsched-ping";
}

bool
isDumpRequestFrame(std::string_view frame)
{
    return frameTag(frame) == "jitsched-dump";
}

bool
isSnapshotRequestFrame(std::string_view frame)
{
    return frameTag(frame) == "jitsched-snapshot";
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
