#include "legacy_codec.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "obs/span.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

namespace jitsched {
namespace legacy {

std::optional<std::int64_t>
parseInt(std::string_view s)
{
    s = trim(s);
    if (s.empty())
        return std::nullopt;
    std::string buf(s);
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(buf.c_str(), &end, 10);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return std::nullopt;
    return static_cast<std::int64_t>(v);
}

namespace {

std::string
cleanLine(const std::string &line)
{
    const std::size_t hash = line.find('#');
    const std::string_view body =
        hash == std::string::npos
            ? std::string_view(line)
            : std::string_view(line).substr(0, hash);
    return std::string(trim(body));
}

std::optional<std::int64_t>
tryInt(std::string_view tok, const char *what, std::string *error)
{
    const auto v = parseInt(tok);
    if (!v) {
        *error = detail::concat("trace parse error: bad ", what, " '",
                                std::string(tok), "'");
        return std::nullopt;
    }
    return v;
}

template <typename... Args>
std::optional<Workload>
fail(std::string *error, const Args &...args)
{
    *error = detail::concat("trace parse error: ", args...);
    return std::nullopt;
}

constexpr std::size_t kMaxDeclaredReserve = std::size_t(1) << 20;

std::optional<std::string>
nextLine(std::istream &is)
{
    std::string raw;
    while (std::getline(is, raw)) {
        std::string line = cleanLine(raw);
        if (!line.empty())
            return line;
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

void
writeDouble(std::ostream &os, double v)
{
    std::ostringstream tmp;
    tmp.precision(std::numeric_limits<double>::max_digits10);
    tmp << v;
    os << tmp.str();
}

void
writeWorkload(std::ostream &os, const Workload &w)
{
    os << "# jitsched workload trace\n";
    os << "workload " << w.name() << "\n";
    os << "levels " << w.maxLevels() << "\n";
    for (std::size_t i = 0; i < w.numFunctions(); ++i) {
        const auto &prof = w.function(static_cast<FuncId>(i));
        os << "func " << i << ' ' << prof.name() << ' ' << prof.size();
        for (std::size_t j = 0; j < prof.numLevels(); ++j) {
            const auto &lc = prof.level(static_cast<Level>(j));
            os << ' ' << lc.compile << ' ' << lc.exec;
        }
        os << "\n";
    }
    os << "calls " << w.numCalls() << "\n";
    const auto &calls = w.calls();
    for (std::size_t i = 0; i < calls.size(); ++i) {
        os << calls[i];
        os << ((i % 16 == 15 || i + 1 == calls.size()) ? '\n' : ' ');
    }
}

bool
applyOption(ServiceRequest &req, const std::string &key,
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
    return parseFail(error, "unknown option '" + key + "'");
}

void
writeStatsLine(std::ostream &os, const ServiceStats &stats)
{
    os << "stats cache-hits " << stats.cacheHits << " cache-misses "
       << stats.cacheMisses << " queue-ns " << stats.queueNs
       << " solve-ns " << stats.solveNs;
    if (stats.resultCache != 0)
        os << " result-cache " << stats.resultCache;
    if (stats.traceId != 0)
        os << " trace-id " << obs::traceIdHex(stats.traceId);
    os << "\n";
}

} // anonymous namespace

std::optional<Workload>
tryReadWorkload(std::istream &is, std::string *error,
                const std::string &stop_line)
{
    std::string local_error;
    std::string &err = error != nullptr ? *error : local_error;

    std::string name = "unnamed";
    std::size_t levels = 0;
    std::vector<FunctionProfile> funcs;
    std::vector<FuncId> calls;
    std::size_t expected_calls = 0;
    bool in_calls = false;

    std::string raw;
    while (std::getline(is, raw)) {
        const std::string line = cleanLine(raw);
        if (line.empty())
            continue;
        if (!stop_line.empty() && line == stop_line)
            break;

        std::istringstream ls(line);
        if (in_calls) {
            std::string tok;
            while (ls >> tok) {
                const auto id = tryInt(tok, "call function id", &err);
                if (!id)
                    return std::nullopt;
                calls.push_back(static_cast<FuncId>(*id));
            }
            if (calls.size() >= expected_calls)
                in_calls = false;
            continue;
        }

        std::string key;
        ls >> key;
        if (key == "workload") {
            ls >> name;
        } else if (key == "levels") {
            std::string tok;
            ls >> tok;
            const auto v = tryInt(tok, "level count", &err);
            if (!v)
                return std::nullopt;
            if (*v < 0)
                return fail(&err, "negative level count ", *v);
            levels = static_cast<std::size_t>(*v);
        } else if (key == "func") {
            std::string id_tok, fname, size_tok;
            ls >> id_tok >> fname >> size_tok;
            const auto id = tryInt(id_tok, "function id", &err);
            if (!id)
                return std::nullopt;
            if (static_cast<std::size_t>(*id) != funcs.size())
                return fail(&err, "function ids must be dense and in "
                            "order (got ", *id, ", expected ",
                            funcs.size(), ")");
            const auto size = tryInt(size_tok, "function size", &err);
            if (!size)
                return std::nullopt;
            if (*size < 0)
                return fail(&err, "negative size for function '",
                            fname, "'");
            std::vector<LevelCosts> lcs;
            std::string c_tok, e_tok;
            while (ls >> c_tok >> e_tok) {
                const auto c = tryInt(c_tok, "compile time", &err);
                if (!c)
                    return std::nullopt;
                const auto e = tryInt(e_tok, "execution time", &err);
                if (!e)
                    return std::nullopt;
                lcs.push_back({*c, *e});
            }
            if (lcs.empty())
                return fail(&err, "function '", fname,
                            "' has no level costs");
            if (levels != 0 && lcs.size() > levels)
                return fail(&err, "function '", fname,
                            "' declares more levels than header");
            if (!FunctionProfile::levelsMonotonic(lcs))
                return fail(&err, "function '", fname,
                            "' violates level monotonicity");
            funcs.emplace_back(fname,
                               static_cast<std::uint32_t>(*size),
                               std::move(lcs));
        } else if (key == "calls") {
            std::string tok;
            ls >> tok;
            const auto v = tryInt(tok, "call count", &err);
            if (!v)
                return std::nullopt;
            if (*v < 0)
                return fail(&err, "negative call count ", *v);
            expected_calls = static_cast<std::size_t>(*v);
            calls.reserve(
                std::min(expected_calls, kMaxDeclaredReserve));
            in_calls = expected_calls > 0;
        } else {
            return fail(&err, "unknown directive '", key, "'");
        }
    }

    if (calls.size() != expected_calls)
        return fail(&err, "expected ", expected_calls,
                    " calls, found ", calls.size());
    for (std::size_t i = 0; i < calls.size(); ++i) {
        if (calls[i] >= funcs.size())
            return fail(&err, "call #", i,
                        " references unknown function ", calls[i]);
    }
    return Workload(name, std::move(funcs), std::move(calls));
}

std::optional<ServiceRequest>
tryReadRequest(std::istream &is, std::string *error)
{
    ServiceRequest req;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty request frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-request") {
            parseFail(error, "expected 'jitsched-request <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad request id '" + id_tok + "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
    }

    for (;;) {
        const auto line = nextLine(is);
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
        std::istringstream ls(*line);
        std::string key;
        ls >> key;
        if (key == "policy") {
            ls >> req.policy;
            if (req.policy.empty()) {
                parseFail(error, "policy line names no policy");
                return std::nullopt;
            }
        } else if (key == "option") {
            std::string opt_key, opt_value;
            ls >> opt_key >> opt_value;
            if (opt_key.empty() || opt_value.empty()) {
                parseFail(error,
                          "option line needs a key and a value");
                return std::nullopt;
            }
            if (!applyOption(req, opt_key, opt_value, error))
                return std::nullopt;
        } else {
            parseFail(error, "unknown directive '" + key +
                      "' before payload");
            return std::nullopt;
        }
    }

    if (req.policy.empty()) {
        parseFail(error, "request names no policy");
        return std::nullopt;
    }

    std::string wl_error;
    auto w = tryReadWorkload(is, &wl_error, "end");
    if (!w) {
        if (error != nullptr)
            *error = wl_error;
        return std::nullopt;
    }
    req.workload = *std::move(w);
    return req;
}

std::string
workloadText(const Workload &w)
{
    std::ostringstream os;
    writeWorkload(os, w);
    return os.str();
}

std::string
requestText(const ServiceRequest &req)
{
    std::ostringstream os;
    os << "jitsched-request " << req.id << "\n";
    os << "policy " << req.policy << "\n";
    const ServiceOptions &o = req.options;
    os << "option compile-cores " << o.compileCores << "\n";
    os << "option model "
       << (o.model == ModelKind::Oracle ? "oracle" : "default")
       << "\n";
    if (o.jitterSigma != 0.0) {
        os << "option jitter-sigma ";
        writeDouble(os, o.jitterSigma);
        os << "\n";
        os << "option jitter-seed " << o.jitterSeed << "\n";
    }
    os << "option astar-max-expansions " << o.astarMaxExpansions
       << "\n";
    os << "option astar-memory-mb " << o.astarMemoryMb << "\n";
    if (o.astarThreads != 0)
        os << "option threads " << o.astarThreads << "\n";
    if (o.deadlineMs >= 0)
        os << "option deadline-ms " << o.deadlineMs << "\n";
    if (req.traceId != 0)
        os << "option trace-id " << obs::traceIdHex(req.traceId)
           << "\n";
    os << "payload\n";
    writeWorkload(os, req.workload);
    os << "end\n";
    return os.str();
}

std::string
responseText(const ServiceResponse &resp, bool include_stats)
{
    std::ostringstream os;
    os << "jitsched-response " << resp.id << "\n";
    if (resp.ok) {
        os << "status ok\n";
    } else {
        os << "status error "
           << (resp.code.empty() ? errcode::unavailable : resp.code)
           << "\n";
        os << "error " << resp.error << "\n";
    }
    if (!resp.policy.empty())
        os << "policy " << resp.policy << "\n";
    if (resp.ok) {
        os << "lower-bound " << resp.lowerBound << "\n";
        if (resp.hasSim) {
            const SimResult &s = resp.sim;
            os << "makespan " << s.makespan << "\n";
            os << "compile-end " << s.compileEnd << "\n";
            os << "exec-end " << s.execEnd << "\n";
            os << "total-bubble " << s.totalBubble << "\n";
            os << "bubble-count " << s.bubbleCount << "\n";
            os << "total-exec " << s.totalExec << "\n";
            os << "total-compile " << s.totalCompile << "\n";
            if (!s.callsAtLevel.empty()) {
                os << "calls-at-level";
                for (const std::uint64_t n : s.callsAtLevel)
                    os << ' ' << n;
                os << "\n";
            }
        }
        if (resp.hasSchedule) {
            os << "schedule " << resp.schedule.size() << "\n";
            for (const CompileEvent &ev : resp.schedule)
                os << ev.func << ' ' << static_cast<int>(ev.level)
                   << "\n";
        }
    }
    if (include_stats)
        writeStatsLine(os, resp.stats);
    os << "end\n";
    return os.str();
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

} // namespace legacy
} // namespace jitsched
