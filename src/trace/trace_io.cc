#include "trace/trace_io.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/logging.hh"
#include "support/strutil.hh"

namespace jitsched {

void
appendWorkload(std::string &out, const Workload &w)
{
    out += "# jitsched workload trace\nworkload ";
    out += w.name();
    out += "\nlevels ";
    appendInt(out, w.maxLevels());
    out += '\n';
    for (std::size_t i = 0; i < w.numFunctions(); ++i) {
        const auto &prof = w.function(static_cast<FuncId>(i));
        out += "func ";
        appendInt(out, i);
        out += ' ';
        out += prof.name();
        out += ' ';
        appendInt(out, prof.size());
        for (std::size_t j = 0; j < prof.numLevels(); ++j) {
            const auto &lc = prof.level(static_cast<Level>(j));
            out += ' ';
            appendInt(out, lc.compile);
            out += ' ';
            appendInt(out, lc.exec);
        }
        out += '\n';
    }
    out += "calls ";
    appendInt(out, w.numCalls());
    out += '\n';
    const auto &calls = w.calls();
    for (std::size_t i = 0; i < calls.size(); ++i) {
        appendInt(out, calls[i]);
        out += (i % 16 == 15 || i + 1 == calls.size()) ? '\n' : ' ';
    }
}

void
writeWorkload(std::ostream &os, const Workload &w)
{
    std::string out;
    appendWorkload(out, w);
    os << out;
}

void
writeWorkloadFile(const std::string &path, const Workload &w)
{
    std::ofstream os(path);
    if (!os)
        JITSCHED_FATAL("cannot open '", path, "' for writing");
    writeWorkload(os, w);
    if (!os)
        JITSCHED_FATAL("I/O error while writing '", path, "'");
}

namespace {

/**
 * Record a parse error; returns nullopt for tail-calling.  Every
 * parse failure below funnels through here, so the fatal and
 * non-fatal paths report identical messages.
 */
template <typename... Args>
std::optional<Workload>
fail(std::string *error, const Args &...args)
{
    *error = detail::concat("trace parse error: ", args...);
    return std::nullopt;
}

/** The next token as an integer; "bad <what> '<token>'" on failure. */
std::optional<std::int64_t>
tryInt(Tokenizer &toks, const char *what, std::string *error)
{
    const std::string_view tok = toks.next();
    const auto v = parseInt(tok);
    if (!v)
        fail(error, "bad ", what, " '", tok, "'");
    return v;
}

/**
 * Ceiling on a reserve() driven by a declared count.  Counts are
 * foreign input on the non-fatal path: an absurd header must not be
 * able to throw length_error/bad_alloc out of the parser (which would
 * kill a daemon thread).  Real elements still grow the vector past
 * this via push_back, bounded by the input size itself.
 */
constexpr std::size_t kMaxDeclaredReserve = std::size_t(1) << 20;

} // anonymous namespace

std::optional<Workload>
tryReadWorkload(std::string_view text, std::string *error,
                std::string_view stop_line)
{
    std::string local_error;
    std::string &err = error != nullptr ? *error : local_error;

    std::string_view name = "unnamed";
    std::size_t levels = 0;
    std::vector<FunctionProfile> funcs;
    std::vector<FuncId> calls;
    std::size_t expected_calls = 0;
    bool in_calls = false;

    LineCursor lines(text);
    while (const auto line = lines.next()) {
        if (!stop_line.empty() && *line == stop_line)
            break;

        Tokenizer toks(*line);
        if (in_calls) {
            for (;;) {
                const std::string_view tok = toks.next();
                if (tok.empty())
                    break;
                const auto id = parseInt(tok);
                if (!id)
                    return fail(&err, "bad call function id '", tok,
                                "'");
                calls.push_back(static_cast<FuncId>(*id));
            }
            if (calls.size() >= expected_calls)
                in_calls = false;
            continue;
        }

        const std::string_view key = toks.next();
        if (key == "workload") {
            // A bare `workload` line keeps the name it had.
            if (const auto tok = toks.next(); !tok.empty())
                name = tok;
        } else if (key == "levels") {
            const auto v = tryInt(toks, "level count", &err);
            if (!v)
                return std::nullopt;
            if (*v < 0)
                return fail(&err, "negative level count ", *v);
            levels = static_cast<std::size_t>(*v);
        } else if (key == "func") {
            const auto id = tryInt(toks, "function id", &err);
            if (!id)
                return std::nullopt;
            const std::string_view fname = toks.next();
            if (static_cast<std::size_t>(*id) != funcs.size())
                return fail(&err, "function ids must be dense and in "
                            "order (got ", *id, ", expected ",
                            funcs.size(), ")");
            const auto size = tryInt(toks, "function size", &err);
            if (!size)
                return std::nullopt;
            if (*size < 0)
                return fail(&err, "negative size for function '",
                            fname, "'");
            // (compile, exec) pairs; an odd trailing token is ignored,
            // so a pair is only judged once both tokens are there.
            std::vector<LevelCosts> lcs;
            lcs.reserve(4);
            for (;;) {
                const std::string_view c_tok = toks.next();
                const std::string_view e_tok = toks.next();
                if (e_tok.empty())
                    break;
                const auto c = parseInt(c_tok);
                const auto e = parseInt(e_tok);
                if (!c)
                    return fail(&err, "bad compile time '", c_tok, "'");
                if (!e)
                    return fail(&err, "bad execution time '", e_tok,
                                "'");
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
            funcs.emplace_back(std::string(fname),
                               static_cast<std::uint32_t>(*size),
                               std::move(lcs));
        } else if (key == "calls") {
            const auto v = tryInt(toks, "call count", &err);
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
    // The Workload constructor panics on out-of-range call ids —
    // appropriate for algorithm code, not for foreign input, so the
    // range check happens here on the non-fatal path.
    for (std::size_t i = 0; i < calls.size(); ++i) {
        if (calls[i] >= funcs.size())
            return fail(&err, "call #", i,
                        " references unknown function ", calls[i]);
    }
    return Workload(std::string(name), std::move(funcs),
                    std::move(calls));
}

std::optional<Workload>
tryReadWorkload(std::istream &is, std::string *error,
                const std::string &stop_line)
{
    std::string text;
    std::string raw;
    while (std::getline(is, raw)) {
        text += raw;
        text += '\n';
        if (!stop_line.empty() && cleanLine(raw) == stop_line)
            break;
    }
    return tryReadWorkload(std::string_view(text), error, stop_line);
}

Workload
readWorkload(std::istream &is)
{
    std::string err;
    auto w = tryReadWorkload(is, &err);
    if (!w)
        JITSCHED_FATAL(err);
    return *std::move(w);
}

Workload
readWorkloadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        JITSCHED_FATAL("cannot open '", path, "' for reading");
    return readWorkload(is);
}

} // namespace jitsched
