/**
 * @file
 * String / formatting utilities shared by trace I/O and reporting.
 */

#ifndef JITSCHED_SUPPORT_STRUTIL_HH
#define JITSCHED_SUPPORT_STRUTIL_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hh"

namespace jitsched {

/** Split on a delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** The "C" locale's isspace set: space, \t, \n, \v, \f, \r. */
inline bool
isSpace(char c)
{
    return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

/** Strip leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view s);

/** A text line without its '#' comment and surrounding whitespace. */
std::string_view cleanLine(std::string_view line);

/**
 * Forward cursor over the meaningful lines of a text: each
 * '\n'-terminated line (or final unterminated one) is cleaned with
 * cleanLine() and blank results are skipped — the line model of the
 * workload and wire-protocol grammars.
 */
class LineCursor
{
  public:
    explicit LineCursor(std::string_view text) : rest_(text) {}

    /** Next non-blank cleaned line, or nullopt at the end. */
    std::optional<std::string_view> next();

    /**
     * Next line exactly as written — no comment stripping, blank
     * lines included — or nullopt at the end (what std::getline
     * yields).
     */
    std::optional<std::string_view> nextRaw();

    /** The text after the last line next() returned. */
    std::string_view rest() const { return rest_; }

  private:
    std::string_view rest_;
};

/**
 * Whitespace-separated tokens of one line, as views — the same
 * split `istream >> std::string` makes.
 */
class Tokenizer
{
  public:
    explicit Tokenizer(std::string_view line) : rest_(line) {}

    /** Next token; empty once the line is exhausted. */
    std::string_view next();

  private:
    std::string_view rest_;
};

/**
 * Parse a signed 64-bit base-10 integer: surrounding whitespace and
 * one leading '+' or '-' allowed; nullopt on any other syntax and on
 * overflow (exactly what strtoll with a full-match check accepts).
 */
std::optional<std::int64_t> parseInt(std::string_view s);

/** Append the decimal rendering of an integer. */
template <typename T>
void
appendInt(std::string &out, T v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** Parse a double; nullopt on any syntax error. */
std::optional<double> parseDouble(std::string_view s);

/** Render ticks as a human unit string, e.g. "1.50 ms". */
std::string formatTicks(Tick t);

/** Render a double with a fixed number of decimals. */
std::string formatFixed(double v, int decimals);

/** Render a count with thousands separators, e.g. "2,403,584". */
std::string formatCount(std::uint64_t n);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace jitsched

#endif // JITSCHED_SUPPORT_STRUTIL_HH
