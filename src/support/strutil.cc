#include "support/strutil.hh"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cmath>

namespace jitsched {

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string_view
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && isSpace(s[b]))
        ++b;
    while (e > b && isSpace(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

std::string_view
cleanLine(std::string_view line)
{
    return trim(line.substr(0, line.find('#')));
}

std::optional<std::string_view>
LineCursor::next()
{
    while (const auto raw = nextRaw()) {
        const std::string_view line = cleanLine(*raw);
        if (!line.empty())
            return line;
    }
    return std::nullopt;
}

std::optional<std::string_view>
LineCursor::nextRaw()
{
    if (rest_.empty())
        return std::nullopt;
    const std::size_t nl = rest_.find('\n');
    const std::string_view raw = rest_.substr(0, nl);
    rest_.remove_prefix(nl == std::string_view::npos ? rest_.size()
                                                     : nl + 1);
    return raw;
}

std::string_view
Tokenizer::next()
{
    const char *p = rest_.data();
    const char *const end = p + rest_.size();
    while (p != end && isSpace(*p))
        ++p;
    const char *const begin = p;
    while (p != end && !isSpace(*p))
        ++p;
    rest_ = std::string_view(p, static_cast<std::size_t>(end - p));
    return std::string_view(begin, static_cast<std::size_t>(p - begin));
}

std::optional<std::int64_t>
parseInt(std::string_view s)
{
    s = trim(s);
    const char *p = s.data();
    const char *const end = p + s.size();
    // from_chars takes no '+'; skip one, but never in front of a '-'
    // ("+-5" is no number to strtoll either).
    if (p != end && *p == '+' && ++p != end && *p == '-')
        return std::nullopt;
    std::int64_t v = 0;
    const auto res = std::from_chars(p, end, v);
    if (res.ec != std::errc() || res.ptr != end)
        return std::nullopt;
    return v;
}

std::optional<double>
parseDouble(std::string_view s)
{
    s = trim(s);
    if (s.empty())
        return std::nullopt;
    std::string buf(s);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (errno != 0 || end != buf.c_str() + buf.size() || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::string
formatTicks(Tick t)
{
    const double abs_t = std::abs(static_cast<double>(t));
    if (abs_t >= static_cast<double>(ticksPerSecond))
        return strprintf("%.3f s", toSeconds(t));
    if (abs_t >= static_cast<double>(ticksPerMs))
        return strprintf("%.3f ms", toMillis(t));
    if (abs_t >= static_cast<double>(ticksPerUs))
        return strprintf("%.3f us",
                         static_cast<double>(t) /
                             static_cast<double>(ticksPerUs));
    return strprintf("%lld ns", static_cast<long long>(t));
}

std::string
formatFixed(double v, int decimals)
{
    return strprintf("%.*f", decimals, v);
}

std::string
formatCount(std::uint64_t n)
{
    std::string digits = std::to_string(n);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
    for (std::size_t i = 0; i < digits.size(); ++i) {
        if (i != 0 && (i - lead) % 3 == 0 && i >= lead)
            out.push_back(',');
        out.push_back(digits[i]);
    }
    return out;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

} // namespace jitsched
