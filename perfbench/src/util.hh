/**
 * @file
 * Small helpers shared by the benchmark's translation units: the
 * clock, order statistics, and a minimal JSON object printer.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nearest-rank percentile (q in [0, 1]) of an unsorted sample. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** One reported metric: name, value, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Render a double with every significant digit. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
