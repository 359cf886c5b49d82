/**
 * @file
 * Unit tests for string / formatting utilities.
 */

#include <limits>

#include <gtest/gtest.h>

#include "support/strutil.hh"

namespace jitsched {
namespace {

TEST(Split, Basic)
{
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Split, PreservesEmptyFields)
{
    const auto parts = split(",x,,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[1], "x");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "");
}

TEST(Split, EmptyInputGivesOneEmptyField)
{
    const auto parts = split("", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "");
}

TEST(Trim, StripsWhitespace)
{
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim("x"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("a b"), "a b");
}

TEST(ParseInt, Valid)
{
    EXPECT_EQ(parseInt("42").value(), 42);
    EXPECT_EQ(parseInt("-7").value(), -7);
    EXPECT_EQ(parseInt("  123 ").value(), 123);
    EXPECT_EQ(parseInt("0").value(), 0);
}

TEST(ParseInt, Invalid)
{
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_FALSE(parseInt("abc").has_value());
    EXPECT_FALSE(parseInt("12x").has_value());
    EXPECT_FALSE(parseInt("1.5").has_value());
    EXPECT_FALSE(parseInt("99999999999999999999999").has_value());
}

// The edges where std::from_chars and strtoll part ways; parseInt
// must answer exactly as the strtoll version did.
TEST(ParseInt, EdgeTableMatchesStrtoll)
{
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    const struct
    {
        const char *text;
        std::optional<std::int64_t> want;
    } kTable[] = {
        {"+5", 5},
        {"-0", 0},
        {" 7 ", 7},
        {"\t-12\r", -12},
        {"9223372036854775807", kMax},
        {"+9223372036854775807", kMax},
        {"9223372036854775808", std::nullopt}, // INT64_MAX + 1
        {"-9223372036854775808", kMin},
        {"-9223372036854775809", std::nullopt}, // INT64_MIN - 1
        {"0x10", std::nullopt},
        {"1e3", std::nullopt},
        {"", std::nullopt},
        {"   ", std::nullopt},
        {"+", std::nullopt},
        {"-", std::nullopt},
        {"+-5", std::nullopt},
        {"-+5", std::nullopt},
        {"++5", std::nullopt},
        {"- 5", std::nullopt},
        {"5 5", std::nullopt},
        {"007", 7},
    };
    for (const auto &row : kTable)
        EXPECT_EQ(parseInt(row.text), row.want) << "'" << row.text << "'";
}

TEST(LineCursor, SkipsBlankAndCommentLinesAndKeepsTheRest)
{
    LineCursor lines(" a b # c\n\n  # only\r\n\tx\r\nend\ntail");
    EXPECT_EQ(lines.next(), "a b");
    EXPECT_EQ(lines.next(), "x");
    EXPECT_EQ(lines.next(), "end");
    EXPECT_EQ(lines.rest(), "tail");
    EXPECT_EQ(lines.next(), "tail");
    EXPECT_FALSE(lines.next().has_value());
}

TEST(Tokenizer, SplitsOnEveryCLocaleSpace)
{
    Tokenizer toks(" a\tbb\v c\fd\r ");
    EXPECT_EQ(toks.next(), "a");
    EXPECT_EQ(toks.next(), "bb");
    EXPECT_EQ(toks.next(), "c");
    EXPECT_EQ(toks.next(), "d");
    EXPECT_EQ(toks.next(), "");
    EXPECT_EQ(toks.next(), "");
}

TEST(AppendInt, MatchesToString)
{
    std::string out;
    appendInt(out, std::numeric_limits<std::int64_t>::min());
    out += ' ';
    appendInt(out, std::numeric_limits<std::uint64_t>::max());
    out += ' ';
    appendInt(out, 0);
    EXPECT_EQ(out, "-9223372036854775808 18446744073709551615 0");
}

TEST(ParseDouble, Valid)
{
    EXPECT_DOUBLE_EQ(parseDouble("2.5").value(), 2.5);
    EXPECT_DOUBLE_EQ(parseDouble("-1e3").value(), -1000.0);
    EXPECT_DOUBLE_EQ(parseDouble(" 7 ").value(), 7.0);
}

TEST(ParseDouble, Invalid)
{
    EXPECT_FALSE(parseDouble("").has_value());
    EXPECT_FALSE(parseDouble("x").has_value());
    EXPECT_FALSE(parseDouble("1.5z").has_value());
    EXPECT_FALSE(parseDouble("nan").has_value());
    EXPECT_FALSE(parseDouble("inf").has_value());
}

TEST(FormatTicks, PicksUnits)
{
    EXPECT_EQ(formatTicks(500), "500 ns");
    EXPECT_EQ(formatTicks(1500), "1.500 us");
    EXPECT_EQ(formatTicks(2'500'000), "2.500 ms");
    EXPECT_EQ(formatTicks(3'000'000'000), "3.000 s");
}

TEST(FormatFixed, Decimals)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
    EXPECT_EQ(formatFixed(-1.5, 1), "-1.5");
}

TEST(FormatCount, ThousandsSeparators)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(2403584), "2,403,584");
    EXPECT_EQ(formatCount(43573214), "43,573,214");
}

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(strprintf("%.2f", 1.234), "1.23");
    EXPECT_EQ(strprintf("empty"), "empty");
}

} // anonymous namespace
} // namespace jitsched
