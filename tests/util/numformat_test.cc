/**
 * @file
 * Unit tests for util/numformat: fixed cases for each parser and
 * formatter, and seeded differential tests of shortestDouble and
 * parseDoubleStrict against the classic-locale stream versions they
 * replaced, kept here as the slow, obviously-correct references.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iterator>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "util/numformat.hh"
#include "util/random.hh"

namespace rcache
{

namespace
{

/** The stream formatter shortestDouble replaced, kept verbatim. */
std::string
referenceShortestDouble(double v)
{
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::ostringstream ss;
        ss.imbue(std::locale::classic());
        ss << static_cast<long long>(v);
        return ss.str();
    }
    std::ostringstream ss;
    ss.imbue(std::locale::classic());
    ss << std::setprecision(17) << v;
    std::string wide = ss.str();
    for (int prec = 1; prec < 17; ++prec) {
        std::ostringstream probe;
        probe.imbue(std::locale::classic());
        probe << std::setprecision(prec) << v;
        std::istringstream back(probe.str());
        back.imbue(std::locale::classic());
        double parsed = 0;
        back >> parsed;
        if (parsed == v)
            return probe.str();
    }
    return wide;
}

/** The stream parser parseDoubleStrict replaced, kept verbatim. */
bool
referenceParseDoubleStrict(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    std::istringstream ss(text);
    ss.imbue(std::locale::classic());
    double v = 0;
    ss >> v;
    if (ss.fail() || !ss.eof())
        return false;
    out = v;
    return true;
}

double
fromBits(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

/** %.*g (or another printf conversion) of @p v. */
std::string
printfText(const char *conv, int precision, double v)
{
    char buf[512];
    std::snprintf(buf, sizeof buf, conv, precision, v);
    return buf;
}

/** A decimal with 1..7 significant digits anywhere in the double
 *  range, as the simulator's ratios and fractions often are: these
 *  stop the formatter's precision search early. */
double
shortDecimal(Rng &rng)
{
    const std::string text =
        std::to_string(rng.nextBelow(10'000'000)) + "e" +
        std::to_string(static_cast<int>(rng.nextBelow(640)) - 330);
    return std::strtod(text.c_str(), nullptr);
}

/** The texts the parser corpus starts from: the formats a number
 *  takes in the simulator's outputs, and a few more. */
std::string
literalOf(Rng &rng)
{
    const double v = rng.chance(0.5) ? shortDecimal(rng)
                                     : fromBits(rng.next());
    switch (rng.nextBelow(6)) {
    case 0:
        return shortestDouble(v);
    case 1:
        return printfText("%.*g", 1 + static_cast<int>(rng.nextBelow(17)),
                          v);
    case 2:
        return printfText("%.*E", static_cast<int>(rng.nextBelow(17)), v);
    case 3:
        return printfText("%.*f", static_cast<int>(rng.nextBelow(8)),
                          std::fmod(v, 1e12));
    case 4:
        return std::to_string(rng.next() >> rng.nextBelow(64));
    default: {
        // Literals at and past the ends of the range, some with long
        // mantissas, whose exponent alone misjudges the magnitude.
        std::string mant = rng.chance(0.5) ? "1" : "0.";
        const std::size_t zeros = rng.nextBelow(400);
        mant += std::string(zeros, '0') + "7";
        const int exp = static_cast<int>(rng.nextBelow(1400)) - 700;
        return (rng.chance(0.5) ? "-" : "") + mant + "e" +
               std::to_string(exp);
    }
    }
}

/** One corpus string: a literal, sometimes bent out of shape by the
 *  edits a hand-written or damaged file holds. */
std::string
parserCase(Rng &rng)
{
    static const char kNoise[] = " \t\n\v\f\r+-.eE0123456789xXpinfaINFA,_";
    std::string s = literalOf(rng);
    const auto noise = [&] {
        return kNoise[rng.nextBelow(sizeof kNoise - 1)];
    };
    const std::uint64_t edit = rng.nextBelow(100);
    if (edit < 88)
        return s;
    // Every draw in its own statement: the order in which a call's
    // arguments are evaluated is unspecified.
    const char c = noise();
    const std::size_t at = rng.nextBelow(s.size() + 1);
    switch (edit) {
    case 88:
        return std::string(1 + at % 3, c) + s;
    case 89:
        return " " + s;
    case 90:
        return "+" + s;
    case 91:
        return s + c;
    case 92:
        return s.insert(at, 1, c);
    case 93:
        return at < s.size() ? s.erase(at, 1) : s;
    case 94:
        return at < s.size() ? s.replace(at, 1, 1, c) : s;
    case 95:
        return s.substr(0, at);
    case 96:
        return {c, noise(), noise()}; // a braced list runs in order
    default: {
        static const char *const kOdd[] = {
            "inf", "-inf", "+inf", "nan", "NAN", "infinity", "0x1p3",
            "0x10", "", " ", "+", "-", "+-1", "-+1", ".", "e5", "1e",
            "1e+", "1.5 ", "1,5", "1e309", "-1e309", "1e-400",
            "-1e-400", "2e-324", "3e-324", "+.5", "-.5", "1.", "\t2"};
        return kOdd[rng.nextBelow(std::size(kOdd))];
    }
    }
}

} // namespace

TEST(NumformatTest, ParseU64StrictAcceptsPlainDecimals)
{
    unsigned long long v = 7;
    EXPECT_TRUE(parseU64Strict("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64Strict("400000", v));
    EXPECT_EQ(v, 400000u);
    EXPECT_TRUE(parseU64Strict("18446744073709551000", v));
    EXPECT_EQ(v, 18446744073709551000ull);
    EXPECT_TRUE(parseU64Strict("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ull);
}

TEST(NumformatTest, ParseU64StrictRejectsSignsWhitespaceAndOverflow)
{
    // strtoull alone would skip the whitespace and negate: ' -1'
    // became 2^64-1, an effectively endless --insts.
    for (const char *bad :
         {"", " -1", "-1", "+1", " 1", "\t5", "1 ", "-1000", "12a",
          "0x10", "99999999999999999999999", "18446744073709551616"}) {
        unsigned long long v = 42;
        EXPECT_FALSE(parseU64Strict(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 42u) << "'" << bad << "' clobbered the output";
    }
    // The digits must reach the end of the text, past a NUL too.
    unsigned long long v = 42;
    EXPECT_FALSE(parseU64Strict(std::string("1\0", 2), v));
    EXPECT_FALSE(parseU64Strict(std::string("12\0" "3", 4), v));
    EXPECT_EQ(v, 42u);
}

TEST(NumformatTest, ShortestDoubleFixedCases)
{
    const struct
    {
        double v;
        const char *text;
    } cases[] = {
        {0.1, "0.1"},
        {1.5, "1.5"},
        {0.0001, "0.0001"},
        {1e-5, "1e-05"},
        {1.0 / 3, "0.3333333333333333"},
        {0.1 + 0.2, "0.30000000000000004"},
        {123456.789, "123456.789"},
        {50, "50"},
        {-7, "-7"},
        {1e15 - 1, "999999999999999"},
        {1e15, "1e+15"},
        {-1e15, "-1e+15"},
        {1e15 + 2, "1000000000000002"},
        // Plain std::to_chars spells this one with all 19 integer
        // digits; its shortest form has 16 significant digits.
        {0x1.2462a526736e5p+62, "5.267145897839138e+18"},
        // The 16-digit shortest form of 2^-1017 is not its %.16g
        // text, which does not read back.
        {0x1p-1017, "7.1202363472230444e-307"},
        {0.0, "0"},
        {-0.0, "0"},
        {std::numeric_limits<double>::denorm_min(), "5e-324"},
        {-std::numeric_limits<double>::denorm_min(), "-5e-324"},
        {DBL_MIN, "2.2250738585072014e-308"},
        {DBL_MAX, "1.7976931348623157e+308"},
        {-DBL_MAX, "-1.7976931348623157e+308"},
        {std::numeric_limits<double>::infinity(), "inf"},
        {-std::numeric_limits<double>::infinity(), "-inf"},
        {std::numeric_limits<double>::quiet_NaN(), "nan"},
        {-std::numeric_limits<double>::quiet_NaN(), "-nan"},
    };
    for (const auto &c : cases)
        EXPECT_EQ(shortestDouble(c.v), c.text) << c.text;
}

TEST(NumformatTest, DblMaxRoundTripsWhereTheStreamVersionDidNot)
{
    // The one intended divergence from the stream formatter: a stream
    // read clamps an overflow to DBL_MAX, so the old search took
    // "2e+308", which strtod, from_chars and Python read as infinity.
    for (const double v : {DBL_MAX, -DBL_MAX}) {
        EXPECT_EQ(referenceShortestDouble(v), v > 0 ? "2e+308" : "-2e+308");
        double back = 0;
        ASSERT_TRUE(parseDoubleStrict(shortestDouble(v), back));
        EXPECT_EQ(back, v);
        EXPECT_FALSE(parseDoubleStrict(referenceShortestDouble(v), back));
    }
}

TEST(NumformatTest, ParseDoubleStrictFixedCases)
{
    const struct
    {
        const char *text;
        double v;
    } accepted[] = {
        {"1.5", 1.5},      {" 1.5", 1.5}, {"\t2", 2},
        {"\n\v\f\r 3", 3}, {"+1.5", 1.5}, {"-1.5", -1.5},
        {" +4", 4},        {".5", 0.5},   {"-.5", -0.5},
        {"+.5", 0.5},      {"1.", 1},     {"1e5", 1e5},
        {"1E-5", 1e-5},    {"007", 7},    {"1e-400", 0},
        {"2e-324", 0},
        {"3e-324", std::numeric_limits<double>::denorm_min()},
        {"1.7976931348623157e+308", DBL_MAX},
    };
    for (const auto &c : accepted) {
        double v = 42;
        EXPECT_TRUE(parseDoubleStrict(c.text, v)) << "'" << c.text << "'";
        EXPECT_EQ(v, c.v) << "'" << c.text << "'";
    }
    double neg_zero = 42;
    ASSERT_TRUE(parseDoubleStrict("-1e-400", neg_zero));
    EXPECT_TRUE(neg_zero == 0 && std::signbit(neg_zero));

    for (const char *bad :
         {"", " ", "+", "-", "+-1", "-+1", "++1", "+ 1", "1.5 ", "1 5",
          "1e309", "-1e309", "2e+308", "1e99999999999999999999", "inf",
          "-inf", "+inf", "infinity", "nan", "NaN", "0x10", "0x1p3",
          "1e", "1e+", ".", "e5", "1,5", "1.2.3", "1e5e5"}) {
        double v = 42;
        EXPECT_FALSE(parseDoubleStrict(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 42) << "'" << bad << "' clobbered the output";
    }
    double v = 42;
    EXPECT_FALSE(parseDoubleStrict(std::string("1\0", 2), v));
    EXPECT_FALSE(parseDoubleStrict("1" + std::string(400, '0'), v));
    // Out of range either way against the exponent's sign: 1e350 and
    // 1e-351.
    EXPECT_FALSE(
        parseDoubleStrict("1" + std::string(400, '0') + "e-50", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseDoubleStrict("0." + std::string(400, '0') + "1e50",
                                  v));
    EXPECT_EQ(v, 0);
}

/**
 * shortestDouble against the stream formatter over 1M random bit
 * patterns and 200k short decimals, every binade boundary +-1 ulp
 * (the subnormal ones included), subnormals of every mantissa width,
 * and the specials. The two agree everywhere but +-DBL_MAX (see the
 * test above). The stream version takes about 40 us a value, so the
 * corpus is dealt to kFormatShards tests that ctest runs side by side.
 */
class ShortestDoubleDifferentialTest : public testing::TestWithParam<int>
{
};

constexpr int kFormatShards = 4;

TEST_P(ShortestDoubleDifferentialTest, MatchesStreamReference)
{
    const int shard = GetParam();
    std::vector<double> values;
    if (shard == 0) {
        values = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                  -std::numeric_limits<double>::infinity(),
                  std::numeric_limits<double>::quiet_NaN(),
                  -std::numeric_limits<double>::quiet_NaN(), 1e15,
                  1e15 - 1, 1e15 + 2, 9007199254740993.0,
                  std::nextafter(DBL_MAX, 0.0),
                  -std::nextafter(DBL_MAX, 0.0)};
        for (int e = -1074; e <= 1023; ++e) {
            const double b = std::ldexp(1.0, e);
            for (const double v : {std::nextafter(b, 0.0), b,
                                   std::nextafter(b, HUGE_VAL)})
                values.insert(values.end(), {v, -v});
        }
    }
    Rng rng(0x5eed'f0a7 + shard);
    for (int i = 0; i < 1'000'000 / kFormatShards; ++i)
        values.push_back(fromBits(rng.next()));
    for (int i = 0; i < 200'000 / kFormatShards; ++i)
        values.push_back(shortDecimal(rng));
    for (int i = 0; i < 52 * 16; ++i)
        values.push_back(
            fromBits(rng.next() >> (12 + i % 52) | (i & 1ull) << 63));

    std::size_t mismatches = 0;
    for (const double v : values) {
        if (std::abs(v) == DBL_MAX)
            continue;
        const std::string want = referenceShortestDouble(v);
        const std::string got = shortestDouble(v);
        if (got != want && ++mismatches <= 10)
            ADD_FAILURE() << std::hexfloat << v << ": '" << got
                          << "', the stream version gives '" << want
                          << "'";
    }
    EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

INSTANTIATE_TEST_SUITE_P(Shards, ShortestDoubleDifferentialTest,
                         testing::Range(0, kFormatShards));

/**
 * parseDoubleStrict against the stream parser over 1M seeded strings:
 * the formats the simulator writes, literals past both ends of the
 * range, and edits that add whitespace, signs and stray bytes. Both
 * must accept the same strings and read the same bits.
 */
TEST(NumformatTest, ParseDoubleStrictMatchesStreamReference)
{
    Rng rng(0xca5e'f00d);
    std::size_t mismatches = 0, accepted = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        const std::string text = parserCase(rng);
        double want = 42, got = 42;
        const bool want_ok = referenceParseDoubleStrict(text, want);
        const bool got_ok = parseDoubleStrict(text, got);
        accepted += want_ok;
        if ((got_ok != want_ok ||
             std::bit_cast<std::uint64_t>(got) !=
                 std::bit_cast<std::uint64_t>(want)) &&
            ++mismatches <= 10)
            ADD_FAILURE() << "'" << text << "': "
                          << (got_ok ? "accepted" : "rejected") << " as "
                          << std::hexfloat << got << ", the stream "
                          << "parser " << (want_ok ? "accepts" : "rejects")
                          << " it as " << want;
    }
    EXPECT_EQ(mismatches, 0u);
    // The corpus must exercise both outcomes.
    EXPECT_GT(accepted, 500'000u);
    EXPECT_LT(accepted, 950'000u);
}

} // namespace rcache
