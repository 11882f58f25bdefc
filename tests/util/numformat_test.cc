/** @file Unit tests for util/numformat's strict integer parser. */

#include <gtest/gtest.h>

#include "util/numformat.hh"

namespace rcache
{

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
}

} // namespace rcache
