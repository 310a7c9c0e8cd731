/**
 * @file
 * The strict numeric option parser: whole-string, sign-free unsigned
 * integers and finite doubles.
 */

#include <gtest/gtest.h>

#include <limits>

#include "support/numparse.hh"

using namespace txrace;

TEST(NumParse, UnsignedAcceptsPlainDecimals)
{
    EXPECT_EQ(parseUnsigned("0"), 0u);
    EXPECT_EQ(parseUnsigned("42"), 42u);
    EXPECT_EQ(parseUnsigned("007"), 7u);
    EXPECT_EQ(parseUnsigned("18446744073709551615"),
              std::numeric_limits<uint64_t>::max());
}

TEST(NumParse, UnsignedRefusesSignsJunkAndOverflow)
{
    for (const char *bad :
         {"", "-2", "+2", " 2", "2 ", "abc", "2x", "0x10", "1.5",
          "18446744073709551616", "99999999999999999999999"})
        EXPECT_FALSE(parseUnsigned(bad).has_value()) << "'" << bad << "'";
}

TEST(NumParse, FiniteAcceptsOrdinaryNumbers)
{
    EXPECT_EQ(parseFinite("0.5"), 0.5);
    EXPECT_EQ(parseFinite("5"), 5.0);
    EXPECT_EQ(parseFinite("-1.25"), -1.25);
    EXPECT_EQ(parseFinite("1e-3"), 1e-3);
}

TEST(NumParse, FiniteRefusesNanInfinityAndJunk)
{
    for (const char *bad :
         {"", "nan", "NaN", "inf", "-inf", "infinity", "1e999", " 1",
          "1 ", "abc", "0.5x"})
        EXPECT_FALSE(parseFinite(bad).has_value()) << "'" << bad << "'";
}

TEST(NumParseDeathTest, OptionHelpersNameTheFlag)
{
    EXPECT_EXIT(unsignedOption("--seeds", "-2"),
                ::testing::ExitedWithCode(1), "--seeds: '-2'");
    EXPECT_EXIT(finiteOption("--rate", "nan"),
                ::testing::ExitedWithCode(1), "--rate: 'nan'");
    EXPECT_EQ(unsignedOption("--seeds", "3"), 3u);
    EXPECT_EQ(finiteOption("--rate", "0.25"), 0.25);
}
