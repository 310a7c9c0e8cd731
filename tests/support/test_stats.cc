/**
 * @file
 * Unit tests for StatSet and geoMean.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "support/stats.hh"

using namespace txrace;

TEST(StatSet, StartsEmpty)
{
    StatSet s;
    EXPECT_EQ(s.get("anything"), 0u);
    EXPECT_TRUE(s.all().empty());
}

TEST(StatSet, SetOverwrites)
{
    StatSet s;
    s.set("x", 10);
    s.set("x", 3);
    EXPECT_EQ(s.get("x"), 3u);
}

TEST(StatSet, IterationIsSorted)
{
    StatSet s;
    s.set("zebra", 1);
    s.set("alpha", 1);
    s.set("mid", 1);
    std::vector<std::string> names;
    for (const auto &[name, value] : s.all())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zebra"}));
}

TEST(GeoMean, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
}

TEST(GeoMean, SingleValue)
{
    EXPECT_NEAR(geoMean({4.2}), 4.2, 1e-12);
}

TEST(GeoMean, KnownValue)
{
    EXPECT_NEAR(geoMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geoMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(GeoMean, InvariantUnderPermutation)
{
    EXPECT_NEAR(geoMean({3.0, 5.0, 7.0}), geoMean({7.0, 3.0, 5.0}),
                1e-12);
}

TEST(GeoMeanDeathTest, PanicsOnNonPositive)
{
    EXPECT_DEATH(geoMean({1.0, 0.0}), "non-positive");
    EXPECT_DEATH(geoMean({-2.0}), "non-positive");
}
