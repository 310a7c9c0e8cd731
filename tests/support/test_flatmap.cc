/**
 * @file
 * The flat open-addressing map (the published-version table, and as a
 * set the watched-line set) against std::unordered_map/unordered_set:
 * randomized differential runs through growth past the load bound,
 * with key 0 and the all-ones key in the mix.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/flatmap.hh"
#include "support/rng.hh"

using namespace txrace;

namespace {

/** Keys drawn from a narrow range (repeats, neighbouring lines), a
 *  wide one, and the two edge values. */
uint64_t
drawKey(Rng &rng)
{
    switch (rng.below(8)) {
      case 0:
        return 0;
      case 1:
        return ~0ull;
      case 2:
      case 3:
      case 4:
        return rng.below(300);
      default:
        return rng.next();
    }
}

} // namespace

TEST(FlatU64Map, EmptyMapFindsNothing)
{
    FlatU64Map<uint32_t> m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_FALSE(m.contains(~0ull));
    EXPECT_EQ(m.capacity(), 0u);
}

TEST(FlatU64Map, KeyZeroIsAnOrdinaryKey)
{
    FlatU64Map<uint32_t> m;
    ++m[0];
    ++m[0];
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 2u);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.find(1), nullptr);
}

TEST(FlatU64Map, DifferentialAgainstUnorderedMap)
{
    for (uint64_t seed : {1, 2, 3}) {
        Rng rng(seed);
        FlatU64Map<uint32_t> flat;
        std::unordered_map<uint64_t, uint32_t> ref;
        size_t grew_past = 0;
        for (int op = 0; op < 20000; ++op) {
            const uint64_t k = drawKey(rng);
            if (rng.below(3) == 0) {
                const size_t cap = flat.capacity();
                ++flat[k];
                ++ref[k];
                if (flat.capacity() != cap)
                    ++grew_past;
            } else {
                const uint32_t *v = flat.find(k);
                auto it = ref.find(k);
                ASSERT_EQ(v != nullptr, it != ref.end()) << k;
                if (v) {
                    ASSERT_EQ(*v, it->second) << k;
                }
            }
            ASSERT_EQ(flat.size(), ref.size());
            // The table never fills past 3/4.
            ASSERT_LE(flat.size() * 4, flat.capacity() * 3);
        }
        // Thousands of distinct keys: the table grew many times.
        EXPECT_GT(grew_past, 5u);
        for (const auto &[k, v] : ref) {
            ASSERT_NE(flat.find(k), nullptr) << k;
            EXPECT_EQ(*flat.find(k), v) << k;
        }
    }
}

TEST(FlatU64Map, ClearKeepsCapacityAndForgetsKeys)
{
    FlatU64Map<uint32_t> m;
    for (uint64_t k = 0; k < 100; ++k)
        m[k] = static_cast<uint32_t>(k);
    const size_t cap = m.capacity();
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.capacity(), cap);
    for (uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(m.contains(k));
    m[7] = 3;
    EXPECT_EQ(*m.find(7), 3u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatU64Map, AsASetDifferentialAgainstUnorderedSet)
{
    // The watched-line set: a FlatU64Map<bool> asked only contains().
    for (uint64_t seed : {4, 5}) {
        Rng rng(seed);
        FlatU64Map<bool> flat;
        std::unordered_set<uint64_t> ref;
        for (int op = 0; op < 20000; ++op) {
            const uint64_t k = drawKey(rng);
            if (rng.below(4) == 0) {
                flat[k] = true;
                ref.insert(k);
            } else {
                ASSERT_EQ(flat.contains(k), ref.count(k) != 0) << k;
            }
            ASSERT_EQ(flat.size(), ref.size());
        }
        EXPECT_GT(flat.size(), 1000u);
        for (uint64_t k : ref)
            EXPECT_TRUE(flat.contains(k)) << k;
        EXPECT_TRUE(flat.contains(0));
    }
}
