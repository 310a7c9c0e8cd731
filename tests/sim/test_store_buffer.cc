/**
 * @file
 * Differential tests of the flat transactional store buffer
 * (TxStoreBuffer) against std::unordered_map plus an insertion-order
 * list: put, overwrite, find, clear, growth past the load bound, and
 * the epoch counter wrapping around.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "sim/context.hh"
#include "support/rng.hh"

using namespace txrace;
using namespace txrace::sim;

namespace {

/** The reference model: a map for lookups, a list for commit order. */
struct Reference
{
    std::unordered_map<uint64_t, uint64_t> map;
    std::vector<uint64_t> order;

    void
    put(uint64_t g, uint64_t v)
    {
        if (map.emplace(g, v).second)
            order.push_back(g);
        else
            map[g] = v;
    }

    void
    clear()
    {
        map.clear();
        order.clear();
    }
};

/** Assert @p buf holds exactly @p ref, in the same insertion order. */
void
expectSame(const TxStoreBuffer &buf, const Reference &ref)
{
    ASSERT_EQ(buf.size(), ref.map.size());
    const auto &entries = buf.entries();
    for (size_t i = 0; i < entries.size(); ++i) {
        ASSERT_EQ(entries[i].granule, ref.order[i]) << "entry " << i;
        EXPECT_EQ(entries[i].value, ref.map.at(ref.order[i]));
    }
    for (const auto &[g, v] : ref.map) {
        const uint64_t *found = buf.find(g);
        ASSERT_NE(found, nullptr) << "granule " << g;
        EXPECT_EQ(*found, v);
    }
}

/** Random put/find/clear traffic; returns the number of clears. */
uint64_t
runRandomOps(TxStoreBuffer &buf, Reference &ref, Rng &rng, int ops,
             uint64_t key_range, int clear_one_in)
{
    uint64_t clears = 0;
    for (int i = 0; i < ops; ++i) {
        uint64_t g = rng.below(key_range);
        switch (rng.below(3)) {
          case 0:
          case 1: {
            uint64_t v = rng.next();
            buf.put(g, v);
            ref.put(g, v);
            break;
          }
          default: {
            const uint64_t *found = buf.find(g);
            auto it = ref.map.find(g);
            if (it == ref.map.end()) {
                EXPECT_EQ(found, nullptr) << "phantom granule " << g;
            } else {
                EXPECT_NE(found, nullptr) << "lost granule " << g;
                if (found) {
                    EXPECT_EQ(*found, it->second);
                }
            }
          }
        }
        if (rng.below(clear_one_in) == 0) {
            expectSame(buf, ref);
            buf.clear();
            ref.clear();
            ++clears;
        }
    }
    expectSame(buf, ref);
    return clears;
}

} // namespace

TEST(TxStoreBuffer, EmptyFindsNothing)
{
    TxStoreBuffer buf;
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.find(0), nullptr);
    EXPECT_EQ(buf.find(12345), nullptr);
    buf.clear();
    EXPECT_EQ(buf.find(0), nullptr);
}

TEST(TxStoreBuffer, OverwriteKeepsFirstInsertionPosition)
{
    TxStoreBuffer buf;
    buf.put(7, 1);
    buf.put(3, 2);
    buf.put(7, 5);
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.entries()[0].granule, 7u);
    EXPECT_EQ(buf.entries()[0].value, 5u);
    EXPECT_EQ(buf.entries()[1].granule, 3u);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.find(7), nullptr);
    EXPECT_EQ(buf.find(3), nullptr);
}

TEST(TxStoreBuffer, RandomizedDifferentialAgainstUnorderedMap)
{
    // Small key ranges force overwrites and long probe chains; large
    // ones with rare clears grow the table well past its load bound.
    struct Shape
    {
        uint64_t keys;
        int clearOneIn;
    };
    const Shape shapes[] = {{8, 4}, {64, 16}, {4096, 64}, {1u << 20, 5000}};
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        for (const Shape &sh : shapes) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " keys " << sh.keys);
            TxStoreBuffer buf;
            Reference ref;
            Rng rng(seed);
            runRandomOps(buf, ref, rng, 20000, sh.keys, sh.clearOneIn);
        }
    }
}

TEST(TxStoreBuffer, GrowsPastLoadBoundKeepingEveryEntry)
{
    TxStoreBuffer buf;
    Reference ref;
    // Consecutive and strided granules: the store streams workloads
    // make. 3000 distinct keys need several doublings.
    for (uint64_t i = 0; i < 1500; ++i) {
        buf.put(i, i * 3);
        ref.put(i, i * 3);
        buf.put(i * 512 + 1, i);
        ref.put(i * 512 + 1, i);
    }
    expectSame(buf, ref);
    EXPECT_EQ(buf.find(1500), nullptr);
}

TEST(TxStoreBuffer, EpochWrapAroundForgetsStaleSlots)
{
    // Growth restamps the table at epoch 1 and each clear() adds one,
    // so the epochs below are known. Slots stamped at epoch 2 before
    // the wrap must not come back to life when the counter reaches 2
    // again after it.
    TxStoreBuffer buf;
    for (uint64_t g = 0; g < 256; ++g)  // size the table: no growth later
        buf.put(g, g);
    buf.clear();  // epoch 2
    for (uint64_t g = 0; g < 100; ++g)
        buf.put(g, g + 1);
    buf.clear();
    buf.debugSetEpoch(~0u);
    buf.clear();  // wraps past zero
    buf.clear();  // epoch 2 again
    buf.put(1000, 7);  // a non-empty buffer probes the table
    for (uint64_t g = 0; g < 256; ++g)
        EXPECT_EQ(buf.find(g), nullptr) << "stale granule " << g;
    buf.put(5, 9);
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(*buf.find(5), 9u);
    EXPECT_EQ(*buf.find(1000), 7u);

    // Random traffic across a second wrap.
    Reference ref;
    Rng rng(9);
    buf.clear();
    buf.debugSetEpoch(~0u - 5);
    EXPECT_GT(runRandomOps(buf, ref, rng, 4000, 256, 50), 10u);
}
