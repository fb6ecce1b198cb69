/** @file Unit tests for the open-addressing FlatMap: insert/erase,
 * rehash growth, tombstone reuse, iteration, and collision handling
 * with two-word (block, word) keys like the predictors' spill keys. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "base/flat_map.hh"

using namespace mspdsm;

TEST(FlatMap, StartsEmptyWithoutAllocation)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_EQ(m.find(7), m.end());
    EXPECT_FALSE(m.contains(7));
    EXPECT_EQ(m.erase(7), 0u);
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, std::string> m;
    auto [it, fresh] = m.try_emplace(1, "one");
    EXPECT_TRUE(fresh);
    EXPECT_EQ(it->first, 1u);
    EXPECT_EQ(it->second, "one");

    auto [it2, fresh2] = m.try_emplace(1, "uno");
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(it2->second, "one"); // try_emplace does not overwrite

    m[2] = "two";
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.find(2)->second, "two");

    EXPECT_EQ(m.erase(1), 1u);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.find(1), m.end());
    EXPECT_EQ(m.find(2)->second, "two");
}

TEST(FlatMap, GrowsThroughManyInserts)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    constexpr std::uint64_t n = 10000;
    for (std::uint64_t i = 0; i < n; ++i)
        m[i * 977] = i;
    EXPECT_EQ(m.size(), n);
    // Load factor stays under 7/8 across every rehash.
    EXPECT_GT(m.capacity(), n * 8 / 7);
    for (std::uint64_t i = 0; i < n; ++i) {
        auto it = m.find(i * 977);
        ASSERT_NE(it, m.end()) << i;
        EXPECT_EQ(it->second, i);
    }
}

TEST(FlatMap, StridedKeysDoNotDegenerate)
{
    // Power-of-two strides are the adversarial case for a
    // power-of-two-masked table; the avalanche hash must spread them.
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t i = 0; i < 4096; ++i)
        m[i * 4096] = 1;
    EXPECT_EQ(m.size(), 4096u);
    for (std::uint64_t i = 0; i < 4096; ++i)
        EXPECT_TRUE(m.contains(i * 4096));
}

TEST(FlatMap, TombstonesAreReused)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t i = 0; i < 8; ++i)
        m[i] = 1;
    const std::size_t cap = m.capacity();
    // Churn far more erase/insert cycles than the capacity: without
    // tombstone reuse (or purging rehashes) the table would fill with
    // dead slots and probe chains would never terminate.
    for (int round = 0; round < 10000; ++round) {
        const std::uint64_t k = 100 + (round % 16);
        m[k] = round;
        EXPECT_EQ(m.erase(k), 1u);
    }
    EXPECT_EQ(m.size(), 8u);
    // Stable live population: capacity must not balloon.
    EXPECT_LE(m.capacity(), cap * 2);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(m.contains(i));
}

TEST(FlatMap, EraseThenReinsertSameKey)
{
    FlatMap<std::uint64_t, int> m;
    m[5] = 1;
    m[5 + 64] = 2; // may or may not collide; exercise neighbours
    EXPECT_EQ(m.erase(5), 1u);
    m[5] = 3;
    EXPECT_EQ(m.find(5)->second, 3);
    EXPECT_EQ(m.find(5 + 64)->second, 2);
}

TEST(FlatMap, IterationVisitsEveryLiveEntryOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 100; ++i)
        m[i] = i * 2;
    m.erase(4);
    m.erase(40);
    std::set<std::uint64_t> seen;
    for (const auto &[k, v] : m) {
        EXPECT_EQ(v, k * 2);
        EXPECT_TRUE(seen.insert(k).second) << "duplicate " << k;
    }
    EXPECT_EQ(seen.size(), 98u);
    EXPECT_FALSE(seen.count(4));
    EXPECT_FALSE(seen.count(40));
}

TEST(FlatMap, ClearKeepsAllocationDropsEntries)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t i = 0; i < 50; ++i)
        m[i] = 1;
    const std::size_t cap = m.capacity();
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.find(3), m.end());
    m[3] = 9;
    EXPECT_EQ(m.find(3)->second, 9);
}

TEST(FlatMap, MoveTransfersStorage)
{
    FlatMap<std::uint64_t, std::string> a;
    a[1] = "one";
    a[2] = "two";
    FlatMap<std::uint64_t, std::string> b(std::move(a));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.find(1)->second, "one");
    EXPECT_EQ(a.size(), 0u);

    FlatMap<std::uint64_t, std::string> c;
    c[9] = "nine";
    c = std::move(b);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.find(9), c.end());
}

TEST(FlatMap, CopyIsDeep)
{
    FlatMap<std::uint64_t, int> a;
    a[1] = 10;
    FlatMap<std::uint64_t, int> b(a);
    b[1] = 20;
    b[2] = 30;
    EXPECT_EQ(a.find(1)->second, 10);
    EXPECT_EQ(a.find(2), a.end());
    EXPECT_EQ(b.find(1)->second, 20);
}

TEST(FlatMap, ReserveAvoidsLaterGrowth)
{
    FlatMap<std::uint64_t, int> m;
    m.reserve(1000);
    const std::size_t cap = m.capacity();
    EXPECT_GT(cap, 1000u * 8 / 7);
    for (std::uint64_t i = 0; i < 1000; ++i)
        m[i] = 1;
    EXPECT_EQ(m.capacity(), cap);
}

namespace
{

/** A two-word key shaped like a predictor spill key. */
struct PairKey
{
    std::uint64_t blk;
    std::uint64_t word;

    bool operator==(const PairKey &) const = default;
};

/** Hash functor forcing every key into one bucket. */
struct CollidingHash
{
    std::size_t operator()(const PairKey &) const { return 7; }
};

/** Hash functor mixing both words, as the predictors' does. */
struct PairHash
{
    std::size_t
    operator()(const PairKey &k) const
    {
        return static_cast<std::size_t>(mix64(k.word ^ mix64(k.blk)));
    }
};

PairKey
keyOf(std::uint64_t i)
{
    return {42, i << 2};
}

} // namespace

TEST(FlatMap, PairKeyFullCollisionsStillResolveByKey)
{
    // All keys share one probe chain: correctness must come from the
    // full key compare, never from the hash.
    FlatMap<PairKey, int, CollidingHash> m;
    for (int p = 0; p < 16; ++p)
        m[keyOf(p)] = p;
    EXPECT_EQ(m.size(), 16u);
    for (int p = 0; p < 16; ++p) {
        auto it = m.find(keyOf(p));
        ASSERT_NE(it, m.end()) << p;
        EXPECT_EQ(it->second, p);
    }
    // Erase from the middle of the chain; later chain members must
    // stay reachable (tombstone, not hole).
    EXPECT_EQ(m.erase(keyOf(7)), 1u);
    for (int p = 0; p < 16; ++p) {
        if (p == 7)
            EXPECT_EQ(m.find(keyOf(p)), m.end());
        else
            EXPECT_NE(m.find(keyOf(p)), m.end()) << p;
    }
}

TEST(FlatMap, PairKeysSharingOneWordAreDistinct)
{
    // Keys equal in one word (the same block, or the same word in two
    // blocks) must not alias.
    const PairKey a{3, 5}, b{3, 6}, c{4, 5}, d{5, 3};
    FlatMap<PairKey, int, PairHash> m;
    m[a] = 1;
    m[b] = 2;
    m[c] = 3;
    m[d] = 4;
    EXPECT_EQ(m.size(), 4u);
    EXPECT_EQ(m.find(a)->second, 1);
    EXPECT_EQ(m.find(b)->second, 2);
    EXPECT_EQ(m.find(c)->second, 3);
    EXPECT_EQ(m.find(d)->second, 4);
}
