/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/random.hh"

using namespace mspdsm;

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = r.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformDegenerateRange)
{
    Rng r(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.uniform(5, 5), 5u);
}

TEST(Rng, UniformCoversRange)
{
    Rng r(99);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.uniform(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformRealMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniformReal();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyPermutes)
{
    Rng r(29);
    std::vector<int> v(32);
    for (int i = 0; i < 32; ++i)
        v[i] = i;
    const std::vector<int> orig = v;
    r.shuffle(v);
    EXPECT_NE(v, orig); // astronomically unlikely to be identity
}

TEST(Rng, ShuffleEmptyAndSingleton)
{
    Rng r(31);
    std::vector<int> e;
    r.shuffle(e);
    EXPECT_TRUE(e.empty());
    std::vector<int> s{42};
    r.shuffle(s);
    EXPECT_EQ(s[0], 42);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng parent(41);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng r(0);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 16; ++i)
        seen.insert(r.next());
    EXPECT_GT(seen.size(), 14u);
}

/**
 * bounded() pays one divide per draw, and draws the same stream as
 * the plain rejection loop that computes the threshold 2^64 mod n on
 * every draw, for ranges small, odd, just past 32 bits and just past
 * half the 64-bit space (where half the draws are redrawn).
 */
TEST(Rng, BoundedMatchesTwoDivideReference)
{
    const std::uint64_t ns[] = {1,
                                2,
                                3,
                                7,
                                1000,
                                (std::uint64_t{1} << 32) + 1,
                                (std::uint64_t{1} << 63) + 5};
    for (const std::uint64_t n : ns) {
        Rng r(n), ref(n);
        for (int i = 0; i < 100000; ++i) {
            const std::uint64_t threshold = (0 - n) % n;
            std::uint64_t want;
            do {
                want = ref.next();
            } while (want < threshold);
            ASSERT_EQ(r.uniform(0, n - 1), want % n) << n << " draw " << i;
        }
    }
}

// Parameterized: every seed yields an unbiased-looking small range.
class RngBias : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngBias, SmallRangeIsRoughlyUniform)
{
    Rng r(GetParam());
    std::vector<int> bucket(5, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++bucket[r.uniform(0, 4)];
    for (int b = 0; b < 5; ++b)
        EXPECT_NEAR(bucket[b], n / 5, n / 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngBias,
                         ::testing::Values(0ull, 1ull, 42ull,
                                           0xdeadbeefull,
                                           0xffffffffffffffffull));
