/** @file Unit tests for Counter / Average / pct helpers. */

#include <gtest/gtest.h>

#include "base/stats.hh"

using namespace mspdsm;

TEST(Counter, StartsAtZero)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, IncrementsByOneAndN)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ResetClears)
{
    Counter c;
    c.inc(9);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, EmptyMeanIsZero)
{
    Average a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(Average, MeanOfSamples)
{
    Average a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

TEST(Average, ResetClears)
{
    Average a;
    a.sample(5.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Pct, ZeroWholeIsZero)
{
    EXPECT_DOUBLE_EQ(pct(5, 0), 0.0);
}

TEST(Pct, ComputesPercentage)
{
    EXPECT_DOUBLE_EQ(pct(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(pct(0, 10), 0.0);
    EXPECT_DOUBLE_EQ(pct(10, 10), 100.0);
}

TEST(Histogram, StartsEmpty)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
}

TEST(Histogram, BucketBoundaries)
{
    // Bucket 0 holds exactly {0}; bucket k >= 1 holds [2^(k-1), 2^k).
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(7), 3u);
    EXPECT_EQ(Histogram::bucketOf(8), 4u);
    EXPECT_EQ(Histogram::bucketOf(~std::uint64_t{0}), 64u);

    EXPECT_EQ(Histogram::bucketLo(0), 0u);
    EXPECT_EQ(Histogram::bucketHi(0), 0u);
    EXPECT_EQ(Histogram::bucketLo(3), 4u);
    EXPECT_EQ(Histogram::bucketHi(3), 7u);
    EXPECT_EQ(Histogram::bucketLo(64), std::uint64_t{1} << 63);
    EXPECT_EQ(Histogram::bucketHi(64), ~std::uint64_t{0});

    Histogram h;
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(4);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, PercentileInterpolation)
{
    // All mass in bucket 3 ([4, 7]): percentiles interpolate linearly
    // across the bucket's value range.
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(5);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 7.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 4.0 + 3.0 * 0.5);
    // Degenerate buckets pin the value exactly.
    Histogram z;
    z.sample(0);
    z.sample(0);
    EXPECT_DOUBLE_EQ(z.percentile(50.0), 0.0);
    Histogram one;
    one.sample(1);
    EXPECT_DOUBLE_EQ(one.percentile(99.0), 1.0);
    // Mass split across buckets: the covering bucket is found by
    // cumulative rank. 90 samples of 1, 10 of 1000 -> p50 in bucket 1,
    // p99 in bucket 10 ([512, 1023]).
    Histogram mix;
    for (int i = 0; i < 90; ++i)
        mix.sample(1);
    for (int i = 0; i < 10; ++i)
        mix.sample(1000);
    EXPECT_DOUBLE_EQ(mix.percentile(50.0), 1.0);
    EXPECT_GE(mix.percentile(99.0), 512.0);
    EXPECT_LE(mix.percentile(99.0), 1023.0);
    EXPECT_GT(mix.percentile(99.0), mix.percentile(50.0));
}

TEST(Histogram, MergeIsBucketwiseSum)
{
    // Per-directory histograms merge into one run-level distribution;
    // the fold is order-independent.
    Histogram a;
    Histogram b;
    a.sample(1);
    a.sample(100);
    b.sample(100);
    b.sample(4000);

    Histogram ab = a;
    ab.merge(b);
    Histogram ba = b;
    ba.merge(a);

    EXPECT_EQ(ab.count(), 4u);
    EXPECT_EQ(ab.sum(), a.sum() + b.sum());
    for (unsigned i = 0; i < Histogram::numBuckets; ++i)
        EXPECT_EQ(ab.bucket(i), ba.bucket(i));
    EXPECT_DOUBLE_EQ(ab.percentile(99.0), ba.percentile(99.0));
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.sample(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    for (unsigned i = 0; i < Histogram::numBuckets; ++i)
        EXPECT_EQ(h.bucket(i), 0u);
}
