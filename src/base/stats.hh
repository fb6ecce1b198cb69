/**
 * @file
 * Minimal statistics primitives.
 *
 * Modules expose plain Counter/Average members grouped in Stats structs;
 * the harness reads them directly. This mirrors the way architecture
 * simulators expose per-component stat blocks without a heavyweight
 * registry.
 */

#ifndef MSPDSM_BASE_STATS_HH
#define MSPDSM_BASE_STATS_HH

#include <array>
#include <bit>
#include <cstdint>

namespace mspdsm
{

/** Event counter. */
class Counter
{
  public:
    /** Increment by @p n (default 1). */
    void inc(std::uint64_t n = 1) { value_ += n; }

    /** Current count. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero (between measurement phases). */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean of a sampled quantity. */
class Average
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        sum_ += v;
        ++n_;
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return n_; }

    /** Mean of samples, or 0 when empty. */
    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }

    /** Sum of samples. */
    double sum() const { return sum_; }

    /** Reset to the empty state. */
    void
    reset()
    {
        sum_ = 0.0;
        n_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t n_ = 0;
};

/**
 * Log2-bucketed distribution of a non-negative quantity (latencies,
 * depths, distances). Fixed-size storage -- sampling is an array
 * increment, never an allocation -- so histograms can sit on the
 * per-message hot path and in every per-node stats block without
 * perturbing the zero-allocation or determinism invariants. Bucket 0
 * holds exactly the value 0; bucket k >= 1 holds [2^(k-1), 2^k).
 * Percentiles interpolate linearly inside the covering bucket, and
 * merge() is a bucket-wise sum (order-independent, so per-node
 * aggregation is deterministic regardless of fold order).
 */
class Histogram
{
  public:
    static constexpr unsigned numBuckets = 65;

    /** Bucket index of @p v. */
    static unsigned
    bucketOf(std::uint64_t v)
    {
        return v == 0 ? 0u : static_cast<unsigned>(std::bit_width(v));
    }

    /** Smallest value bucket @p i covers. */
    static std::uint64_t
    bucketLo(unsigned i)
    {
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    }

    /** Largest value bucket @p i covers. */
    static std::uint64_t
    bucketHi(unsigned i)
    {
        if (i == 0)
            return 0;
        if (i >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << i) - 1;
    }

    /** Record one value. */
    void
    sample(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        ++count_;
        sum_ += v;
    }

    /** Number of values recorded. */
    std::uint64_t count() const { return count_; }

    /** Sum of values recorded. */
    std::uint64_t sum() const { return sum_; }

    /** Mean of values, or 0 when empty. */
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /** Occupancy of bucket @p i. */
    std::uint64_t bucket(unsigned i) const { return buckets_[i]; }

    /**
     * The @p p-th percentile (0..100), linearly interpolated within
     * the covering bucket; 0 when empty.
     */
    double
    percentile(double p) const
    {
        if (count_ == 0)
            return 0.0;
        double rank = p / 100.0 * static_cast<double>(count_);
        if (rank < 1.0)
            rank = 1.0;
        std::uint64_t cum = 0;
        for (unsigned i = 0; i < numBuckets; ++i) {
            if (buckets_[i] == 0)
                continue;
            if (static_cast<double>(cum + buckets_[i]) >= rank) {
                const double frac =
                    (rank - static_cast<double>(cum)) /
                    static_cast<double>(buckets_[i]);
                const double lo = static_cast<double>(bucketLo(i));
                const double hi = static_cast<double>(bucketHi(i));
                return lo + (hi - lo) * frac;
            }
            cum += buckets_[i];
        }
        return static_cast<double>(bucketHi(numBuckets - 1));
    }

    /** Fold @p o into this histogram (bucket-wise sum). */
    void
    merge(const Histogram &o)
    {
        for (unsigned i = 0; i < numBuckets; ++i)
            buckets_[i] += o.buckets_[i];
        count_ += o.count_;
        sum_ += o.sum_;
    }

    /** Reset to the empty state. */
    void
    reset()
    {
        buckets_.fill(0);
        count_ = 0;
        sum_ = 0;
    }

  private:
    std::array<std::uint64_t, numBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Ratio helper: percentage of @p part over @p whole, safe on zero.
 */
inline double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
}

} // namespace mspdsm

#endif // MSPDSM_BASE_STATS_HH
