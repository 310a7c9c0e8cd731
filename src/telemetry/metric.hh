/**
 * @file
 * Metric primitives of the telemetry layer: interned metric ids and
 * the log-bucket histogram.
 *
 * The registry (registry.hh) hands out dense integer ids at
 * registration time; hot paths then update metrics by indexing a
 * plain vector — no string hashing or map lookup per event.
 */

#ifndef TXRACE_TELEMETRY_METRIC_HH
#define TXRACE_TELEMETRY_METRIC_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace txrace::telemetry {

/** Dense id of a registered metric (index into registry storage). */
using MetricId = uint32_t;

/** Sentinel for "no metric registered". */
constexpr MetricId kNoMetric = ~0u;

/** What a registered metric is. */
enum class MetricKind : uint8_t {
    Counter,    ///< monotonically accumulated 64-bit sum
    Gauge,      ///< last-written 64-bit value
    Histogram,  ///< log-bucket value distribution
};

/** Display name of a metric kind. */
const char *metricKindName(MetricKind kind);

/**
 * HDR-style log-bucket histogram of non-negative 64-bit values.
 *
 * Bucket 0 holds exactly the value 0; bucket i >= 1 holds the
 * half-open range [2^(i-1), 2^i). Recording is O(1) (one bit-width
 * computation and a vector increment), merging is element-wise, and
 * the bucket boundaries are identical across runs and platforms, so
 * exported histograms are deterministic.
 */
class LogHistogram
{
  public:
    /** Bucket 0 plus one bucket per possible bit width of uint64_t. */
    static constexpr size_t kNumBuckets = 65;

    /** Bucket index the value @p v falls into. */
    static size_t
    bucketOf(uint64_t v)
    {
        return static_cast<size_t>(std::bit_width(v));
    }

    /** Inclusive lower bound of bucket @p i. */
    static uint64_t
    bucketLo(size_t i)
    {
        return i == 0 ? 0 : uint64_t{1} << (i - 1);
    }

    /** Exclusive upper bound of bucket @p i (0 has the single value 0). */
    static uint64_t
    bucketHi(size_t i)
    {
        return i == 0 ? 1 : uint64_t{1} << i;
    }

    /** Record one observation. */
    void
    observe(uint64_t v)
    {
        ++counts_[bucketOf(v)];
        ++count_;
        sum_ += v;
        max_ = std::max(max_, v);
    }

    /** Record @p n identical observations of @p v in O(1). */
    void
    observeMany(uint64_t v, uint64_t n)
    {
        if (n == 0)
            return;
        counts_[bucketOf(v)] += n;
        count_ += n;
        sum_ += v * n;
        max_ = std::max(max_, v);
    }

    /** Element-wise merge of another histogram into this one. */
    void
    merge(const LogHistogram &other)
    {
        for (size_t i = 0; i < kNumBuckets; ++i)
            counts_[i] += other.counts_[i];
        count_ += other.count_;
        sum_ += other.sum_;
        max_ = std::max(max_, other.max_);
    }

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t max() const { return max_; }

    /** Observations in bucket @p i. */
    uint64_t bucketCount(size_t i) const { return counts_[i]; }

    /** Mean of all observations (0 when empty). */
    double
    mean() const
    {
        return count_ == 0
            ? 0.0
            : static_cast<double>(sum_) / static_cast<double>(count_);
    }

  private:
    std::array<uint64_t, kNumBuckets> counts_{};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t max_ = 0;
};

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_METRIC_HH
