// Log-bucketed latency histogram with quantile estimation. Buckets grow
// geometrically from 1us so that microsecond cache hits and multi-second
// queueing delays coexist with bounded relative error (~8% per bucket).
//
// Storage covers only the contiguous run of buckets seen so far: counts_[k]
// is bucket first_ + k, and every bucket outside the run is zero. One
// stream's latencies fall into a few buckets, so a histogram per client
// stays a few words instead of all kBuckets counters. The run only widens:
// add() and merge() grow it to cover a new index, reset() zeroes it in place.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace sst::stats {

/// One exported histogram bucket: samples in [lower_ns, upper_ns).
struct HistogramBucket {
  double lower_ns = 0.0;
  double upper_ns = 0.0;
  std::uint64_t count = 0;
};

class LatencyHistogram {
 public:
  void add(SimTime latency);
  /// Zeroes every count but keeps the stored run, so the next measurement
  /// window records into the same memory without allocating.
  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean_ms() const;
  /// Quantile in milliseconds, q in [0,1]; linear interpolation inside the
  /// winning bucket. Returns 0 when empty.
  [[nodiscard]] double quantile_ms(double q) const;
  [[nodiscard]] double p50_ms() const { return quantile_ms(0.50); }
  [[nodiscard]] double p95_ms() const { return quantile_ms(0.95); }
  [[nodiscard]] double p99_ms() const { return quantile_ms(0.99); }
  [[nodiscard]] double p999_ms() const { return quantile_ms(0.999); }
  [[nodiscard]] double max_ms() const;
  /// Sum of all samples in milliseconds (stage-sum reconciliation).
  [[nodiscard]] double total_ms() const { return sum_ns_ / 1e6; }

  /// Merge another histogram into this one (same fixed bucketing). The run
  /// widens to cover `other`'s.
  void merge(const LatencyHistogram& other);
  /// Remove `earlier`'s samples, leaving the delta window. `earlier` must be
  /// a prefix of this histogram (a snapshot taken before more add() calls);
  /// anything else clamps per bucket to zero. The recorded maximum is not
  /// separable, so the delta keeps the overall max — quantiles of the top
  /// bucket are clamped against it, a conservative approximation for the
  /// rolling-percentile gauges.
  void subtract(const LatencyHistogram& earlier);

  // Bucket iteration/export API (used by the metrics exporter).
  [[nodiscard]] static std::size_t bucket_count() { return kBuckets; }
  /// Bounds and count of bucket `index` (index < bucket_count()); the count
  /// is 0 outside the stored run.
  [[nodiscard]] HistogramBucket bucket(std::size_t index) const;
  /// Only the buckets holding samples; their counts sum to count().
  [[nodiscard]] std::vector<HistogramBucket> nonzero_buckets() const;

  [[nodiscard]] std::string debug_string() const;

 private:
  [[nodiscard]] static std::size_t bucket_for(SimTime latency);
  [[nodiscard]] static double bucket_lower_ns(std::size_t index);
  [[nodiscard]] static double bucket_upper_ns(std::size_t index);
  /// Grows the stored run to cover buckets [lo, hi); never shrinks it.
  void widen(std::size_t lo, std::size_t hi);

  // ~12% geometric growth from 1us to >1000s needs < 256 buckets.
  static constexpr std::size_t kBuckets = 256;
  std::vector<std::uint64_t> counts_;  ///< buckets [first_, first_ + size)
  std::size_t first_ = 0;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0.0;
  SimTime max_ns_ = 0;
};

}  // namespace sst::stats
