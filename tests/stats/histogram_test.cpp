#include "stats/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"

namespace sst::stats {
namespace {

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50_ms(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_ms(), 0.0);
}

TEST(Histogram, SingleSample) {
  LatencyHistogram h;
  h.add(msec(10));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 10.0);
  EXPECT_DOUBLE_EQ(h.max_ms(), 10.0);
  // Quantiles land inside the bucket containing 10ms (~12% wide).
  EXPECT_NEAR(h.p50_ms(), 10.0, 1.5);
}

TEST(Histogram, MeanIsExact) {
  LatencyHistogram h;
  h.add(msec(1));
  h.add(msec(3));
  EXPECT_DOUBLE_EQ(h.mean_ms(), 2.0);
}

TEST(Histogram, QuantileOrderingHolds) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(usec(static_cast<std::uint64_t>(i) * 100));
  EXPECT_LE(h.p50_ms(), h.p95_ms());
  EXPECT_LE(h.p95_ms(), h.p99_ms());
  EXPECT_LE(h.p99_ms(), h.max_ms());
}

TEST(Histogram, QuantileAccuracyWithinBucketError) {
  LatencyHistogram h;
  // Uniform 0.1ms..100ms in 0.1ms steps: p50 ~ 50ms.
  for (int i = 1; i <= 1000; ++i) h.add(usec(static_cast<std::uint64_t>(i) * 100));
  EXPECT_NEAR(h.p50_ms(), 50.0, 7.0);   // ~12% bucket error
  EXPECT_NEAR(h.p95_ms(), 95.0, 13.0);
}

TEST(Histogram, SubMicrosecondSamplesGoToFirstBucket) {
  LatencyHistogram h;
  h.add(nsec(10));
  h.add(nsec(500));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LT(h.p99_ms(), 0.001);  // below 1us
}

TEST(Histogram, VeryLargeSampleClampsToLastBucket) {
  LatencyHistogram h;
  h.add(sec(100000));  // beyond the bucket range
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.max_ms(), 0.0);
}

TEST(Histogram, ResetClears) {
  LatencyHistogram h;
  h.add(msec(5));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_ms(), 0.0);
}

TEST(Histogram, MergeCombinesCountsAndMax) {
  LatencyHistogram a, b;
  a.add(msec(1));
  b.add(msec(9));
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean_ms(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_ms(), 9.0);
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram a, empty;
  a.add(msec(2));
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean_ms(), 2.0);
}

TEST(Histogram, DebugStringMentionsStats) {
  LatencyHistogram h;
  h.add(msec(3));
  const auto s = h.debug_string();
  EXPECT_NE(s.find("n=1"), std::string::npos);
  EXPECT_NE(s.find("mean="), std::string::npos);
}

TEST(Histogram, ExportedBucketsSumToCount) {
  LatencyHistogram h;
  // Latencies spanning the full bucket range: sub-microsecond (bucket 0),
  // microseconds, milliseconds, seconds, and beyond the last bucket bound.
  h.add(0);
  h.add(500);
  for (std::uint64_t i = 1; i <= 200; ++i) h.add(usec(i * 37));
  for (std::uint64_t i = 1; i <= 50; ++i) h.add(msec(i));
  h.add(sec(2));
  h.add(sec(5000));

  const auto buckets = h.nonzero_buckets();
  ASSERT_FALSE(buckets.empty());
  std::uint64_t total = 0;
  for (const auto& b : buckets) {
    EXPECT_GT(b.count, 0u);
    EXPECT_LT(b.lower_ns, b.upper_ns);
    total += b.count;
  }
  EXPECT_EQ(total, h.count());
}

TEST(Histogram, BucketIndexApiCoversAllSamples) {
  LatencyHistogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.add(usec(i));
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < LatencyHistogram::bucket_count(); ++i) {
    total += h.bucket(i).count;
  }
  EXPECT_EQ(total, h.count());
}

TEST(Histogram, EmptyQuantileIsZeroForAllQ) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile_ms(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile_ms(0.999), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile_ms(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.p999_ms(), 0.0);
  EXPECT_DOUBLE_EQ(h.total_ms(), 0.0);
}

TEST(Histogram, SingleSampleQuantilesStayInBucket) {
  LatencyHistogram h;
  h.add(msec(10));
  // With one sample every quantile interpolates inside the same bucket and
  // q=1.0 must not exceed the recorded maximum.
  EXPECT_NEAR(h.quantile_ms(0.001), 10.0, 1.5);
  EXPECT_NEAR(h.p999_ms(), 10.0, 1.5);
  EXPECT_LE(h.quantile_ms(1.0), h.max_ms() + 1e-9);
  EXPECT_GT(h.quantile_ms(1.0), 0.0);
}

TEST(Histogram, FullQuantileClampsToMax) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(msec(static_cast<std::uint64_t>(i)));
  EXPECT_LE(h.quantile_ms(1.0), h.max_ms() + 1e-9);
  EXPECT_LE(h.p999_ms(), h.quantile_ms(1.0) + 1e-9);
  EXPECT_GE(h.p999_ms(), h.p99_ms() - 1e-9);
}

TEST(Histogram, P999TracksTailSample) {
  LatencyHistogram h;
  // 998 fast samples and two 100x outliers: p99 stays low, p999 (rank 999
  // of 1000) must land in the outlier bucket.
  for (int i = 0; i < 998; ++i) h.add(msec(1));
  h.add(msec(100));
  h.add(msec(100));
  EXPECT_LT(h.p99_ms(), 5.0);
  EXPECT_GT(h.p999_ms(), 50.0);
}

TEST(Histogram, TotalSumsSamples) {
  LatencyHistogram h;
  h.add(msec(2));
  h.add(msec(3));
  h.add(usec(500));
  EXPECT_DOUBLE_EQ(h.total_ms(), 5.5);
}

TEST(Histogram, SubtractLeavesDeltaWindow) {
  LatencyHistogram h;
  h.add(msec(1));
  h.add(msec(2));
  LatencyHistogram snapshot = h;  // rolling-gauge prev snapshot
  h.add(msec(50));
  h.add(msec(60));
  LatencyHistogram delta = h;
  delta.subtract(snapshot);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_NEAR(delta.mean_ms(), 55.0, 1e-6);
  // Only the new window's samples remain, so its p50 is in the 50-60ms range.
  EXPECT_GT(delta.p50_ms(), 40.0);
}

TEST(Histogram, SubtractAllLeavesEmpty) {
  LatencyHistogram h;
  h.add(msec(7));
  LatencyHistogram delta = h;
  delta.subtract(h);
  EXPECT_EQ(delta.count(), 0u);
  EXPECT_DOUBLE_EQ(delta.quantile_ms(0.999), 0.0);
}

TEST(Histogram, MonotoneQuantileFunction) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.add(msec(static_cast<std::uint64_t>(1 + i % 20)));
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile_ms(q);
    EXPECT_GE(v, prev - 1e-9) << "q=" << q;
    prev = v;
  }
}

/// The fixed 256-bucket histogram that the stored-run one replaced, kept as
/// the reference: every bucket stored, every operation walking all of them.
class ReferenceHistogram {
 public:
  static constexpr std::size_t kBuckets = 256;

  void add(SimTime latency) {
    ++buckets_[bucket_for(latency)];
    ++count_;
    sum_ns_ += static_cast<double>(latency);
    max_ns_ = std::max(max_ns_, latency);
  }
  void reset() { *this = ReferenceHistogram{}; }
  void merge(const ReferenceHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
    max_ns_ = std::max(max_ns_, other.max_ns_);
  }
  void subtract(const ReferenceHistogram& earlier) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i] -= std::min(buckets_[i], earlier.buckets_[i]);
    }
    count_ = count_ >= earlier.count_ ? count_ - earlier.count_ : 0;
    sum_ns_ = std::max(sum_ns_ - earlier.sum_ns_, 0.0);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double total_ms() const { return sum_ns_ / 1e6; }
  [[nodiscard]] double mean_ms() const {
    return count_ ? sum_ns_ / static_cast<double>(count_) / 1e6 : 0.0;
  }
  [[nodiscard]] double max_ms() const { return static_cast<double>(max_ns_) / 1e6; }
  [[nodiscard]] double quantile_ms(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    double seen = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double in_bucket = static_cast<double>(buckets_[i]);
      if (in_bucket == 0.0) continue;
      if (seen + in_bucket >= target) {
        const double frac = in_bucket > 0 ? (target - seen) / in_bucket : 0.0;
        const double lo = lower_ns(i);
        const double hi = std::min(upper_ns(i), static_cast<double>(max_ns_));
        return (lo + std::clamp(frac, 0.0, 1.0) * (std::max(hi, lo) - lo)) / 1e6;
      }
      seen += in_bucket;
    }
    return static_cast<double>(max_ns_) / 1e6;
  }
  [[nodiscard]] HistogramBucket bucket(std::size_t index) const {
    return {lower_ns(index), upper_ns(index), buckets_[index]};
  }
  [[nodiscard]] std::vector<HistogramBucket> nonzero_buckets() const {
    std::vector<HistogramBucket> out;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] != 0) out.push_back(bucket(i));
    }
    return out;
  }
  /// Lowest and highest bucket holding samples; {0, kBuckets - 1} when empty.
  [[nodiscard]] std::pair<std::size_t, std::size_t> occupied() const {
    std::size_t lo = 0;
    std::size_t hi = kBuckets - 1;
    if (count_ == 0) return {lo, hi};
    while (buckets_[lo] == 0) ++lo;
    while (buckets_[hi] == 0) --hi;
    return {lo, hi};
  }

  [[nodiscard]] static std::size_t bucket_for(SimTime latency) {
    if (latency < 1'000) return 0;
    const double ratio = static_cast<double>(latency) / 1'000.0;
    const auto idx = static_cast<std::size_t>(std::log(ratio) / std::log(1.12)) + 1;
    return std::min(idx, kBuckets - 1);
  }
  [[nodiscard]] static double lower_ns(std::size_t index) {
    return index == 0 ? 0.0 : bounds()[index - 1];
  }
  [[nodiscard]] static double upper_ns(std::size_t index) { return bounds()[index]; }

 private:
  /// bounds()[i] = 1us * 1.12^i, computed once: the comparison below reads
  /// every bucket after every operation.
  static const std::array<double, kBuckets>& bounds() {
    static const std::array<double, kBuckets> table = [] {
      std::array<double, kBuckets> t{};
      for (std::size_t i = 0; i < kBuckets; ++i) {
        t[i] = 1'000.0 * std::pow(1.12, static_cast<double>(i));
      }
      return t;
    }();
    return table;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ns_ = 0.0;
  SimTime max_ns_ = 0;
};

bool same_bucket(const HistogramBucket& a, const HistogramBucket& b) {
  return a.lower_ns == b.lower_ns && a.upper_ns == b.upper_ns && a.count == b.count;
}

/// Empty when `h` reads exactly as `ref` through the whole public surface,
/// else the first difference.
std::string difference(const LatencyHistogram& h, const ReferenceHistogram& ref) {
  std::ostringstream os;
  if (h.count() != ref.count()) os << "count " << h.count() << " vs " << ref.count();
  if (h.total_ms() != ref.total_ms()) {
    os << "total_ms " << h.total_ms() << " vs " << ref.total_ms();
  }
  if (h.mean_ms() != ref.mean_ms()) os << "mean_ms " << h.mean_ms() << " vs " << ref.mean_ms();
  if (h.max_ms() != ref.max_ms()) os << "max_ms " << h.max_ms() << " vs " << ref.max_ms();
  for (const double q : {0.0, 0.001, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    if (h.quantile_ms(q) != ref.quantile_ms(q)) {
      os << "quantile_ms(" << q << ") " << h.quantile_ms(q) << " vs " << ref.quantile_ms(q);
    }
  }
  const auto mine = h.nonzero_buckets();
  const auto theirs = ref.nonzero_buckets();
  if (!std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end(), same_bucket)) {
    os << "nonzero_buckets " << mine.size() << " vs " << theirs.size();
  }
  for (std::size_t i = 0; i < ReferenceHistogram::kBuckets && os.tellp() == 0; ++i) {
    if (!same_bucket(h.bucket(i), ref.bucket(i))) {
      os << "bucket(" << i << ") count " << h.bucket(i).count << " vs " << ref.bucket(i).count;
    }
  }
  return os.str();
}

/// A latency inside bucket `index`: below 1us for bucket 0, and up to 100x
/// past the last bucket's lower bound for the last one (clamped there).
SimTime latency_in(std::size_t index, Rng& rng) {
  if (index == 0) return rng.next_below(1'000);
  const double lo = ReferenceHistogram::lower_ns(index);
  if (index == ReferenceHistogram::kBuckets - 1) {
    return static_cast<SimTime>(lo * (1.01 + 100.0 * rng.next_double()));
  }
  const double hi = ReferenceHistogram::upper_ns(index);
  return static_cast<SimTime>(lo + (0.05 + 0.9 * rng.next_double()) * (hi - lo));
}

/// Where a merged histogram's samples lie against the target's.
enum MergeShape { kBelow, kAbove, kOverlapLow, kOverlapHigh, kNested, kEnclosing, kShapes };

/// One histogram under test, its reference, and the rolling-gauge snapshot
/// of both (the previous tick's cumulative histogram).
struct Slot {
  LatencyHistogram h;
  ReferenceHistogram ref;
  LatencyHistogram prev;
  ReferenceHistogram ref_prev;
  std::size_t center = 0;  ///< bucket this slot's samples cluster around
};

/// Drives four histograms and their references with one seeded sequence
/// and compares every histogram an operation touched after it. Samples
/// cluster within a bucket of a per-slot centre that sometimes jumps
/// anywhere from below 1us to past the last bucket; merges take a slot
/// (the target itself included) or a histogram built to lie below, above,
/// across either end of, inside or around the target's samples, or an
/// empty one (fresh, or reset with a stored run); subtracts take the
/// rolling-gauge prefix snapshot or a slot; resets, fresh histograms,
/// copies and moves mix in.
void run_against_reference(std::uint64_t seed) {
  constexpr int kOps = 20000;
  constexpr std::size_t kSlots = 4;
  constexpr std::size_t kLast = ReferenceHistogram::kBuckets - 1;
  Rng rng(seed);
  std::array<Slot, kSlots> slots;
  for (Slot& s : slots) s.center = rng.next_below(kLast + 1);
  std::array<int, kShapes> shapes{};
  int empty_merges = 0;
  std::size_t widest = 0;
  const auto check = [&](const LatencyHistogram& h, const ReferenceHistogram& ref, int op,
                         const char* what) {
    ASSERT_EQ(difference(h, ref), "") << "op " << op << " (" << what << ")";
  };
  for (int op = 0; op < kOps; ++op) {
    Slot& t = slots[rng.next_below(kSlots)];
    Slot& s = slots[rng.next_below(kSlots)];
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 65) {
      std::size_t index = 0;
      if (rng.next_bool(0.02)) t.center = rng.next_below(kLast + 1);
      if (rng.next_bool(0.01)) {
        index = rng.next_below(kLast + 1);  // a one-off outlier
      } else {
        index = std::clamp<std::size_t>(t.center + rng.next_below(3), 1, kLast + 1) - 1;
      }
      const SimTime latency = latency_in(index, rng);
      t.h.add(latency);
      t.ref.add(latency);
      check(t.h, t.ref, op, "add");
    } else if (kind < 73) {
      LatencyHistogram other;
      ReferenceHistogram other_ref;
      if (rng.next_bool(0.15)) {
        ++empty_merges;
        if (rng.next_bool(0.5)) {  // a stored run of zeros
          other.add(latency_in(rng.next_below(kLast + 1), rng));
          other.reset();
        }
      } else {
        const auto [lo, hi] = t.ref.occupied();
        const auto shape = static_cast<MergeShape>(rng.next_below(kShapes));
        std::size_t a = rng.next_below(kLast + 1);
        std::size_t b = rng.next_in(a, kLast);
        bool shaped = t.ref.count() > 0;
        if (shape == kBelow && shaped && lo > 0) {
          a = rng.next_below(lo);
          b = rng.next_in(a, lo - 1);
        } else if (shape == kAbove && shaped && hi < kLast) {
          a = rng.next_in(hi + 1, kLast);
          b = rng.next_in(a, kLast);
        } else if (shape == kOverlapLow && shaped && lo > 0) {
          a = rng.next_below(lo);
          b = rng.next_in(lo, hi);
        } else if (shape == kOverlapHigh && shaped && hi < kLast) {
          a = rng.next_in(lo, hi);
          b = rng.next_in(hi + 1, kLast);
        } else if (shape == kNested && shaped) {
          a = rng.next_in(lo, hi);
          b = rng.next_in(a, hi);
        } else if (shape == kEnclosing && shaped && lo > 0 && hi < kLast) {
          a = rng.next_below(lo);
          b = rng.next_in(hi + 1, kLast);
        } else {
          shaped = false;
        }
        if (shaped) ++shapes[shape];
        const std::size_t extra = rng.next_below(20);
        for (std::size_t i = 0; i < extra + 2; ++i) {
          const std::size_t index = i == 0 ? a : i == 1 ? b : rng.next_in(a, b);
          const SimTime latency = latency_in(index, rng);
          other.add(latency);
          other_ref.add(latency);
        }
      }
      t.h.merge(other);
      t.ref.merge(other_ref);
      check(t.h, t.ref, op, "merge built");
      check(other, other_ref, op, "merge built, source");
    } else if (kind < 78) {
      t.h.merge(s.h);
      t.ref.merge(s.ref);
      check(t.h, t.ref, op, "merge slot");
      check(s.h, s.ref, op, "merge slot, source");
    } else if (kind < 84) {
      // Cell's rolling-percentile gauge: the delta since the previous tick.
      LatencyHistogram total = t.h;
      LatencyHistogram delta = total;
      delta.subtract(t.prev);
      t.prev = std::move(total);
      ReferenceHistogram ref_delta = t.ref;
      ref_delta.subtract(t.ref_prev);
      t.ref_prev = t.ref;
      check(delta, ref_delta, op, "rolling delta");
      check(t.prev, t.ref_prev, op, "rolling snapshot");
    } else if (kind < 87) {
      t.h.subtract(s.h);
      t.ref.subtract(s.ref);
      check(t.h, t.ref, op, "subtract slot");
      check(s.h, s.ref, op, "subtract slot, source");
    } else if (kind < 89) {
      t.h.reset();
      t.ref.reset();
      check(t.h, t.ref, op, "reset");
    } else if (kind < 90) {
      t.h = LatencyHistogram{};
      t.ref = ReferenceHistogram{};
      check(t.h, t.ref, op, "fresh");
    } else if (kind < 95) {
      if (rng.next_bool(0.5)) {
        t.h = s.h;
      } else {
        LatencyHistogram copy(s.h);
        check(copy, s.ref, op, "copy-construct");
        t.h = std::move(copy);
      }
      t.ref = s.ref;
      check(t.h, t.ref, op, "copy");
      check(s.h, s.ref, op, "copy, source");
    } else {
      if (&t == &s) continue;
      if (rng.next_bool(0.5)) {
        t.h = std::move(s.h);
      } else {
        LatencyHistogram moved(std::move(s.h));
        t.h = std::move(moved);
      }
      t.ref = s.ref;
      // The moved-from histogram is only assigned to again.
      s.h = LatencyHistogram{};
      s.ref = ReferenceHistogram{};
      check(t.h, t.ref, op, "move");
    }
    if (::testing::Test::HasFatalFailure()) return;
    const auto [lo, hi] = t.ref.occupied();
    if (t.ref.count() > 0) widest = std::max(widest, hi - lo + 1);
  }
  for (int shape = 0; shape < kShapes; ++shape) {
    EXPECT_GE(shapes[shape], 20) << "merge shape " << shape;
  }
  EXPECT_GE(empty_merges, 20);
  EXPECT_GE(widest, ReferenceHistogram::kBuckets / 2);
}

TEST(Histogram, MatchesTheFullArrayReferenceOnRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_against_reference(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sst::stats
