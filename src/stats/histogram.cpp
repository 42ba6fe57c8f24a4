#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace sst::stats {

namespace {
// Bucket boundaries: bucket i covers [kBase * kGrowth^i, kBase * kGrowth^(i+1)).
constexpr double kBaseNs = 1'000.0;  // 1us
constexpr double kGrowth = 1.12;
const double kLogGrowth = std::log(kGrowth);
}  // namespace

std::size_t LatencyHistogram::bucket_for(SimTime latency) {
  if (latency < static_cast<SimTime>(kBaseNs)) return 0;
  const double ratio = static_cast<double>(latency) / kBaseNs;
  const auto idx = static_cast<std::size_t>(std::log(ratio) / kLogGrowth) + 1;
  return std::min(idx, kBuckets - 1);
}

double LatencyHistogram::bucket_lower_ns(std::size_t index) {
  if (index == 0) return 0.0;
  return kBaseNs * std::pow(kGrowth, static_cast<double>(index - 1));
}

double LatencyHistogram::bucket_upper_ns(std::size_t index) {
  return kBaseNs * std::pow(kGrowth, static_cast<double>(index));
}

void LatencyHistogram::widen(std::size_t lo, std::size_t hi) {
  if (counts_.empty()) first_ = lo;
  const std::size_t end = std::max(hi, first_ + counts_.size());
  if (lo < first_) {
    counts_.insert(counts_.begin(), first_ - lo, 0);
    first_ = lo;
  }
  counts_.resize(end - first_);
}

void LatencyHistogram::add(SimTime latency) {
  const std::size_t index = bucket_for(latency);
  // Unsigned: an index below first_ wraps past size() too.
  if (index - first_ >= counts_.size()) widen(index, index + 1);
  ++counts_[index - first_];
  ++count_;
  sum_ns_ += static_cast<double>(latency);
  max_ns_ = std::max(max_ns_, latency);
}

void LatencyHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ns_ = 0.0;
  max_ns_ = 0;
}

double LatencyHistogram::mean_ms() const {
  return count_ ? sum_ns_ / static_cast<double>(count_) / 1e6 : 0.0;
}

double LatencyHistogram::max_ms() const { return static_cast<double>(max_ns_) / 1e6; }

double LatencyHistogram::quantile_ms(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    const double in_bucket = static_cast<double>(counts_[k]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      const double frac = in_bucket > 0 ? (target - seen) / in_bucket : 0.0;
      const double lo = bucket_lower_ns(first_ + k);
      const double hi = std::min(bucket_upper_ns(first_ + k), static_cast<double>(max_ns_));
      return (lo + std::clamp(frac, 0.0, 1.0) * (std::max(hi, lo) - lo)) / 1e6;
    }
    seen += in_bucket;
  }
  return static_cast<double>(max_ns_) / 1e6;
}

HistogramBucket LatencyHistogram::bucket(std::size_t index) const {
  const std::size_t k = index - first_;  // wraps past size() below the run
  return {bucket_lower_ns(index), bucket_upper_ns(index), k < counts_.size() ? counts_[k] : 0};
}

std::vector<HistogramBucket> LatencyHistogram::nonzero_buckets() const {
  std::vector<HistogramBucket> out;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (counts_[k] != 0) out.push_back(bucket(first_ + k));
  }
  return out;
}

void LatencyHistogram::subtract(const LatencyHistogram& earlier) {
  // Only buckets inside both runs can change; elsewhere one side is zero.
  const std::size_t lo = std::max(first_, earlier.first_);
  const std::size_t hi =
      std::min(first_ + counts_.size(), earlier.first_ + earlier.counts_.size());
  for (std::size_t i = lo; i < hi; ++i) {
    std::uint64_t& mine = counts_[i - first_];
    mine -= std::min(mine, earlier.counts_[i - earlier.first_]);
  }
  count_ = count_ >= earlier.count_ ? count_ - earlier.count_ : 0;
  sum_ns_ = std::max(sum_ns_ - earlier.sum_ns_, 0.0);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (!other.counts_.empty()) {
    widen(other.first_, other.first_ + other.counts_.size());
    const std::size_t base = other.first_ - first_;
    for (std::size_t k = 0; k < other.counts_.size(); ++k) {
      counts_[base + k] += other.counts_[k];
    }
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  max_ns_ = std::max(max_ns_, other.max_ns_);
}

std::string LatencyHistogram::debug_string() const {
  std::ostringstream os;
  os << "LatencyHistogram{n=" << count_ << ", mean=" << mean_ms() << "ms"
     << ", p50=" << p50_ms() << "ms, p95=" << p95_ms() << "ms, p99=" << p99_ms()
     << "ms, max=" << max_ms() << "ms}";
  return os.str();
}

}  // namespace sst::stats
