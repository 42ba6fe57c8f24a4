#include "common/counters.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace sst {
namespace {

// One line of every kind a table can hold.
struct Sample {
  std::uint64_t count = 0;
  std::uint64_t peak = 0;
  SimTime busy = 0;
  std::array<std::uint64_t, 2> buckets{};

  [[nodiscard]] double peak_per_count() const {
    return count > 0 ? static_cast<double>(peak) / static_cast<double>(count) : 0.0;
  }

  static constexpr counters::Counter<Sample, 2> kCounters[] = {
      {"count", &Sample::count},
      {"peak", &Sample::peak, counters::kMax},
      {"busy_ms", &Sample::busy, counters::kSum, counters::kMillis},
      {.key = "peak_per_count", .derive = &Sample::peak_per_count},
      {.key = "buckets", .buckets = &Sample::buckets},
  };
};
static_assert(counters::covers_every_field<Sample>());

// A run-level summary deriving from the stats it folds.
struct SampleSummary : Sample {
  std::uint32_t sources = 0;
};

TEST(Counters, FoldSumsCountsKeepsPeaksAndAddsBuckets) {
  SampleSummary total;
  fold_counters(total, Sample{3, 7, msec(1), {1, 0}});
  fold_counters(total, Sample{2, 5, msec(2), {0, 4}});
  EXPECT_EQ(total.count, 5u);
  EXPECT_EQ(total.peak, 7u);
  EXPECT_EQ(total.busy, msec(3));
  EXPECT_EQ(total.buckets, (std::array<std::uint64_t, 2>{1, 4}));
  EXPECT_EQ(total.sources, 0u);
}

TEST(Counters, ExportFollowsTableOrderAndUnits) {
  SampleSummary total;
  fold_counters(total, Sample{4, 6, msec(2), {1, 2}});
  obs::MetricsRegistry reg;
  export_counters(reg, "sample", total);
  EXPECT_EQ(reg.to_json(),
            "{\n"
            "  \"sample\": {\n"
            "    \"count\": 4,\n"
            "    \"peak\": 6,\n"
            "    \"busy_ms\": 2,\n"
            "    \"peak_per_count\": 1.5,\n"
            "    \"buckets\": [1,2]\n"
            "  }\n"
            "}\n");
}

}  // namespace
}  // namespace sst
