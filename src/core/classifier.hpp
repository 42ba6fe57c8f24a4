// Sequential-stream classifier (paper §4.1).
//
// Requests that do not belong to a known stream are recorded in small,
// dynamically allocated bitmaps. Each bitmap covers the blocks around the
// first access that created it ([B-offset, B+offset], one bit per block).
// When the number of distinct blocks touched in one region reaches the
// detection threshold, the classifier reports a sequential stream starting
// at the region's lowest touched block. Out-of-order arrivals and repeated
// touches of the same block are ignored by construction (bits are
// idempotent); only proximity in space and time matters.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "core/params.hpp"

namespace sst::core {

struct ClassifierStats {
  std::uint64_t requests_seen = 0;
  std::uint64_t regions_allocated = 0;
  std::uint64_t regions_collected = 0;
  std::uint64_t streams_detected = 0;
  Bytes bitmap_bytes = 0;  ///< current bitmap memory footprint
  /// Exported as classifier.*.
  static constexpr counters::Counter<ClassifierStats> kCounters[] = {
      {"requests_seen", &ClassifierStats::requests_seen},
      {"regions_allocated", &ClassifierStats::regions_allocated},
      {"regions_collected", &ClassifierStats::regions_collected},
      {"streams_detected", &ClassifierStats::streams_detected},
      {"bitmap_bytes", &ClassifierStats::bitmap_bytes},
  };
};

/// Detection result: where the detected stream starts and ends so far.
struct DetectedStream {
  std::uint32_t device = 0;
  ByteOffset start = 0;  ///< lowest touched offset in the region
  ByteOffset end = 0;    ///< one past the highest touched offset
};

class Classifier {
 public:
  explicit Classifier(const ClassifierParams& params);

  /// Record a request that no existing stream claimed. Returns a detection
  /// when this request tips a region over the threshold; the caller then
  /// creates the stream and retires the region.
  std::optional<DetectedStream> record(std::uint32_t device, ByteOffset offset, Bytes length,
                                       SimTime now);

  /// Drop regions idle since before `now - region_timeout`. Returns the
  /// number collected. Called by the scheduler's periodic GC.
  std::size_t collect_garbage(SimTime now);

  [[nodiscard]] std::size_t region_count() const;
  [[nodiscard]] const ClassifierStats& stats() const { return stats_; }

 private:
  struct Region {
    std::uint64_t first_block = 0;  ///< block index of bit 0
    std::vector<std::uint64_t> bits;
    std::uint32_t popcount = 0;
    std::uint64_t min_block = 0;  ///< lowest set block (for stream start)
    std::uint64_t max_block = 0;  ///< highest set block
    SimTime last_touch = 0;

    [[nodiscard]] bool covers(std::uint64_t block, std::uint32_t span) const {
      return block >= first_block && block < first_block + span;
    }
  };

  /// Set one block bit; returns true if it was newly set.
  static bool set_bit(Region& region, std::uint64_t block);

  [[nodiscard]] std::uint32_t span_blocks() const { return 2 * params_.offset_blocks + 1; }

  ClassifierParams params_;
  /// (device, region first_block) -> Region; ordered so coverage lookups
  /// use lower_bound on the region start.
  std::map<std::pair<std::uint32_t, std::uint64_t>, Region> regions_;
  ClassifierStats stats_;
};

}  // namespace sst::core
