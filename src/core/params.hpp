// Parameters of the host-level stream scheduler — the (D, R, N, M) knobs of
// the paper (Section 4) plus classifier and garbage-collection settings.
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "common/types.hpp"

namespace sst::core {

/// Classifier settings (paper §4.1): dynamically allocated bitmaps around
/// the first access, one bit per `block_bytes`, detection when enough
/// distinct nearby blocks were touched recently.
struct ClassifierParams {
  /// Granularity of one bitmap bit. The paper tracks device blocks; client
  /// streams in the evaluation issue 64 KB requests, so that is the default.
  Bytes block_bytes = 64 * KiB;
  /// Half-width of a region bitmap in blocks: covers [B-offset, B+offset].
  /// "a small value ... in the order of a few tens" (paper §4.1).
  std::uint32_t offset_blocks = 32;
  /// Distinct blocks set within a region that declare a sequential stream.
  std::uint32_t detect_threshold = 3;
  /// Regions idle longer than this are garbage collected.
  SimTime region_timeout = sec(10);
};

/// Candidate-selection policy for refilling the dispatch set (paper §4.2:
/// "we currently use a simple round-robin policy"; the offset-proximity
/// alternative is implemented for the ablation bench).
enum class DispatchPolicyKind : std::uint8_t {
  kRoundRobin,
  kNearestOffset,
};

[[nodiscard]] constexpr const char* to_string(DispatchPolicyKind k) {
  switch (k) {
    case DispatchPolicyKind::kRoundRobin: return "round-robin";
    case DispatchPolicyKind::kNearestOffset: return "nearest-offset";
  }
  return "?";
}

/// Host CPU / buffer-management overhead model. Every disk issue and every
/// client completion occupies the (single) server CPU for
/// `base + per_buffer * allocated_buffers`; the CPU serializes, so large
/// buffered sets throttle multi-disk throughput (paper Fig. 12 vs 13).
/// A sim-backend property: a real experiment cell zeroes all three costs
/// and measures its CPU instead.
struct HostOverheadParams {
  SimTime issue_base = usec(15);
  SimTime complete_base = usec(10);
  SimTime per_buffer = nsec(200);
};

struct SchedulerParams {
  /// Dispatch set size D: streams concurrently issuing disk read-ahead.
  /// 0 = derive from memory: floor(M / (R*N)), at least 1.
  std::uint32_t dispatch_set_size = 0;
  /// Read-ahead R: size of each disk request issued for a dispatched stream.
  Bytes read_ahead = 1 * MiB;
  /// Residency N: disk requests a stream issues before rotating out.
  std::uint32_t requests_per_residency = 1;
  /// Memory budget M for I/O buffers (the buffered set). Must satisfy
  /// M >= D*R*N when D is set explicitly.
  Bytes memory_budget = 64 * MiB;
  /// When true, I/O buffers carry real backing memory that devices fill.
  /// A real experiment cell sets it; simulated runs leave it off to model
  /// timing without allocating gigabytes.
  bool materialize_buffers = false;

  DispatchPolicyKind policy = DispatchPolicyKind::kRoundRobin;
  ClassifierParams classifier;
  HostOverheadParams host;

  /// Staged buffers not touched for this long are reclaimed by the GC.
  SimTime buffer_timeout = sec(5);
  /// Parked client requests waiting longer than this are bailed out with a
  /// direct device read (escape hatch for memory starvation; must comfortably
  /// exceed the worst-case dispatch round-trip, i.e. S * R / disk_rate).
  SimTime pending_timeout = sec(30);
  /// Streams with no activity for this long are dismantled entirely.
  SimTime stream_timeout = sec(30);
  /// Period of the garbage-collection sweep (paper §4.3's periodic thread).
  SimTime gc_period = msec(500);
  /// Failed read-ahead completions (post-retry) after which a device is
  /// declared failed and its streams are evicted.
  std::uint32_t device_fail_threshold = 1;

  /// Effective dispatch-set size after the memory constraint (paper §4.2:
  /// "the maximum number of streams in the dispatch set is limited by the
  /// amount of memory M").
  [[nodiscard]] std::uint32_t effective_dispatch_size() const {
    const Bytes per_stream = read_ahead * requests_per_residency;
    const auto by_memory =
        per_stream ? static_cast<std::uint32_t>(memory_budget / per_stream) : 0;
    const std::uint32_t cap = by_memory > 0 ? by_memory : 1;
    if (dispatch_set_size == 0) return cap;
    return dispatch_set_size < cap ? dispatch_set_size : cap;
  }

  [[nodiscard]] Status validate() const {
    if (read_ahead == 0) return make_error("read_ahead must be > 0");
    if (read_ahead % kSectorSize != 0) {
      return make_error("read_ahead must be sector aligned");
    }
    if (requests_per_residency == 0) {
      return make_error("requests_per_residency must be > 0");
    }
    if (memory_budget < read_ahead) {
      return make_error("memory budget cannot stage even one read-ahead buffer");
    }
    if (dispatch_set_size > 0) {
      const Bytes need = static_cast<Bytes>(dispatch_set_size) * read_ahead *
                         requests_per_residency;
      if (memory_budget < need) {
        return make_error("M >= D*R*N violated: budget " + std::to_string(memory_budget) +
                          " < required " + std::to_string(need));
      }
    }
    if (classifier.block_bytes == 0 || classifier.offset_blocks == 0 ||
        classifier.detect_threshold == 0) {
      return make_error("classifier parameters must be positive");
    }
    if (device_fail_threshold == 0) {
      return make_error("device_fail_threshold must be > 0");
    }
    return Status::success();
  }
};

}  // namespace sst::core
