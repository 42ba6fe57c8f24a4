// Workload generators replicating the paper's stream emulation (§5): each
// client emulates one sequential stream of fixed-size synchronous reads
// against a destination device/offset, keeping a bounded number of
// outstanding requests and issuing the next request as soon as a response
// arrives (closed loop). A random-access generator provides the
// non-sequential traffic used by classifier and mixed-workload tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "core/stream.hpp"
#include "stats/histogram.hpp"
#include "stats/meters.hpp"

namespace sst::exec {
class ExecutionContext;
}

namespace sst::workload {

/// Where generated requests go: the storage server's submit(), or a raw
/// device adapter. Takes ownership of the request.
using RequestSink = std::function<void(core::ClientRequest)>;

struct StreamSpec {
  std::uint32_t device = 0;
  ByteOffset start_offset = 0;
  /// Extent the stream reads before wrapping back to start_offset.
  /// 0 = run to the device's end, then wrap.
  Bytes region_bytes = 0;
  Bytes request_size = 64 * KiB;
  /// Gap skipped between consecutive requests (near-sequential access,
  /// e.g. reading one track of a multiplexed media file). 0 = strictly
  /// sequential. Must be sector aligned.
  Bytes stride_gap = 0;
  std::uint32_t outstanding = 1;
  /// Stop after this many completed requests; 0 = run until the simulation
  /// deadline.
  std::uint64_t num_requests = 0;
  IoOp op = IoOp::kRead;
  /// Host-side delay between a completion and the next request (models the
  /// application's consumption work and CPU scheduling contention).
  SimTime think_time = 0;
  /// Uniform random extra think delay in [0, think_jitter] drawn per
  /// completion from this stream's private generator (seeded from `seed`).
  /// 0 = fully deterministic pacing and the generator is never advanced.
  SimTime think_jitter = 0;
  /// Seed for this stream's private randomness. 0 = the experiment runner
  /// derives it from the global workload seed and the stream's ordinal via
  /// derive_seed(), so streams draw independent sequences whichever cell
  /// runs them.
  std::uint64_t seed = 0;
  /// Open-loop pacing: when set, a new request is issued every
  /// `issue_period` regardless of completions (a constant-bitrate
  /// consumer), bounded by `outstanding` in-flight requests — a client at
  /// the bound is stalled and skips ticks (playout underrun).
  SimTime issue_period = 0;
};

/// Per-stream measurement; reset at the end of warm-up so results cover
/// only the measurement window.
struct ClientStats {
  stats::ThroughputMeter throughput;
  stats::LatencyHistogram latency;
  std::uint64_t completed = 0;
  std::uint64_t issued = 0;
  /// Requests completed with an error status (evicted stream, failed
  /// device); they count toward neither throughput nor latency.
  std::uint64_t errors = 0;
};

/// Closed-loop sequential reader (one emulated stream).
class StreamClient {
 public:
  StreamClient(exec::ExecutionContext& simulator, RequestSink sink, StreamSpec spec,
               Bytes device_capacity);

  /// Issue the initial window of requests.
  void start();

  /// Discard warm-up numbers; measurement begins now.
  void begin_measurement();

  [[nodiscard]] const StreamSpec& spec() const { return spec_; }
  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  [[nodiscard]] bool finished() const {
    return spec_.num_requests != 0 && stats_.completed >= spec_.num_requests;
  }
  /// Paced mode only: ticks skipped because the in-flight bound was hit.
  [[nodiscard]] std::uint64_t stalled_ticks() const { return stalled_ticks_; }

 private:
  void issue_one();
  void paced_tick();
  void on_complete(SimTime issued_at, IoStatus status);
  [[nodiscard]] SimTime think_delay();

  exec::ExecutionContext& sim_;
  RequestSink sink_;
  StreamSpec spec_;
  Rng rng_;
  ByteOffset next_offset_;
  ByteOffset region_end_;
  std::uint64_t issued_total_ = 0;
  std::uint32_t in_flight_ = 0;
  std::uint64_t stalled_ticks_ = 0;
  ClientStats stats_;
};

/// Closed-loop uniform-random reader (non-sequential traffic).
class RandomClient {
 public:
  RandomClient(exec::ExecutionContext& simulator, RequestSink sink, std::uint32_t device,
               Bytes device_capacity, Bytes request_size, std::uint32_t outstanding,
               std::uint64_t seed);

  void start();
  void begin_measurement();
  [[nodiscard]] const ClientStats& stats() const { return stats_; }

 private:
  void issue_one();

  exec::ExecutionContext& sim_;
  RequestSink sink_;
  std::uint32_t device_;
  Bytes capacity_;
  Bytes request_size_;
  std::uint32_t outstanding_;
  Rng rng_;
  ClientStats stats_;
};

/// Build the paper's uniform placement: `total_streams` spread round-robin
/// over `num_devices` devices, with the streams sharing one device spaced
/// `device_capacity / streams_per_device` apart (§5: "Each stream is placed
/// disksize/#streams blocks away from the previous one").
[[nodiscard]] std::vector<StreamSpec> make_uniform_streams(std::uint32_t total_streams,
                                                           std::uint32_t num_devices,
                                                           Bytes device_capacity,
                                                           Bytes request_size,
                                                           std::uint32_t outstanding = 1);

}  // namespace sst::workload
