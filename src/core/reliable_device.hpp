// Host-side command reliability layer: per-command timeouts with bounded
// retry and exponential backoff over any BlockDevice (cf. the block-layer
// timeout/requeue hierarchy in production storage stacks). Stacked between
// the stream scheduler / server and a (possibly fault-injected) device:
//
//   submit -> attempt 1 [timer armed]
//     ok                -> complete(kOk)            (recovered if attempt>1)
//     error completion  -> backoff, attempt k+1
//     timer fires       -> abandon attempt, backoff, attempt k+1
//     retries exhausted -> complete(last status)    (giveup)
//
// A timed-out attempt may still complete later inside the inner device; the
// stale completion is recognized by its attempt number and dropped. Hung
// commands (swallowed by fault::FaultyDevice) are recovered purely by the
// timer. Backoff for retry k sleeps min(backoff_base << (k-1), backoff_cap).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "blockdev/block_device.hpp"
#include "common/counters.hpp"
#include "common/result.hpp"
#include "obs/tracer.hpp"
#include "exec/execution_context.hpp"

namespace sst::core {

struct RetryParams {
  /// Deadline per attempt; 0 disables the timer (error completions still
  /// retry, but hung commands are then unrecoverable).
  SimTime command_timeout = msec(250);
  /// Retries after the first attempt (total attempts = max_retries + 1).
  std::uint32_t max_retries = 3;
  SimTime backoff_base = msec(5);
  SimTime backoff_cap = sec(1);

  /// Backoff slept before retry `k` (1-based): base << (k-1), capped.
  [[nodiscard]] SimTime backoff_for(std::uint32_t retry) const {
    if (retry == 0) return 0;
    const std::uint32_t shift = retry - 1 < 20 ? retry - 1 : 20;
    const SimTime raw = backoff_base << shift;
    return raw < backoff_cap ? raw : backoff_cap;
  }

  [[nodiscard]] Status validate() const {
    if (backoff_base == 0) return make_error("retry backoff_base must be > 0");
    if (backoff_cap < backoff_base) {
      return make_error("retry backoff_cap must be >= backoff_base");
    }
    return Status::success();
  }
};

struct RetryStats {
  std::uint64_t commands = 0;
  std::uint64_t retries_total = 0;   ///< re-submissions (all causes)
  std::uint64_t timeouts = 0;        ///< attempts abandoned by the timer
  std::uint64_t media_errors = 0;    ///< error completions from below
  std::uint64_t recovered = 0;       ///< commands ok after >= 1 retry
  std::uint64_t giveups = 0;         ///< commands failed, retries exhausted
  SimTime backoff_time = 0;          ///< total backoff sleep injected
  /// Exported as retry.*.
  static constexpr counters::Counter<RetryStats> kCounters[] = {
      {"commands", &RetryStats::commands},
      {"retries_total", &RetryStats::retries_total},
      {"timeouts", &RetryStats::timeouts},
      {"media_errors", &RetryStats::media_errors},
      {"recovered", &RetryStats::recovered},
      {"giveups", &RetryStats::giveups},
      {"backoff_time_ms", &RetryStats::backoff_time, counters::kSum, counters::kMillis},
  };
};

class ReliableDevice final : public blockdev::BlockDevice {
 public:
  /// `inner` must outlive this wrapper. `device_index` labels trace events.
  ReliableDevice(exec::ExecutionContext& simulator, blockdev::BlockDevice& inner,
                 RetryParams params, std::uint32_t device_index);

  void submit(blockdev::BlockRequest request) override;

  [[nodiscard]] Bytes capacity() const override { return inner_.capacity(); }
  [[nodiscard]] std::string name() const override { return "reliable:" + inner_.name(); }
  [[nodiscard]] const RetryParams& params() const { return params_; }
  [[nodiscard]] const RetryStats& stats() const { return stats_; }

  /// Attach a per-experiment tracer (nullptr detaches); retries, timeouts
  /// and giveups land as instants on the device's request track.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// One command's recovery state, shared between the timer, the attempt
  /// completion, and backoff continuations.
  struct Pending {
    ByteOffset offset = 0;
    Bytes length = 0;
    IoOp op = IoOp::kRead;
    RequestId id = kInvalidRequest;
    std::byte* data = nullptr;
    IoCompletion cb;
    std::uint32_t attempt = 1;   ///< current attempt number (stale guard)
    bool settled = false;
    IoStatus last_status = IoStatus::kTimeout;
    exec::TaskHandle timer;
  };

  void start_attempt(const std::shared_ptr<Pending>& p);
  void attempt_failed(const std::shared_ptr<Pending>& p, IoStatus status);
  void settle(const std::shared_ptr<Pending>& p, IoStatus status);

  exec::ExecutionContext& sim_;
  blockdev::BlockDevice& inner_;
  RetryParams params_;
  std::uint32_t device_index_;
  RetryStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace sst::core
