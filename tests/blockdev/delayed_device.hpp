// Latency-injection wrapper for robustness testing: forwards requests to
// an inner device and delays selected completions by a configurable extra
// amount. Used to exercise the stream scheduler's behaviour around
// timeouts, garbage collection racing in-flight reads, and deeply delayed
// completions — conditions a real degraded disk (retries, remapped
// sectors) produces. A test helper only: no front end builds one, so it
// lives with the tests (tests/ is on every test's include path).
#pragma once

#include <functional>
#include <string>

#include "blockdev/block_device.hpp"
#include "exec/execution_context.hpp"

namespace sst::blockdev {

class DelayedDevice final : public BlockDevice {
 public:
  /// `should_delay` decides per request (by its sequence number and offset)
  /// whether the extra delay applies. Inner device must outlive this.
  DelayedDevice(exec::ExecutionContext& simulator, BlockDevice& inner, SimTime extra_delay,
                std::function<bool(std::uint64_t seq, ByteOffset offset)> should_delay)
      : sim_(simulator),
        inner_(inner),
        extra_delay_(extra_delay),
        should_delay_(std::move(should_delay)) {}

  /// Convenience: delay every Nth request.
  DelayedDevice(exec::ExecutionContext& simulator, BlockDevice& inner, SimTime extra_delay,
                std::uint64_t every_nth)
      : DelayedDevice(simulator, inner, extra_delay,
                      [every_nth](std::uint64_t seq, ByteOffset) {
                        return every_nth != 0 && seq % every_nth == 0;
                      }) {}

  void submit(BlockRequest request) override {
    const std::uint64_t seq = next_seq_++;
    if (should_delay_ && should_delay_(seq, request.offset)) {
      ++delayed_;
      request.on_complete = [this,
                             cb = std::move(request.on_complete)](SimTime, IoStatus s) {
        sim_.schedule_after(extra_delay_, [this, cb, s]() {
          if (cb) cb(sim_.now(), s);
        });
      };
    }
    inner_.submit(std::move(request));
  }

  [[nodiscard]] Bytes capacity() const override { return inner_.capacity(); }
  [[nodiscard]] std::string name() const override { return "delayed:" + inner_.name(); }
  [[nodiscard]] std::uint64_t delayed_count() const { return delayed_; }

 private:
  exec::ExecutionContext& sim_;
  BlockDevice& inner_;
  SimTime extra_delay_;
  std::function<bool(std::uint64_t, ByteOffset)> should_delay_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace sst::blockdev
