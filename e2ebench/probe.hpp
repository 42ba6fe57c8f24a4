// Layer-boundary probes for the traced run, built from the benchmark's own
// files around the public layer APIs (nothing inside the program changes):
//
//  - SpanRecorder: per-thread span stack. Each span's self time is its
//    duration minus the time of the spans nested in it, so the self times
//    of one thread partition the time its spans cover. Keeps per-kind
//    aggregates (count, total, self, log2 histogram) and the raw spans of a
//    1-in-256 sample, written as Chrome Trace JSON.
//  - TracingContext: an ExecutionContext forwarding to the real one; every
//    task scheduled through it runs inside a span of the layer that owns
//    the context (core or workload).
//  - TimedDevice: a BlockDevice wrapper timing submit() calls and
//    submit -> completion intervals, running the completion inside a
//    core.completion span and optionally checking read data against the
//    backing file's pattern.
//
// Spans are timed with steady_clock (a vDSO read); the caller times the
// enclosing event-loop calls with thread CPU to get the residual.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "blockdev/block_device.hpp"
#include "exec/execution_context.hpp"
#include "stats/histogram.hpp"

namespace sst::bench {

enum class Span : std::uint8_t {
  kClientSubmit,    ///< core.submit: the client's sink call (server front end)
  kDeviceComplete,  ///< core.completion: a device completion delivered upward
  kCoreTask,        ///< core.task: a task the core layer scheduled
  kClientComplete,  ///< workload.complete: the client's completion callback
  kWorkloadTask,    ///< workload.task: a task the workload layer scheduled
  kDeviceSubmit,    ///< blockdev.submit: BlockDevice::submit
  kCheck,           ///< blockdev.check: integrity check, outside every layer
  kCount,
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

[[nodiscard]] const char* span_name(Span kind);

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// CPU time of the calling thread, nanoseconds.
[[nodiscard]] std::uint64_t thread_cpu_ns();

struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  /// Bucket i counts spans lasting [2^i, 2^(i+1)) ns.
  std::array<std::uint64_t, 40> log2_ns{};

  void merge(const SpanStats& other);
};

struct RawSpan {
  Span kind = Span::kCount;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t rid = 0;  ///< client request id; 0 = not tied to one request
};

/// Raw spans kept per recorder at most (about 3 MB).
inline constexpr std::size_t kMaxRawSpans = 100'000;

/// One thread's span stack and aggregates. Not thread-safe: each reactor
/// group or simulation thread owns its recorder; merge after joining.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint32_t tid) : tid_(tid) { stack_.reserve(64); }

  /// Open a span. `rid` tags it with a client request; `sample` keeps its
  /// raw record (spans without a request are sampled 1 in 256 per kind).
  void push(Span kind, std::uint64_t rid = 0, bool sample = false);
  void pop();

  [[nodiscard]] const std::array<SpanStats, kSpanKinds>& stats() const { return stats_; }
  [[nodiscard]] const std::vector<RawSpan>& raw() const { return raw_; }
  void merge(const SpanRecorder& other);

 private:
  struct Frame {
    Span kind;
    bool sample;
    std::uint64_t rid;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  std::uint32_t tid_;
  std::vector<Frame> stack_;
  std::array<SpanStats, kSpanKinds> stats_{};
  std::array<std::uint64_t, kSpanKinds> seen_{};
  std::vector<RawSpan> raw_;
};

class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, Span kind, std::uint64_t rid = 0, bool sample = false)
      : recorder_(recorder) {
    recorder_.push(kind, rid, sample);
  }
  ~SpanScope() { recorder_.pop(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
};

/// Forwards to `inner`, wrapping each scheduled task in a `kind` span.
/// Handles it returns address its own slot table, so pending()/cancel()
/// keep the inner context's semantics (a task is no longer pending once it
/// starts running).
class TracingContext final : public exec::ExecutionContext {
 public:
  TracingContext(exec::ExecutionContext& inner, SpanRecorder& recorder, Span kind)
      : inner_(inner), recorder_(recorder), kind_(kind) {}

  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  exec::TaskHandle schedule_at(SimTime when, exec::TaskFn fn) override;

 private:
  struct Slot {
    exec::TaskHandle inner;
    exec::TaskFn fn;
    std::uint32_t generation = 0;
    bool alive = false;
  };

  [[nodiscard]] bool task_pending(std::uint32_t slot,
                                  std::uint32_t generation) const override;
  void cancel_task(std::uint32_t slot, std::uint32_t generation) override;
  void release(std::uint32_t slot);

  exec::ExecutionContext& inner_;
  SpanRecorder& recorder_;
  Span kind_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

/// Device-boundary counters of one recorder's devices.
struct DeviceLedger {
  std::uint64_t submits = 0;
  Bytes bytes = 0;
  std::uint64_t inflight_sum = 0;  ///< in-flight count seen by each submit
  stats::LatencyHistogram io;      ///< submit -> completion, context clock
  std::uint64_t checked_reads = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;

  void merge(const DeviceLedger& other);
};

class TimedDevice final : public blockdev::BlockDevice {
 public:
  /// `check` verifies read data against the pattern of seed `seed` at
  /// absolute file offset `base_offset + offset`: the first and last 512
  /// bytes of every read, all bytes of one read in 256.
  TimedDevice(blockdev::BlockDevice& inner, exec::ExecutionContext& clock,
              SpanRecorder& recorder, DeviceLedger& ledger, bool check = false,
              std::uint64_t seed = 0, ByteOffset base_offset = 0)
      : inner_(inner),
        clock_(clock),
        recorder_(recorder),
        ledger_(ledger),
        check_(check),
        seed_(seed),
        base_offset_(base_offset) {}

  void submit(blockdev::BlockRequest request) override;
  [[nodiscard]] Bytes capacity() const override { return inner_.capacity(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  void verify(const std::byte* data, ByteOffset offset, Bytes length);

  blockdev::BlockDevice& inner_;
  exec::ExecutionContext& clock_;
  SpanRecorder& recorder_;
  DeviceLedger& ledger_;
  bool check_;
  std::uint64_t seed_;
  ByteOffset base_offset_;
  std::uint64_t in_flight_ = 0;
  std::uint64_t reads_seen_ = 0;
};

/// Write `spans` as a Chrome Trace (Perfetto-loadable) JSON document.
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<RawSpan>& spans);

}  // namespace sst::bench
