// Real-I/O block device: io_uring + (attempted) O_DIRECT over a slice of a
// regular file or block device. This is the one BlockDevice implementation
// that performs actual disk I/O; everything above it — scheduler, staging
// area, clients — is the same code that runs against the simulated stack,
// scheduled on exec::RealContext instead of the simulator.
//
// The header is portable (no kernel headers leak out of the pimpl); the
// implementation is only compiled when the build enables -DSST_WITH_URING=ON,
// so referencing UringBlockDevice::open() without it is a link error. Use
// uring_backend_available() to branch at runtime.
//
// I/O model:
//  - Bounded in-flight depth: at most `queue_depth` operations are inside
//    the ring; further submissions park in a FIFO backlog and drain as
//    completions arrive, so a burst can never overflow the submission queue.
//  - Batched submission: submit() only *stages* SQEs into the submission
//    ring. The kernel is told about them by flush() — one io_uring_enter
//    for the whole staged batch — or by poll(), which combines the flush
//    with a completion wait (IORING_ENTER_GETEVENTS) so the steady-state
//    hot path is one syscall per batch, not per request. The reactor
//    (exec::RealContext) calls flush() on every turn before blocking.
//  - Modern setup flags (IORING_SETUP_COOP_TASKRUN / SINGLE_ISSUER /
//    DEFER_TASKRUN) are attempted with runtime feature detection and
//    graceful fallback on older kernels; setup_flags() reports what the
//    ring actually got. Rings opened with multiplex=true skip the
//    taskrun flags (deferred completion posting would starve an epoll
//    waiter) and instead register an eventfd the reactor can multiplex.
//  - O_DIRECT is attempted first and silently degrades to buffered I/O when
//    the filesystem refuses it (tmpfs) or a request is not 4096-aligned
//    (pointer, offset and length all must be).
//  - Buffers registered via register_buffers() (typically the staging area's
//    extent-slab regions) are used as io_uring fixed buffers: requests whose
//    data pointer falls inside a registered region submit READ_FIXED /
//    WRITE_FIXED and skip the per-op pin/unpin.
//  - Short reads/writes are transparently resubmitted for the remainder,
//    and transient kernel results (-EAGAIN/-EINTR) are retried a bounded
//    number of times; any other completion error surfaces as
//    IoStatus::kMediaError.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/counters.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "exec/real_context.hpp"

namespace sst::blockdev {

struct UringParams {
  /// Backing file, pre-formatted with the deterministic content pattern
  /// (scripts/mkpattern.py) when read verification matters.
  std::string path;
  ByteOffset base_offset = 0;  ///< first byte of this device's slice
  /// Slice size in bytes; 0 = everything from base_offset to end of file.
  /// Must be sector aligned.
  Bytes capacity = 0;
  std::uint32_t queue_depth = 64;  ///< bounded in-flight depth (ring size)
  bool direct = true;              ///< try O_DIRECT before buffered I/O
  /// Pattern seed reported through seed() so integrity checks can verify
  /// reads against a mkpattern.py-formatted file. Note the pattern is a
  /// whole-file property: a slice at base_offset B holds the pattern for
  /// absolute offsets [B, B+capacity).
  std::uint64_t seed = 0;
  std::string label = "uring0";
  /// True when the ring will be driven from an epoll reactor alongside
  /// other rings: registers an eventfd (exposed via event_fd()) and opens
  /// the ring without COOP/DEFER_TASKRUN — deferred task running only
  /// posts CQEs when the issuer enters the kernel, which would starve a
  /// task blocked in epoll_wait. Leave false when the reactor blocks
  /// inside this ring (the single-busy-ring fast path).
  bool multiplex = false;
};

/// Size of UringStats::batch_size_log2: bucket i counts flushed batches of
/// [2^i, 2^(i+1)) SQEs, with the last bucket open-ended.
inline constexpr std::size_t kUringBatchBuckets = 8;

struct UringStats {
  std::uint64_t submitted = 0;         ///< requests accepted by submit()
  std::uint64_t completed = 0;         ///< requests fully completed
  std::uint64_t errors = 0;            ///< completions with a kernel error
  std::uint64_t short_resubmits = 0;   ///< short read/write continuations
  std::uint64_t transient_retries = 0; ///< -EAGAIN/-EINTR resubmits
  std::uint64_t fixed_buffer_ops = 0;  ///< ops that used a registered buffer
  std::uint64_t direct_ops = 0;        ///< ops issued through the O_DIRECT fd
  std::uint64_t backlog_peak = 0;      ///< max requests parked beyond queue_depth
  std::uint64_t enter_syscalls = 0;    ///< io_uring_enter calls (flush + wait)
  std::uint64_t flush_batches = 0;     ///< enters that carried >= 1 SQE
  std::uint64_t sqes_flushed = 0;      ///< SQEs pushed by those enters
  std::uint64_t batch_size_max = 0;    ///< largest single flushed batch
  /// Histogram of flushed batch sizes: bucket i counts batches in
  /// [2^i, 2^(i+1)), last bucket open-ended.
  std::array<std::uint64_t, kUringBatchBuckets> batch_size_log2{};

  /// enter_syscalls per completed request — the submission-batching figure
  /// of merit (one enter per request ~= 1.0+; deep batched pipelines reach
  /// well below 0.2).
  [[nodiscard]] double syscalls_per_request() const {
    return completed > 0 ? static_cast<double>(enter_syscalls) /
                               static_cast<double>(completed)
                         : 0.0;
  }

  /// Exported as uring.*.
  static constexpr counters::Counter<UringStats, kUringBatchBuckets> kCounters[] = {
      {"submitted", &UringStats::submitted},
      {"completed", &UringStats::completed},
      {"errors", &UringStats::errors},
      {"short_resubmits", &UringStats::short_resubmits},
      {"transient_retries", &UringStats::transient_retries},
      {"fixed_buffer_ops", &UringStats::fixed_buffer_ops},
      {"direct_ops", &UringStats::direct_ops},
      {"backlog_peak", &UringStats::backlog_peak, counters::kMax},
      {"enter_syscalls", &UringStats::enter_syscalls},
      {"flush_batches", &UringStats::flush_batches},
      {"sqes_flushed", &UringStats::sqes_flushed},
      {"batch_size_max", &UringStats::batch_size_max, counters::kMax},
      {.key = "syscalls_per_request", .derive = &UringStats::syscalls_per_request},
      {.key = "batch_size_log2", .buckets = &UringStats::batch_size_log2},
  };
};

class UringBlockDevice final : public BlockDevice, public exec::CompletionDriver {
 public:
  /// Open the backing file and set up the ring. Fails (as a value, no
  /// exceptions) when the file can't be opened, the slice exceeds the file,
  /// or the kernel rejects io_uring setup. On success the device has
  /// registered itself as a completion driver on `ctx`; destruction
  /// unregisters it, so the device must not outlive the context.
  [[nodiscard]] static Result<std::unique_ptr<UringBlockDevice>> open(
      exec::RealContext& ctx, UringParams params);

  ~UringBlockDevice() override;

  /// Asserts sector alignment and slice bounds like every other device.
  /// Requests without a data pointer are completed inline (a real device
  /// cannot transfer into nothing; timing-only probes are a simulator
  /// concept).
  void submit(BlockRequest request) override;

  [[nodiscard]] Bytes capacity() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint64_t seed() const;

  // exec::CompletionDriver
  /// Reap ready CQEs; with `max_wait` > 0 and nothing ready, flushes any
  /// staged SQEs and blocks in the ring — submit and wait combined into a
  /// single io_uring_enter when the kernel supports EXT_ARG.
  std::size_t poll(SimTime max_wait) override;
  [[nodiscard]] std::size_t in_flight() const override;
  /// Push every staged SQE to the kernel with one io_uring_enter. Returns
  /// the number of SQEs flushed (0 = no syscall made).
  std::size_t flush() override;
  /// The registered completion eventfd when opened with multiplex=true,
  /// else -1.
  [[nodiscard]] int event_fd() const override;

  /// Register memory regions (e.g. ExtentSlab::regions()) as io_uring fixed
  /// buffers. Call once, before I/O is in flight; at most 1024 regions are
  /// registered (the kernel iovec limit), the rest simply stay unfixed.
  /// Best-effort: on error the device keeps working without fixed buffers.
  Status register_buffers(const std::vector<std::pair<std::byte*, Bytes>>& regions);

  [[nodiscard]] const UringStats& stats() const;
  /// True when the backing file accepted O_DIRECT (tmpfs doesn't; those
  /// runs transparently use buffered I/O instead).
  [[nodiscard]] bool using_direct() const;
  /// The IORING_SETUP_* flags the ring got after any fallback.
  [[nodiscard]] std::uint32_t setup_flags() const;

 private:
  struct Impl;
  explicit UringBlockDevice(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// True when the library was built with -DSST_WITH_URING=ON. When false,
/// UringBlockDevice is declared but not defined — don't call open().
[[nodiscard]] constexpr bool uring_backend_available() {
#if defined(SST_WITH_URING)
  return true;
#else
  return false;
#endif
}

}  // namespace sst::blockdev
