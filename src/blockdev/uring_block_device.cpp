// io_uring block device, implemented against the raw kernel ABI
// (<linux/io_uring.h> + syscalls) so no userspace liburing is required.
// Single-threaded like the rest of the execution model: submissions and
// completions both happen on the reactor thread, so the ring barriers are
// only against the kernel, never against another userspace thread.
#include "blockdev/uring_block_device.hpp"

#if !defined(SST_WITH_URING)
#error "uring_block_device.cpp must only be compiled with SST_WITH_URING"
#endif

#include <fcntl.h>
#include <linux/io_uring.h>
#include <linux/time_types.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

// Modern setup flags, defined locally when the build host's kernel headers
// predate them — availability is detected at runtime (io_uring_setup
// rejects unknown flags with EINVAL and we fall back), so compiling against
// old headers must not silently disable the fast path.
#ifndef IORING_SETUP_COOP_TASKRUN
#define IORING_SETUP_COOP_TASKRUN (1U << 8)
#endif
#ifndef IORING_SETUP_SINGLE_ISSUER
#define IORING_SETUP_SINGLE_ISSUER (1U << 12)
#endif
#ifndef IORING_SETUP_DEFER_TASKRUN
#define IORING_SETUP_DEFER_TASKRUN (1U << 13)
#endif

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <deque>
#include <string>

namespace sst::blockdev {

namespace {

/// O_DIRECT wants pointer, file offset and length aligned to the logical
/// block size; 4096 covers every modern device.
constexpr std::uint64_t kDirectAlign = 4096;
/// Kernel limit on registered-buffer iovecs (UIO_MAXIOV).
constexpr std::size_t kMaxRegisteredRegions = 1024;
/// sqe.len is 32-bit; cap each SQE well below the wrap point and let the
/// short-transfer continuation pick up the remainder. 1 GiB keeps O_DIRECT
/// alignment (multiple of 4096) for any aligned request.
constexpr Bytes kMaxSqeBytes = Bytes{1} << 30;
/// Transient kernel results (-EAGAIN/-EINTR) are resubmitted up to this
/// many times per request before surfacing as a media error.
constexpr std::uint32_t kMaxTransientRetries = 8;
/// IORING_REGISTER_EVENTFD by value: it is an enumerator (not a macro) in
/// <linux/io_uring.h>, so old headers can't be probed with #ifndef. The
/// ABI value is fixed.
constexpr unsigned kRegisterEventfd = 4;

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags,
                       const void* arg, std::size_t argsz) {
  return static_cast<int>(
      syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, arg, argsz));
}

int sys_io_uring_register(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
  return static_cast<int>(syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

unsigned load_acquire(unsigned* ptr) {
  return std::atomic_ref<unsigned>(*ptr).load(std::memory_order_acquire);
}

void store_release(unsigned* ptr, unsigned value) {
  std::atomic_ref<unsigned>(*ptr).store(value, std::memory_order_release);
}

bool aligned_for_direct(const BlockRequest& request, ByteOffset file_offset) {
  return (reinterpret_cast<std::uintptr_t>(request.data) % kDirectAlign) == 0 &&
         (file_offset % kDirectAlign) == 0 && (request.length % kDirectAlign) == 0;
}

}  // namespace

struct UringBlockDevice::Impl {
  exec::RealContext* ctx = nullptr;
  UringParams params;
  Bytes capacity = 0;

  int direct_fd = -1;    ///< -1 when the filesystem refused O_DIRECT
  int buffered_fd = -1;  ///< always valid; serves unaligned requests
  int ring_fd = -1;
  int efd = -1;           ///< registered completion eventfd (multiplex mode)
  bool ext_arg = false;   ///< IORING_FEAT_EXT_ARG: timed waits in one syscall
  std::uint32_t setup_flags = 0;  ///< IORING_SETUP_* the ring got
  /// SQEs written into the SQ ring but not yet pushed to the kernel.
  unsigned staged = 0;

  // Ring mappings. With IORING_FEAT_SINGLE_MMAP the SQ and CQ rings share
  // one mapping; sqes are always their own.
  void* sq_ring_mem = MAP_FAILED;
  std::size_t sq_ring_bytes = 0;
  void* cq_ring_mem = MAP_FAILED;
  std::size_t cq_ring_bytes = 0;
  void* sqe_mem = MAP_FAILED;
  std::size_t sqe_bytes = 0;

  // Raw ring pointers into the mappings.
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  io_uring_sqe* sqes = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;

  /// One record per request inside the ring, addressed by user_data.
  struct Pending {
    BlockRequest request;
    Bytes done = 0;  ///< bytes already transferred (short-op continuation)
    int buf_index = -1;
    std::uint32_t next_free = UINT32_MAX;
    std::uint32_t retries = 0;  ///< consecutive -EAGAIN/-EINTR resubmits
    bool alive = false;
  };
  std::vector<Pending> pending;
  std::uint32_t free_head = UINT32_MAX;
  std::size_t inflight = 0;

  /// FIFO of accepted requests waiting for a ring slot.
  std::deque<BlockRequest> backlog;

  struct Region {
    std::byte* base = nullptr;
    Bytes length = 0;
  };
  std::vector<Region> regions;  ///< sorted by base; index == buf_index
  bool buffers_registered = false;

  UringStats stats;

  ~Impl() {
    if (sqe_mem != MAP_FAILED) munmap(sqe_mem, sqe_bytes);
    if (cq_ring_mem != MAP_FAILED && cq_ring_mem != sq_ring_mem) {
      munmap(cq_ring_mem, cq_ring_bytes);
    }
    if (sq_ring_mem != MAP_FAILED) munmap(sq_ring_mem, sq_ring_bytes);
    if (ring_fd >= 0) close(ring_fd);
    if (efd >= 0) close(efd);
    if (direct_fd >= 0) close(direct_fd);
    if (buffered_fd >= 0) close(buffered_fd);
  }

  Status setup_ring() {
    // Runtime feature detection with graceful fallback: each attempt drops
    // the newest flag set, so an old kernel (EINVAL on unknown setup flags)
    // ends at a plain ring. Multiplexed rings never ask for the taskrun
    // flags — COOP/DEFER_TASKRUN defer CQE posting until the issuer enters
    // the kernel, which would leave an epoll_wait on the ring eventfd
    // sleeping through completions.
    const unsigned coop = IORING_SETUP_COOP_TASKRUN;
    const unsigned single = IORING_SETUP_SINGLE_ISSUER;
    const unsigned defer = IORING_SETUP_DEFER_TASKRUN;
    std::vector<unsigned> attempts;
    if (params.multiplex) {
      attempts = {single, 0};
    } else {
      attempts = {coop | single | defer, coop | single, coop, 0};
    }
    io_uring_params setup{};
    for (const unsigned flags : attempts) {
      setup = io_uring_params{};
      setup.flags = flags;
      ring_fd = sys_io_uring_setup(params.queue_depth, &setup);
      if (ring_fd >= 0) {
        setup_flags = flags;
        break;
      }
      if (errno != EINVAL) break;  // only unknown-flag rejections fall back
    }
    if (ring_fd < 0) {
      return make_error("io_uring_setup failed: " + std::string(strerror(errno)));
    }
    ext_arg = (setup.features & IORING_FEAT_EXT_ARG) != 0;

    if (params.multiplex) {
      // Completion eventfd for the reactor's epoll set. Best-effort: a ring
      // without one still works, it just forces the reactor onto the
      // capped-poll fallback path.
      efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (efd >= 0 &&
          sys_io_uring_register(ring_fd, kRegisterEventfd, &efd, 1) < 0) {
        close(efd);
        efd = -1;
      }
    }

    sq_ring_bytes = setup.sq_off.array + setup.sq_entries * sizeof(unsigned);
    cq_ring_bytes = setup.cq_off.cqes + setup.cq_entries * sizeof(io_uring_cqe);
    if ((setup.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      sq_ring_bytes = cq_ring_bytes = std::max(sq_ring_bytes, cq_ring_bytes);
    }
    sq_ring_mem = mmap(nullptr, sq_ring_bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQ_RING);
    if (sq_ring_mem == MAP_FAILED) {
      return make_error("io_uring SQ ring mmap failed: " + std::string(strerror(errno)));
    }
    if ((setup.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      cq_ring_mem = sq_ring_mem;
    } else {
      cq_ring_mem = mmap(nullptr, cq_ring_bytes, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_CQ_RING);
      if (cq_ring_mem == MAP_FAILED) {
        return make_error("io_uring CQ ring mmap failed: " + std::string(strerror(errno)));
      }
    }
    sqe_bytes = setup.sq_entries * sizeof(io_uring_sqe);
    sqe_mem = mmap(nullptr, sqe_bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES);
    if (sqe_mem == MAP_FAILED) {
      return make_error("io_uring SQE mmap failed: " + std::string(strerror(errno)));
    }

    auto* sq_base = static_cast<std::uint8_t*>(sq_ring_mem);
    sq_head = reinterpret_cast<unsigned*>(sq_base + setup.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(sq_base + setup.sq_off.tail);
    sq_mask = *reinterpret_cast<unsigned*>(sq_base + setup.sq_off.ring_mask);
    sq_array = reinterpret_cast<unsigned*>(sq_base + setup.sq_off.array);
    sqes = static_cast<io_uring_sqe*>(sqe_mem);
    auto* cq_base = static_cast<std::uint8_t*>(cq_ring_mem);
    cq_head = reinterpret_cast<unsigned*>(cq_base + setup.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(cq_base + setup.cq_off.tail);
    cq_mask = *reinterpret_cast<unsigned*>(cq_base + setup.cq_off.ring_mask);
    cqes = reinterpret_cast<io_uring_cqe*>(cq_base + setup.cq_off.cqes);
    return Status::success();
  }

  std::uint32_t acquire_pending() {
    if (free_head != UINT32_MAX) {
      const std::uint32_t index = free_head;
      free_head = pending[index].next_free;
      return index;
    }
    pending.emplace_back();
    return static_cast<std::uint32_t>(pending.size() - 1);
  }

  void release_pending(std::uint32_t index) {
    pending[index].request = BlockRequest{};
    pending[index].alive = false;
    pending[index].next_free = free_head;
    free_head = index;
  }

  /// Registered region containing [data, data+length), or -1.
  int region_of(const std::byte* data, Bytes length) const {
    if (!buffers_registered) return -1;
    auto it = std::upper_bound(regions.begin(), regions.end(), data,
                               [](const std::byte* ptr, const Region& region) {
                                 return ptr < region.base;
                               });
    if (it == regions.begin()) return -1;
    --it;
    if (data >= it->base && data + length <= it->base + it->length) {
      return static_cast<int>(it - regions.begin());
    }
    return -1;
  }

  /// Stage the continuation of `pending[index]` into the SQ ring without
  /// telling the kernel — flush() pushes the whole staged batch with one
  /// io_uring_enter. The ring can never be full here: SQEs are consumed by
  /// the flush syscall and in-ring requests are capped at queue_depth.
  void stage_sqe(std::uint32_t index) {
    Pending& entry = pending[index];
    const BlockRequest& request = entry.request;
    const ByteOffset file_offset = params.base_offset + request.offset + entry.done;
    std::byte* data = request.data + entry.done;
    const Bytes remaining = request.length - entry.done;
    // sqe.len is only 32 bits wide: issue at most kMaxSqeBytes per SQE and
    // let reap()'s short-transfer continuation submit the rest.
    const Bytes chunk = std::min(remaining, kMaxSqeBytes);

    const bool use_direct = direct_fd >= 0 && aligned_for_direct(request, file_offset) &&
                            (reinterpret_cast<std::uintptr_t>(data) % kDirectAlign) == 0 &&
                            (remaining % kDirectAlign) == 0;
    if (use_direct) ++stats.direct_ops;

    const unsigned tail = load_acquire(sq_tail);
    const unsigned slot = tail & sq_mask;
    io_uring_sqe& sqe = sqes[slot];
    std::memset(&sqe, 0, sizeof(sqe));
    sqe.fd = use_direct ? direct_fd : buffered_fd;
    sqe.off = file_offset;
    sqe.addr = reinterpret_cast<std::uint64_t>(data);
    sqe.len = static_cast<std::uint32_t>(chunk);
    sqe.user_data = index;
    if (entry.buf_index >= 0) {
      sqe.opcode = request.op == IoOp::kRead ? IORING_OP_READ_FIXED : IORING_OP_WRITE_FIXED;
      sqe.buf_index = static_cast<std::uint16_t>(entry.buf_index);
      ++stats.fixed_buffer_ops;
    } else {
      sqe.opcode = request.op == IoOp::kRead ? IORING_OP_READ : IORING_OP_WRITE;
    }
    sq_array[slot] = slot;
    store_release(sq_tail, tail + 1);
    ++staged;
  }

  /// Record one successful enter that pushed `batch` SQEs.
  void note_batch(unsigned batch) {
    if (batch == 0) return;
    ++stats.flush_batches;
    stats.sqes_flushed += batch;
    stats.batch_size_max = std::max<std::uint64_t>(stats.batch_size_max, batch);
    std::size_t bucket = 0;
    while ((batch >> (bucket + 1)) != 0 && bucket + 1 < kUringBatchBuckets) {
      ++bucket;
    }
    ++stats.batch_size_log2[bucket];
  }

  /// Kernel refused to accept `count` staged SQEs: rewind the SQ tail past
  /// them and surface each as an immediate media error — the completion
  /// path can't see a request the kernel never took.
  void fail_staged(unsigned count) {
    const unsigned tail = load_acquire(sq_tail);
    std::vector<std::uint32_t> failed;
    failed.reserve(count);
    for (unsigned j = 0; j < count; ++j) {
      const unsigned slot = (tail - count + j) & sq_mask;
      failed.push_back(static_cast<std::uint32_t>(sqes[slot].user_data));
    }
    store_release(sq_tail, tail - count);
    staged -= count;
    for (const std::uint32_t index : failed) {
      ++stats.errors;
      ++stats.completed;
      const BlockRequest done = std::move(pending[index].request);
      release_pending(index);
      --inflight;
      if (done.on_complete) done.on_complete(ctx->now(), IoStatus::kMediaError);
    }
  }

  /// Push every staged SQE to the kernel: one io_uring_enter for the whole
  /// batch. With DEFER_TASKRUN the enter also carries GETEVENTS (with
  /// min_complete = 0 it never blocks) so deferred completions post in the
  /// same syscall. Returns the number of SQEs flushed.
  std::size_t flush() {
    const unsigned batch = staged;
    unsigned remaining = staged;
    std::uint32_t transient = 0;
    while (remaining > 0) {
      const unsigned wait_flags =
          (setup_flags & IORING_SETUP_DEFER_TASKRUN) != 0 ? IORING_ENTER_GETEVENTS : 0;
      const int rc =
          sys_io_uring_enter(ring_fd, remaining, 0, wait_flags, nullptr, 0);
      ++stats.enter_syscalls;
      if (rc < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN && transient++ < kMaxTransientRetries) continue;
        // Hard submission failure (resource exhaustion, ring gone): fail
        // everything the kernel didn't take.
        fail_staged(remaining);
        return batch - remaining;
      }
      remaining -= static_cast<unsigned>(rc);
      staged -= static_cast<unsigned>(rc);
      note_batch(static_cast<unsigned>(rc));
    }
    return batch;
  }

  /// Move one accepted request into the ring (staged; not yet submitted).
  void start(BlockRequest request) {
    const std::uint32_t index = acquire_pending();
    Pending& entry = pending[index];
    entry.request = std::move(request);
    entry.done = 0;
    entry.retries = 0;
    entry.buf_index = region_of(entry.request.data, entry.request.length);
    entry.alive = true;
    ++inflight;
    stage_sqe(index);
  }

  /// Drain every ready CQE; returns the number of *requests* completed
  /// (continuations of short ops don't count). Completion callbacks run
  /// here and may call submit() reentrantly — the backlog/depth accounting
  /// keeps that safe.
  std::size_t reap() {
    std::size_t completed_requests = 0;
    for (;;) {
      const unsigned head = load_acquire(cq_head);
      const unsigned tail = load_acquire(cq_tail);
      if (head == tail) break;
      const io_uring_cqe cqe = cqes[head & cq_mask];
      store_release(cq_head, head + 1);

      const auto index = static_cast<std::uint32_t>(cqe.user_data);
      assert(index < pending.size() && pending[index].alive);
      Pending& entry = pending[index];
      if (cqe.res > 0 && entry.done + static_cast<Bytes>(cqe.res) < entry.request.length) {
        // Short transfer: continue where it stopped.
        entry.done += static_cast<Bytes>(cqe.res);
        entry.retries = 0;  // forward progress resets the transient budget
        ++stats.short_resubmits;
        stage_sqe(index);
        continue;
      }
      if ((cqe.res == -EAGAIN || cqe.res == -EINTR) &&
          entry.retries < kMaxTransientRetries) {
        // Transient kernel result, not a media failure: resubmit the same
        // continuation (bounded, so a persistently unready fd still errors).
        ++entry.retries;
        ++stats.transient_retries;
        stage_sqe(index);
        continue;
      }
      const IoStatus status = cqe.res <= 0 ? IoStatus::kMediaError : IoStatus::kOk;
      if (status != IoStatus::kOk) ++stats.errors;
      ++stats.completed;
      ++completed_requests;
      const BlockRequest done = std::move(entry.request);
      release_pending(index);
      --inflight;
      if (done.on_complete) done.on_complete(ctx->now(), status);
    }
    // Ring slots freed: admit parked requests.
    while (!backlog.empty() && inflight < params.queue_depth) {
      BlockRequest next = std::move(backlog.front());
      backlog.pop_front();
      start(std::move(next));
    }
    return completed_requests;
  }

  /// Flush any staged SQEs and block in the kernel until completions or
  /// `max_wait` ns — submit and wait combined into a single io_uring_enter
  /// (IORING_ENTER_GETEVENTS), so the steady-state reactor turn costs one
  /// syscall per batch. min_complete scales with the pipeline (a quarter of
  /// the in-flight requests, capped) instead of waking per completion:
  /// devices whose completions trickle one at a time would otherwise cost
  /// one enter each. The closed loop refills what the wait drains, the
  /// remaining three quarters keep the device busy meanwhile, and the
  /// timeout still returns exactly at the caller's deadline, so timers
  /// never slip.
  void flush_and_wait(SimTime max_wait) {
    if (!ext_arg) {
      // Ancient-kernel fallback (no EXT_ARG): an untimed GETEVENTS wait
      // would block past the caller's deadline, so flush separately, nap
      // briefly and let the caller re-poll.
      flush();
      timespec ts{};
      const SimTime nap = std::min<SimTime>(max_wait, 1'000'000);  // <= 1 ms
      ts.tv_nsec = static_cast<long>(nap);
      nanosleep(&ts, nullptr);
      return;
    }
    // Every staged SQE rides this enter, so afterwards all `inflight`
    // requests are kernel-side — the wait target is safe to derive from it.
    const auto wait_nr = static_cast<unsigned>(
        std::clamp<std::size_t>(inflight / 4, 1, 32));
    for (;;) {
      const unsigned to_submit = staged;
      __kernel_timespec ts{};
      ts.tv_sec = static_cast<long long>(max_wait / 1'000'000'000ULL);
      ts.tv_nsec = static_cast<long long>(max_wait % 1'000'000'000ULL);
      io_uring_getevents_arg arg{};
      arg.ts = reinterpret_cast<std::uint64_t>(&ts);
      const int rc = sys_io_uring_enter(
          ring_fd, to_submit, wait_nr,
          IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg, sizeof(arg));
      ++stats.enter_syscalls;
      if (rc >= 0) {
        // rc = SQEs the kernel consumed before (and regardless of) the
        // wait outcome.
        staged -= static_cast<unsigned>(rc);
        note_batch(static_cast<unsigned>(rc));
        if (staged > 0) flush();  // partial consume (rare): push the rest
        return;
      }
      if (errno == EINTR) continue;
      if (errno == ETIME) return;  // deadline, nothing submitted (staged was 0)
      // Submission-side error: route through flush(), which owns the
      // retry/fail-staged handling, then let the caller re-poll.
      flush();
      return;
    }
  }
};

Result<std::unique_ptr<UringBlockDevice>> UringBlockDevice::open(exec::RealContext& ctx,
                                                                 UringParams params) {
  if (params.path.empty()) return make_error("uring: backing file path is empty");
  if (params.queue_depth == 0) return make_error("uring: queue_depth must be >= 1");

  auto impl = std::make_unique<Impl>();
  impl->ctx = &ctx;

  impl->buffered_fd = ::open(params.path.c_str(), O_RDWR | O_CLOEXEC);
  if (impl->buffered_fd < 0) {
    return make_error("uring: cannot open " + params.path + ": " +
                      std::string(strerror(errno)));
  }
  if (params.direct) {
    // tmpfs (and some filesystems) refuse O_DIRECT; that's fine, the
    // buffered fd serves everything and using_direct() reports false.
    impl->direct_fd = ::open(params.path.c_str(), O_RDWR | O_DIRECT | O_CLOEXEC);
  }

  struct stat st{};
  if (fstat(impl->buffered_fd, &st) != 0) {
    return make_error("uring: fstat failed: " + std::string(strerror(errno)));
  }
  const auto file_size = static_cast<Bytes>(st.st_size);
  if (params.base_offset % kSectorSize != 0) {
    return make_error("uring: base_offset must be sector aligned");
  }
  Bytes capacity = params.capacity;
  if (capacity == 0) {
    if (file_size <= params.base_offset) {
      return make_error("uring: " + params.path + " is smaller than base_offset");
    }
    capacity = (file_size - params.base_offset) / kSectorSize * kSectorSize;
  } else if (params.base_offset + capacity > file_size) {
    return make_error("uring: slice exceeds " + params.path + " (file is " +
                      std::to_string(file_size) + " bytes)");
  }
  if (capacity == 0 || capacity % kSectorSize != 0) {
    return make_error("uring: capacity must be a positive multiple of the sector size");
  }
  impl->capacity = capacity;
  impl->params = std::move(params);

  if (Status ring = impl->setup_ring(); !ring.ok()) return ring.error();

  auto device = std::unique_ptr<UringBlockDevice>(new UringBlockDevice(std::move(impl)));
  ctx.add_driver(device.get());
  return device;
}

UringBlockDevice::UringBlockDevice(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

UringBlockDevice::~UringBlockDevice() {
  // Drain rather than abandon: completion callbacks own buffers. poll()
  // blocks in the combined flush+wait path, so a deep backlog drains at one
  // syscall per completion batch instead of one per millisecond.
  while (impl_->inflight > 0 || !impl_->backlog.empty()) poll(msec(50));
  impl_->ctx->remove_driver(this);
}

void UringBlockDevice::submit(BlockRequest request) {
  assert(request.length > 0);
  assert(request.offset % kSectorSize == 0);
  assert(request.length % kSectorSize == 0);
  assert(request.offset + request.length <= impl_->capacity);

  ++impl_->stats.submitted;
  if (request.data == nullptr) {
    // Nothing to transfer; complete immediately (timing-only requests are
    // a simulation concept).
    ++impl_->stats.completed;
    if (request.on_complete) request.on_complete(impl_->ctx->now(), IoStatus::kOk);
    return;
  }
  if (impl_->inflight >= impl_->params.queue_depth) {
    impl_->backlog.push_back(std::move(request));
    impl_->stats.backlog_peak = std::max<std::uint64_t>(impl_->stats.backlog_peak,
                                                        impl_->backlog.size());
    return;
  }
  impl_->start(std::move(request));
}

Bytes UringBlockDevice::capacity() const { return impl_->capacity; }

std::string UringBlockDevice::name() const { return impl_->params.label; }

std::uint64_t UringBlockDevice::seed() const { return impl_->params.seed; }

std::size_t UringBlockDevice::poll(SimTime max_wait) {
  std::size_t completed = impl_->reap();
  if (completed == 0 && impl_->inflight > 0 && max_wait > 0) {
    impl_->flush_and_wait(max_wait);
    completed = impl_->reap();
  }
  return completed;
}

std::size_t UringBlockDevice::in_flight() const {
  return impl_->inflight + impl_->backlog.size();
}

std::size_t UringBlockDevice::flush() {
  // Reactor-driven flush with plugging: hold the staged batch back while
  // the kernel still owns more than half the pipeline. Completions of the
  // kernel-side majority keep waking the reactor, staged work accumulates
  // toward ~queue_depth/2 per enter, and the rule degenerates to
  // flush-immediately the moment the kernel side would run dry (staged
  // SQEs count toward `inflight`, so kernel-side = inflight - staged).
  if (2 * impl_->staged < impl_->inflight) return 0;
  return impl_->flush();
}

int UringBlockDevice::event_fd() const { return impl_->efd; }

Status UringBlockDevice::register_buffers(
    const std::vector<std::pair<std::byte*, Bytes>>& regions) {
  if (impl_->buffers_registered) return make_error("uring: buffers already registered");
  if (impl_->inflight > 0) return make_error("uring: cannot register with I/O in flight");
  if (regions.empty()) return Status::success();

  std::vector<Impl::Region> sorted;
  sorted.reserve(std::min(regions.size(), kMaxRegisteredRegions));
  for (const auto& [base, length] : regions) {
    if (sorted.size() == kMaxRegisteredRegions) break;
    if (base != nullptr && length > 0) sorted.push_back({base, length});
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Impl::Region& a, const Impl::Region& b) { return a.base < b.base; });

  std::vector<iovec> iovecs(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    iovecs[i].iov_base = sorted[i].base;
    iovecs[i].iov_len = sorted[i].length;
  }
  const int rc = sys_io_uring_register(impl_->ring_fd, IORING_REGISTER_BUFFERS,
                                       iovecs.data(), static_cast<unsigned>(iovecs.size()));
  if (rc < 0) {
    return make_error("uring: buffer registration failed: " + std::string(strerror(errno)));
  }
  impl_->regions = std::move(sorted);
  impl_->buffers_registered = true;
  return Status::success();
}

const UringStats& UringBlockDevice::stats() const { return impl_->stats; }

bool UringBlockDevice::using_direct() const { return impl_->direct_fd >= 0; }

std::uint32_t UringBlockDevice::setup_flags() const { return impl_->setup_flags; }

}  // namespace sst::blockdev
