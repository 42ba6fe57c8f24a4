#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "blockdev/mem_block_device.hpp"
#include "core/dispatch_policy.hpp"
#include "sim/simulator.hpp"

namespace sst::core {
namespace {

constexpr std::uint64_t kSeed = 99;
constexpr Bytes kDev = 32 * MiB;

SchedulerParams small_params() {
  SchedulerParams p;
  p.dispatch_set_size = 0;
  p.read_ahead = 64 * KiB;
  p.requests_per_residency = 1;
  p.memory_budget = 1 * MiB;
  p.materialize_buffers = true;
  p.buffer_timeout = msec(500);
  p.stream_timeout = sec(2);
  p.gc_period = msec(100);
  return p;
}

/// BlockDevice wrapper that records submissions (for issue-path checks).
class LoggingDevice final : public blockdev::BlockDevice {
 public:
  explicit LoggingDevice(blockdev::BlockDevice& inner) : inner_(inner) {}
  void submit(blockdev::BlockRequest request) override {
    submissions.push_back({request.offset, request.length});
    inner_.submit(std::move(request));
  }
  [[nodiscard]] Bytes capacity() const override { return inner_.capacity(); }
  [[nodiscard]] std::string name() const override { return "log:" + inner_.name(); }

  std::vector<std::pair<ByteOffset, Bytes>> submissions;

 private:
  blockdev::BlockDevice& inner_;
};

struct Harness {
  sim::Simulator sim;
  blockdev::MemBlockDevice mem{sim, kDev, kSeed, usec(200), 200e6};
  LoggingDevice dev{mem};
  StreamScheduler sched;

  explicit Harness(SchedulerParams p = small_params())
      : sched(sim, {&dev}, p) {}

  void run_ms(std::uint64_t ms) { sim.run_until(sim.now() + msec(ms)); }

  ClientRequest make_req(ByteOffset offset, Bytes len, int* completions,
                         std::byte* data = nullptr) {
    ClientRequest req;
    req.device = 0;
    req.offset = offset;
    req.length = len;
    req.data = data;
    req.arrival = sim.now();
    req.on_complete = [completions](SimTime) { ++*completions; };
    return req;
  }
};

TEST(Scheduler, FindStreamMatchesRange) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 1 * MiB, 1 * MiB + 128 * KiB);
  EXPECT_EQ(h.sched.find_stream(0, 1 * MiB), &s);
  EXPECT_EQ(h.sched.find_stream(0, 1 * MiB + 100 * KiB), &s);
  EXPECT_EQ(h.sched.find_stream(0, 0), nullptr);
  // Beyond match_end (prefetch + 2R): no match.
  EXPECT_EQ(h.sched.find_stream(0, 4 * MiB), nullptr);
}

TEST(Scheduler, ParkedRequestServedAfterPrefetch) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 128 * KiB);
  int done = 0;
  h.sched.enqueue(s, h.make_req(128 * KiB, 64 * KiB, &done));
  EXPECT_EQ(done, 0);
  h.run_ms(50);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(h.sched.stats().disk_reads, 1u);
  EXPECT_EQ(h.sched.stats().bytes_served, 64 * KiB);
}

TEST(Scheduler, SecondRequestIsBufferHit) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 0);
  int done = 0;
  h.sched.enqueue(s, h.make_req(0, 32 * KiB, &done));
  h.run_ms(50);
  ASSERT_EQ(done, 1);
  // [0, 64K) is staged; the next 32 KB hits without disk I/O.
  const auto reads_before = h.sched.stats().disk_reads;
  h.sched.enqueue(s, h.make_req(32 * KiB, 32 * KiB, &done));
  h.run_ms(50);
  EXPECT_EQ(done, 2);
  EXPECT_GE(h.sched.stats().buffer_hits, 1u);
  // Consuming the buffer may trigger further prefetch for pending demand,
  // but the hit itself required no new read at enqueue time.
  EXPECT_EQ(h.dev.submissions.size(), reads_before);
}

TEST(Scheduler, ZeroCopyServeDeliversStagedDataByReference) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 0);
  int done = 0;
  std::vector<StagedSlice> slices;
  ClientRequest req = h.make_req(0, 32 * KiB, &done);
  req.on_data = [&slices](StagedSlice slice) { slices.push_back(std::move(slice)); };
  h.sched.enqueue(s, std::move(req));
  h.run_ms(50);
  ASSERT_EQ(done, 1);
  ASSERT_FALSE(slices.empty());
  // The slices cover the request with the device's actual bytes — and no
  // memcpy happened on the serve path.
  Bytes total = 0;
  for (const auto& slice : slices) {
    EXPECT_TRUE(blockdev::check_pattern(kSeed, slice.offset, slice.data, slice.length));
    total += slice.length;
  }
  EXPECT_EQ(total, 32 * KiB);
  EXPECT_EQ(h.sched.staging_stats().bytes_copied, 0u);
  EXPECT_GE(h.sched.staging_stats().zero_copy_hits, 1u);
  // The references outlive the staged buffers themselves.
  ExtentRef held = slices.front().extent;
  const std::byte* const p = slices.front().data;
  slices.clear();
  h.run_ms(2000);  // GC reaps the stream's buffers
  EXPECT_TRUE(blockdev::check_pattern(kSeed, 0, p, 4 * KiB));
  EXPECT_GE(held.use_count(), 1u);
}

TEST(Scheduler, DispatchSetBoundedByD) {
  SchedulerParams p = small_params();
  p.dispatch_set_size = 2;
  p.memory_budget = 10 * MiB;
  Harness h(p);
  int done = 0;
  std::vector<Stream*> streams;
  for (int i = 0; i < 5; ++i) {
    const ByteOffset base = static_cast<ByteOffset>(i) * 4 * MiB;
    Stream& s = h.sched.create_stream(0, base, base);
    streams.push_back(&s);
  }
  for (auto* s : streams) {
    h.sched.enqueue(*s, h.make_req(s->range_start, 64 * KiB, &done));
  }
  EXPECT_LE(h.sched.dispatched_count(), 2u);
  EXPECT_GE(h.sched.candidate_count(), 3u);
  h.run_ms(100);
  EXPECT_EQ(done, 5);
}

TEST(Scheduler, EffectiveDispatchDerivedFromMemory) {
  SchedulerParams p = small_params();
  p.dispatch_set_size = 0;
  p.read_ahead = 256 * KiB;
  p.memory_budget = 512 * KiB;  // two buffers
  EXPECT_EQ(p.effective_dispatch_size(), 2u);
  p.dispatch_set_size = 1;  // explicit D below the memory cap wins
  EXPECT_EQ(p.effective_dispatch_size(), 1u);
}

TEST(Scheduler, ValidateRejectsMemoryBelowDRN) {
  SchedulerParams p = small_params();
  p.dispatch_set_size = 4;
  p.read_ahead = 1 * MiB;
  p.requests_per_residency = 2;
  p.memory_budget = 4 * MiB;  // needs 8 MB
  EXPECT_FALSE(p.validate().ok());
  p.memory_budget = 8 * MiB;
  EXPECT_TRUE(p.validate().ok());
}

TEST(Scheduler, ResidencyRotatesAfterNRequests) {
  SchedulerParams p = small_params();
  p.requests_per_residency = 2;
  p.memory_budget = 2 * MiB;
  Harness h(p);
  Stream& s = h.sched.create_stream(0, 0, 0);
  int done = 0;
  h.sched.enqueue(s, h.make_req(0, 64 * KiB, &done));
  h.run_ms(100);
  // One residency: two 64K reads issued back-to-back, then rotation.
  EXPECT_EQ(s.stats.residencies, 1u);
  EXPECT_EQ(s.stats.disk_reads, 2u);
  EXPECT_GE(h.sched.stats().rotations, 1u);
  EXPECT_EQ(s.state, StreamState::kBuffered);
}

TEST(Scheduler, PoolNeverExceedsBudget) {
  SchedulerParams p = small_params();
  p.memory_budget = 256 * KiB;  // 4 buffers of 64K
  Harness h(p);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    const ByteOffset base = static_cast<ByteOffset>(i) * 2 * MiB;
    Stream& s = h.sched.create_stream(0, base, base);
    h.sched.enqueue(s, h.make_req(base, 64 * KiB, &done));
  }
  h.run_ms(200);
  EXPECT_EQ(done, 8);
  EXPECT_LE(h.sched.pool().stats().peak_committed, 256 * KiB);
}

TEST(Scheduler, FullyConsumedBuffersFreed) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 0);
  int done = 0;
  h.sched.enqueue(s, h.make_req(0, 64 * KiB, &done));  // == R: whole buffer
  h.run_ms(50);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(h.sched.pool().committed(), 0u);
}

TEST(Scheduler, BufferedSetServesAfterRotation) {
  SchedulerParams p = small_params();
  p.requests_per_residency = 2;
  p.memory_budget = 2 * MiB;
  Harness h(p);
  Stream& s = h.sched.create_stream(0, 0, 0);
  int done = 0;
  h.sched.enqueue(s, h.make_req(0, 32 * KiB, &done));
  h.run_ms(50);
  ASSERT_EQ(s.state, StreamState::kBuffered);
  const auto disk_reads = h.sched.stats().disk_reads;
  // Everything up to 128 KB is staged in the buffered set.
  h.sched.enqueue(s, h.make_req(32 * KiB, 32 * KiB, &done));
  h.sched.enqueue(s, h.make_req(64 * KiB, 64 * KiB, &done));
  h.run_ms(50);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(h.sched.stats().disk_reads, disk_reads);
  EXPECT_GE(h.sched.stats().buffer_hits, 2u);
}

TEST(Scheduler, GcReclaimsUnconsumedStaleBuffers) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 0);
  int done = 0;
  h.sched.enqueue(s, h.make_req(0, 32 * KiB, &done));  // half the buffer
  h.run_ms(50);
  ASSERT_EQ(done, 1);
  EXPECT_GT(h.sched.pool().committed(), 0u);
  h.run_ms(1000);  // buffer_timeout is 500 ms; periodic GC runs
  EXPECT_EQ(h.sched.pool().committed(), 0u);
  EXPECT_GE(h.sched.stats().gc_buffers_reclaimed, 1u);
  EXPECT_EQ(h.sched.stats().gc_bytes_wasted, 32 * KiB);
}

TEST(Scheduler, GcKeepsBuffersNeededByPendingRequests) {
  // A parked request straddling a staged buffer and a not-yet-staged range
  // must pin the staged part: the cursor never revisits reclaimed ranges.
  SchedulerParams p = small_params();
  p.requests_per_residency = 1;
  p.memory_budget = 64 * KiB;  // exactly one buffer: the second can't stage
  Harness h(p);
  Stream& s = h.sched.create_stream(0, 0, 0);
  int done = 0;
  // Request spans [32K, 128K): buffer 1 [0,64K) stages, buffer 2 can't.
  h.sched.enqueue(s, h.make_req(32 * KiB, 96 * KiB, &done));
  h.run_ms(400);
  ASSERT_EQ(done, 0);
  // Buffer 1 is idle past buffer_timeout (500ms) but pinned by the pending
  // request; it must survive GC sweeps.
  h.run_ms(700);
  EXPECT_GT(h.sched.pool().committed(), 0u);
  EXPECT_EQ(h.sched.stats().gc_bytes_wasted, 0u);
}

TEST(Scheduler, StarvedPendingRequestEscalatesToDirectRead) {
  SchedulerParams p = small_params();
  p.requests_per_residency = 1;
  p.memory_budget = 64 * KiB;
  p.pending_timeout = msec(300);
  Harness h(p);
  Stream& s = h.sched.create_stream(0, 0, 0);
  std::vector<std::byte> buf(96 * KiB);
  int done = 0;
  h.sched.enqueue(s, h.make_req(32 * KiB, buf.size(), &done, buf.data()));
  // Memory can never stage the full range; the escalation hatch completes
  // the request directly after pending_timeout.
  h.run_ms(1500);
  EXPECT_EQ(done, 1);
  EXPECT_GE(h.sched.stats().escalated_reads, 1u);
  EXPECT_TRUE(blockdev::check_pattern(kSeed, 32 * KiB, buf.data(), buf.size()));
}

TEST(Scheduler, GcRetiresIdleStreams) {
  Harness h;
  h.sched.create_stream(0, 0, 0);
  EXPECT_EQ(h.sched.stream_count(), 1u);
  h.run_ms(3000);  // stream_timeout is 2 s
  EXPECT_EQ(h.sched.stream_count(), 0u);
  EXPECT_EQ(h.sched.find_stream(0, 0), nullptr);
  EXPECT_EQ(h.sched.stats().gc_streams_retired, 1u);
}

// The index holds Stream pointers. A retirement or eviction that left its
// claim behind would make the cases below read a freed stream, which the
// ASan/UBSan build turns into a hard failure; one that dropped a later
// stream's claim would lose that stream.

TEST(Scheduler, ReclaimedAnchorStaysWithTheLaterStream) {
  Harness h;
  const StreamId earlier_id = h.sched.create_stream(0, 0, 0).id;
  Stream& later = h.sched.create_stream(0, 0, 0);  // re-claims anchor 0
  EXPECT_EQ(h.sched.find_stream(0, 0), &later);
  // Keep the later stream busy past stream_timeout (2 s) while the idle
  // earlier one is retired by the GC.
  int done = 0;
  for (int i = 0; i < 30; ++i) {
    h.sched.enqueue(later, h.make_req(static_cast<ByteOffset>(i) * 32 * KiB, 32 * KiB, &done));
    h.run_ms(100);
  }
  EXPECT_EQ(done, 30);
  EXPECT_EQ(h.sched.stream_by_id(earlier_id), nullptr);
  EXPECT_EQ(h.sched.stream_count(), 1u);
  EXPECT_EQ(h.sched.find_stream(0, 0), &later);
  EXPECT_EQ(h.sched.find_stream(0, 29 * 32 * KiB), &later);
}

TEST(Scheduler, GcRetiredStreamLeavesNoClaimBehind) {
  Harness h;
  const StreamId idle_id = h.sched.create_stream(0, 0, 0).id;
  Stream& busy = h.sched.create_stream(0, 4 * MiB, 4 * MiB);
  int done = 0;
  for (int i = 0; i < 30; ++i) {
    const ByteOffset offset = 4 * MiB + static_cast<ByteOffset>(i) * 32 * KiB;
    h.sched.enqueue(busy, h.make_req(offset, 32 * KiB, &done));
    h.run_ms(100);
  }
  EXPECT_EQ(done, 30);
  EXPECT_EQ(h.sched.stats().gc_streams_retired, 1u);
  EXPECT_EQ(h.sched.stream_by_id(idle_id), nullptr);
  EXPECT_EQ(h.sched.find_stream(0, 0), nullptr);
  EXPECT_EQ(h.sched.find_stream(0, 64 * KiB), nullptr);
  EXPECT_EQ(h.sched.find_stream(0, 4 * MiB), &busy);
}

/// Holds every request, keyed by offset, until the test completes it.
class HoldingDevice final : public blockdev::BlockDevice {
 public:
  void submit(blockdev::BlockRequest request) override {
    const ByteOffset offset = request.offset;
    held_.emplace(offset, std::move(request));
  }
  [[nodiscard]] Bytes capacity() const override { return kDev; }
  [[nodiscard]] std::string name() const override { return "holding"; }

  [[nodiscard]] std::size_t held() const { return held_.size(); }
  /// Complete the held request at `offset` with `status`.
  void complete(ByteOffset offset, SimTime now, IoStatus status) {
    auto node = held_.extract(offset);
    ASSERT_FALSE(node.empty());
    node.mapped().on_complete(now, status);
  }

 private:
  std::map<ByteOffset, blockdev::BlockRequest> held_;
};

TEST(Scheduler, EvictedStreamIsNeverFoundWhileItsReadAheadDrains) {
  sim::Simulator sim;
  HoldingDevice dev;
  StreamScheduler sched(sim, {&dev}, small_params());  // device_fail_threshold 1
  Stream& victim = sched.create_stream(0, 0, 0);
  const StreamId victim_id = victim.id;
  Stream& failing = sched.create_stream(0, 8 * MiB, 8 * MiB);
  int done = 0;
  const auto request = [&sim, &done](ByteOffset offset) {
    ClientRequest req;
    req.offset = offset;
    req.length = 32 * KiB;
    req.arrival = sim.now();
    req.on_complete = [&done](SimTime) { ++done; };
    return req;
  };
  sched.enqueue(victim, request(0));
  sched.enqueue(failing, request(8 * MiB));
  sim.run_until(msec(1));  // both read-aheads leave the host CPU
  ASSERT_EQ(dev.held(), 2u);

  // One failed read-ahead declares the device failed and evicts both
  // streams: the failing one retires at once, the victim stays a zombie
  // until its own read-ahead drains.
  dev.complete(8 * MiB, sim.now(), IoStatus::kMediaError);
  EXPECT_TRUE(sched.device_failed(0));
  EXPECT_EQ(sched.stats().streams_evicted, 2u);
  EXPECT_EQ(done, 2);  // both parked requests failed
  ASSERT_NE(sched.stream_by_id(victim_id), nullptr);
  EXPECT_TRUE(sched.stream_by_id(victim_id)->evicted);
  EXPECT_EQ(sched.find_stream(0, 0), nullptr);
  EXPECT_EQ(sched.find_stream(0, 32 * KiB), nullptr);
  EXPECT_EQ(sched.find_stream(0, 8 * MiB), nullptr);

  dev.complete(0, sim.now(), IoStatus::kOk);
  EXPECT_EQ(sched.stream_by_id(victim_id), nullptr);
  EXPECT_EQ(sched.stream_count(), 0u);
  EXPECT_EQ(sched.find_stream(0, 0), nullptr);
  EXPECT_EQ(sched.find_stream(0, 32 * KiB), nullptr);
  sim.run_until(sim.now() + sec(3));  // GC sweeps over the emptied index
  EXPECT_EQ(sched.find_stream(0, 0), nullptr);
}

TEST(Scheduler, ActiveStreamSurvivesGc) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 0);
  int done = 0;
  for (int i = 0; i < 30; ++i) {
    h.sched.enqueue(s, h.make_req(static_cast<ByteOffset>(i) * 32 * KiB, 32 * KiB, &done));
    h.run_ms(100);
  }
  EXPECT_EQ(h.sched.stream_count(), 1u);
  EXPECT_EQ(done, 30);
}

TEST(Scheduler, BehindCursorFallsBackToDirectRead) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 1 * MiB);  // cursor at 1 MB
  int done = 0;
  h.sched.enqueue(s, h.make_req(256 * KiB, 64 * KiB, &done));
  h.run_ms(50);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(h.sched.stats().fallback_direct_reads, 1u);
  EXPECT_EQ(h.sched.stats().disk_reads, 0u);  // no read-ahead was triggered
}

TEST(Scheduler, StraddlingRequestNotStranded) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 96 * KiB);
  int done = 0;
  // [64K, 128K) straddles the 96 KB cursor: must complete (directly).
  h.sched.enqueue(s, h.make_req(64 * KiB, 64 * KiB, &done));
  h.run_ms(100);
  EXPECT_EQ(done, 1);
}

TEST(Scheduler, RewindReaimsPrefetchCursor) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 8 * MiB);  // cursor far ahead
  int done = 0;
  // A client looping back to 0: three consecutive sequential reads behind
  // the cursor trigger the rewind.
  for (int i = 0; i < 3; ++i) {
    h.sched.enqueue(s, h.make_req(static_cast<ByteOffset>(i) * 64 * KiB, 64 * KiB, &done));
    h.run_ms(20);
  }
  EXPECT_EQ(s.prefetch_pos, 192 * KiB);  // re-aimed
  // The next request is ahead of the cursor: prefetched normally.
  h.sched.enqueue(s, h.make_req(192 * KiB, 64 * KiB, &done));
  h.run_ms(50);
  EXPECT_EQ(done, 4);
  EXPECT_GE(h.sched.stats().disk_reads, 1u);
}

TEST(Scheduler, DataIntegrityThroughStagedBuffers) {
  Harness h;
  Stream& s = h.sched.create_stream(0, 0, 0);
  std::vector<std::byte> buf(64 * KiB);
  int done = 0;
  for (int i = 0; i < 16; ++i) {
    const ByteOffset off = static_cast<ByteOffset>(i) * 64 * KiB;
    std::fill(buf.begin(), buf.end(), std::byte{0});
    h.sched.enqueue(s, h.make_req(off, buf.size(), &done, buf.data()));
    h.run_ms(100);
    ASSERT_EQ(done, i + 1);
    ByteOffset mismatch = 0;
    EXPECT_TRUE(blockdev::check_pattern(kSeed, off, buf.data(), buf.size(), &mismatch))
        << "request " << i << " first mismatch at " << mismatch;
  }
}

TEST(Scheduler, RequestSpanningTwoBuffersServed) {
  SchedulerParams p = small_params();
  p.requests_per_residency = 2;  // two 64K buffers per residency
  p.memory_budget = 2 * MiB;
  Harness h(p);
  Stream& s = h.sched.create_stream(0, 0, 0);
  std::vector<std::byte> buf(96 * KiB);
  int done = 0;
  // [32K, 128K) needs both buffers [0,64K) and [64K,128K).
  h.sched.enqueue(s, h.make_req(32 * KiB, buf.size(), &done, buf.data()));
  h.run_ms(100);
  ASSERT_EQ(done, 1);
  EXPECT_TRUE(blockdev::check_pattern(kSeed, 32 * KiB, buf.data(), buf.size()));
}

TEST(Scheduler, IssuePathRunsBeforeCompletions) {
  // On a read completion with residency remaining, the next disk read is
  // submitted before the client completion callback runs.
  SchedulerParams p = small_params();
  p.requests_per_residency = 4;
  p.memory_budget = 4 * MiB;
  Harness h(p);
  Stream& s = h.sched.create_stream(0, 0, 0);
  std::size_t submissions_at_completion = 0;
  ClientRequest req;
  req.device = 0;
  req.offset = 0;
  req.length = 32 * KiB;
  req.on_complete = [&](SimTime) { submissions_at_completion = h.dev.submissions.size(); };
  h.sched.enqueue(s, std::move(req));
  h.run_ms(100);
  // By the time the first client completion fired, at least 2 disk reads
  // (the first + the next in residency) had been submitted.
  EXPECT_GE(submissions_at_completion, 2u);
}

TEST(Scheduler, EveryRequestCompletesExactlyOnce) {
  SchedulerParams p = small_params();
  p.memory_budget = 512 * KiB;
  Harness h(p);
  std::map<int, int> completions;
  constexpr int kStreams = 4;
  constexpr int kPerStream = 24;
  std::vector<Stream*> streams;
  for (int i = 0; i < kStreams; ++i) {
    const ByteOffset base = static_cast<ByteOffset>(i) * 8 * MiB;
    streams.push_back(&h.sched.create_stream(0, base, base));
  }
  // Interleave requests across streams with varying arrival times.
  for (int r = 0; r < kPerStream; ++r) {
    for (int i = 0; i < kStreams; ++i) {
      const int id = i * 1000 + r;
      ClientRequest req;
      req.device = 0;
      req.offset = static_cast<ByteOffset>(i) * 8 * MiB +
                   static_cast<ByteOffset>(r) * 32 * KiB;
      req.length = 32 * KiB;
      req.on_complete = [&completions, id](SimTime) { ++completions[id]; };
      h.sched.enqueue(*streams[static_cast<std::size_t>(i)], std::move(req));
    }
    h.run_ms(15);
  }
  h.run_ms(500);
  EXPECT_EQ(completions.size(), static_cast<std::size_t>(kStreams * kPerStream));
  for (const auto& [id, n] : completions) {
    EXPECT_EQ(n, 1) << "request " << id;
  }
}

TEST(Scheduler, AtDeviceEndStopsPrefetching) {
  Harness h;
  const ByteOffset near_end = kDev - 128 * KiB;
  Stream& s = h.sched.create_stream(0, near_end, near_end);
  int done = 0;
  h.sched.enqueue(s, h.make_req(near_end, 64 * KiB, &done));
  h.run_ms(50);
  h.sched.enqueue(s, h.make_req(near_end + 64 * KiB, 64 * KiB, &done));
  h.run_ms(50);
  EXPECT_EQ(done, 2);
  // Cursor clamped at capacity; no runaway reads.
  EXPECT_LE(s.prefetch_pos, kDev);
}

TEST(Scheduler, PumpStallsOnMemoryBounceUnderNonFifoPolicy) {
  // Regression: the pump used to detect a memory bounce by checking whether
  // the bounced stream reappeared at candidates_.front(). With a non-FIFO
  // policy picking from the middle of the queue that heuristic can misread
  // the state; the bounce is now reported by dispatch()'s return value.
  //
  // Memory holds two read-ahead buffers (derived D = 2). Two streams
  // dispatch, partially consume their buffers and rotate out to the
  // buffered set still holding the memory; when a dispatch slot frees, the
  // pump picks one of the remaining candidates, bounces on allocation and
  // must stall until GC reclaims the stale buffers.
  SchedulerParams p = small_params();
  p.dispatch_set_size = 0;       // derive D from M / (R*N) = 2
  p.memory_budget = 128 * KiB;   // two 64 KiB read-ahead buffers
  p.policy = DispatchPolicyKind::kNearestOffset;
  Harness h(p);
  int done = 0;
  std::vector<Stream*> streams;
  for (int i = 0; i < 4; ++i) {
    const ByteOffset base = static_cast<ByteOffset>(i) * 4 * MiB;
    streams.push_back(&h.sched.create_stream(0, base, base));
  }
  // 32 KiB requests: each served stream keeps a half-consumed buffer.
  for (auto* s : streams) {
    h.sched.enqueue(*s, h.make_req(s->range_start, 32 * KiB, &done));
  }
  h.run_ms(100);
  // The first two streams were served and rotated out holding the pool's
  // entire budget; dispatching a third bounced and the pump stalled instead
  // of spinning through the remaining candidates (which would burn
  // residencies without issuing anything).
  EXPECT_EQ(done, 2);
  EXPECT_GE(h.sched.stats().dispatch_stalls, 1u);
  EXPECT_EQ(h.sched.candidate_count(), 2u);
  EXPECT_EQ(h.sched.dispatched_count(), 0u);
  // No livelock or lost streams: GC reclaims the stale buffers (500 ms
  // timeout) and the bounced candidates dispatch and complete.
  h.run_ms(1500);
  EXPECT_EQ(done, 4);
}

TEST(DispatchPolicy, RoundRobinPicksHead) {
  RoundRobinPolicy p;
  Stream a, b, c;
  a.id = 5;
  b.id = 6;
  c.id = 7;
  CandidateList candidates;
  candidates.push_back(a);
  candidates.push_back(b);
  candidates.push_back(c);
  EXPECT_EQ(p.pick(candidates, LastIssueTable{}), &a);
  candidates.clear();
}

TEST(DispatchPolicy, NearestOffsetPicksClosest) {
  NearestOffsetPolicy p;
  Stream a, b, c;
  a.id = 1;
  b.id = 2;
  c.id = 3;
  a.device = b.device = c.device = 0;
  a.prefetch_pos = 10 * MiB;
  b.prefetch_pos = 52 * MiB;
  c.prefetch_pos = 49 * MiB;
  CandidateList candidates;
  candidates.push_back(a);
  candidates.push_back(b);
  candidates.push_back(c);
  LastIssueTable last;
  last.note(0, 50 * MiB);
  EXPECT_EQ(p.pick(candidates, last), &c);  // stream c at 49 MiB
  candidates.clear();
}

TEST(DispatchPolicy, NearestOffsetFallsBackWithoutHistory) {
  NearestOffsetPolicy p;
  Stream a, b;
  a.id = 4;
  b.id = 5;
  CandidateList candidates;
  candidates.push_back(a);
  candidates.push_back(b);
  EXPECT_EQ(p.pick(candidates, LastIssueTable{}), &a);
  candidates.clear();
}

TEST(DispatchPolicy, FactoryCreatesKinds) {
  EXPECT_NE(dynamic_cast<RoundRobinPolicy*>(
                make_policy(DispatchPolicyKind::kRoundRobin).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<NearestOffsetPolicy*>(
                make_policy(DispatchPolicyKind::kNearestOffset).get()),
            nullptr);
}

}  // namespace
}  // namespace sst::core
