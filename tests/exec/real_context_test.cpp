// RealContext reactor tests: timer-slab lifecycle (cancel / reschedule /
// generation reuse), the simulator's ordering rule for tasks scheduled into
// the past, run_until with interleaved completion drivers, the idle-sleep
// discipline (no 1 ms polling between timers), the capped in-ring wait
// shared by several poll-only drivers, turns that fire only what was due
// when they began (so tasks due now yield to the drivers and the
// deadline), and the epoll multiplexing path driven by deterministic fake
// eventfd-backed drivers — asserting completions are neither lost nor
// delivered as spurious wakeups.
//
// These tests run against the wall clock, so they assert on counts and
// event ordering, never on precise durations; the only timing bound used
// is "well under the reactor's 1 s lost-wakeup safety ceiling", which a
// working event path beats by orders of magnitude.

#include <gtest/gtest.h>

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "exec/real_context.hpp"

namespace sst::exec {
namespace {

TEST(RealContextTimerSlab, CancelledTasksNeverFireAndHandlesGoInert) {
  RealContext ctx;
  int fired = 0;
  std::vector<TaskHandle> handles;
  handles.reserve(100);
  for (int i = 0; i < 100; ++i) {
    handles.push_back(ctx.schedule_after(usec(200) + i, [&fired] { ++fired; }));
  }
  EXPECT_EQ(ctx.pending_tasks(), 100u);
  for (int i = 0; i < 100; i += 2) handles[i].cancel();
  EXPECT_EQ(ctx.pending_tasks(), 50u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(handles[i].pending(), i % 2 == 1) << "handle " << i;
  }
  // Double-cancel is a no-op, not a double-free of the slot.
  for (int i = 0; i < 100; i += 2) handles[i].cancel();
  EXPECT_EQ(ctx.pending_tasks(), 50u);

  ctx.run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(ctx.pending_tasks(), 0u);
  for (const TaskHandle& h : handles) EXPECT_FALSE(h.pending());
}

TEST(RealContextTimerSlab, StaleHandlesStayInertAcrossSlotReuse) {
  RealContext ctx;
  int fired_round1 = 0;
  std::vector<TaskHandle> round1;
  round1.reserve(64);
  for (int i = 0; i < 64; ++i) {
    round1.push_back(ctx.schedule_after(usec(100), [&fired_round1] { ++fired_round1; }));
  }
  // Cancel half, fire the rest: every slot is recycled one way or the other.
  for (int i = 0; i < 64; i += 2) round1[i].cancel();
  ctx.run();
  EXPECT_EQ(fired_round1, 32);

  // Round 2 reuses the freed slots (the slab free-list hands them back),
  // bumping each slot's generation past the round-1 handles.
  int fired_round2 = 0;
  std::vector<TaskHandle> round2;
  round2.reserve(64);
  for (int i = 0; i < 64; ++i) {
    round2.push_back(ctx.schedule_after(usec(100), [&fired_round2] { ++fired_round2; }));
  }
  for (TaskHandle& stale : round1) {
    EXPECT_FALSE(stale.pending());
    stale.cancel();  // must not cancel the slot's new occupant
  }
  EXPECT_EQ(ctx.pending_tasks(), 64u);
  EXPECT_TRUE(std::all_of(round2.begin(), round2.end(),
                          [](const TaskHandle& h) { return h.pending(); }));
  ctx.run();
  EXPECT_EQ(fired_round2, 64);
}

TEST(RealContextTimerSlab, RescheduleFromCallbackAndCancelSiblingStress) {
  RealContext ctx;
  // Chains that re-schedule themselves from their own callback (recycling
  // their slot mid-fire) while every odd hop cancels a freshly scheduled
  // sibling — the allocate/cancel/reallocate churn the generation check
  // must survive.
  constexpr int kChains = 8;
  constexpr int kHops = 50;
  int hops_run = 0;
  int siblings_fired = 0;
  std::vector<int> remaining(kChains, kHops);
  std::function<void(int)> hop = [&](int chain) {
    ++hops_run;
    if (--remaining[chain] == 0) return;
    TaskHandle sibling =
        ctx.schedule_after(usec(5), [&siblings_fired] { ++siblings_fired; });
    if (remaining[chain] % 2 == 1) sibling.cancel();
    ctx.schedule_after(usec(10), [&hop, chain] { hop(chain); });
  };
  for (int c = 0; c < kChains; ++c) {
    ctx.schedule_after(usec(10), [&hop, c] { hop(c); });
  }
  ctx.run();
  EXPECT_EQ(hops_run, kChains * kHops);
  // Per chain: kHops - 1 siblings scheduled, the odd-remaining ones
  // cancelled (25 of 49), the rest fired.
  EXPECT_EQ(siblings_fired, kChains * 24);
  EXPECT_EQ(ctx.pending_tasks(), 0u);
}

TEST(RealContextTimerWheel, PastTaskFiresAfterTheBatchThatScheduledIt) {
  RealContext ctx;
  // A and B share a due time; A schedules P into the past. P clamps to the
  // wheel's cursor and fires after the rest of A's batch — the simulator's
  // rule, where a task scheduled during a tick fires after that tick.
  std::vector<char> order;
  const SimTime due = ctx.now() + msec(1);
  ctx.schedule_at(due, [&] {
    order.push_back('A');
    ctx.schedule_at(0, [&order] { order.push_back('P'); });
  });
  ctx.schedule_at(due, [&order] { order.push_back('B'); });
  ctx.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'P'}));
}

TEST(RealContextIdle, SleepsBetweenTimersInsteadOfPolling) {
  RealContext ctx;
  // Five timers 20 ms apart with no I/O in flight: the reactor must sleep
  // until each deadline. The pre-event-driven reactor woke every 1 ms
  // (~100 wakeups here); the exact-sleep discipline needs one per gap.
  int fired = 0;
  for (int i = 1; i <= 5; ++i) {
    ctx.schedule_after(msec(20) * i, [&fired] { ++fired; });
  }
  ctx.run();
  EXPECT_EQ(fired, 5);
  const ReactorStats& stats = ctx.reactor_stats();
  EXPECT_GT(stats.idle_sleeps, 0u);
  EXPECT_LE(stats.wakeups, 25u)
      << "reactor woke " << stats.wakeups
      << " times for 5 spaced timers - polling crept back in";
}

/// Deterministic completion source without an eventfd: completions become
/// deliverable when the wall clock passes their deadline, so poll() is
/// exact and repeatable. Models a driver the reactor must poll (the
/// pre-epoll discipline).
class TimedPollDriver final : public CompletionDriver {
 public:
  explicit TimedPollDriver(RealContext& ctx) : ctx_(&ctx) {}

  void start(SimTime done_at) { deadlines_.push_back(done_at); }

  std::size_t poll(SimTime max_wait) override {
    std::size_t n = drain_due();
    if (n == 0 && max_wait > 0 && !deadlines_.empty()) {
      const SimTime next = *std::min_element(deadlines_.begin(), deadlines_.end());
      const SimTime t = ctx_->now();
      if (next > t) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min(max_wait, next - t)));
      }
      n = drain_due();
    }
    return n;
  }

  [[nodiscard]] std::size_t in_flight() const override { return deadlines_.size(); }

  std::size_t delivered = 0;
  SimTime max_late = 0;  ///< worst delivery delay past a deadline

 private:
  std::size_t drain_due() {
    const SimTime t = ctx_->now();
    std::size_t n = 0;
    for (auto it = deadlines_.begin(); it != deadlines_.end();) {
      if (*it <= t) {
        max_late = std::max(max_late, t - *it);
        it = deadlines_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    delivered += n;
    return n;
  }

  RealContext* ctx_;
  std::vector<SimTime> deadlines_;
};

TEST(RealContextDrivers, RunUntilInterleavesTimersAndCompletions) {
  RealContext ctx;
  TimedPollDriver driver(ctx);
  ctx.add_driver(&driver);

  // Timers and completions landing interleaved on the same timeline; each
  // timer also starts the next I/O, so both sources stay active the whole
  // run and neither may starve the other.
  int timer_fires = 0;
  driver.start(ctx.now() + msec(3));
  for (int i = 1; i <= 4; ++i) {
    ctx.schedule_after(msec(5) * i, [&, i] {
      ++timer_fires;
      driver.start(ctx.now() + msec(3));
    });
  }

  // Consecutive run_until calls see contiguous time and keep delivering.
  const SimTime start = ctx.now();
  ctx.run_until(start + msec(12));
  EXPECT_GE(ctx.now(), start + msec(12));
  EXPECT_GE(timer_fires, 2);
  EXPECT_GE(driver.delivered, 2u);

  ctx.run_until(start + msec(40));
  EXPECT_EQ(timer_fires, 4);
  EXPECT_EQ(driver.delivered, 5u);
  EXPECT_EQ(driver.in_flight(), 0u);

  // A task scheduled in the past fires on the next turn (real contexts
  // clamp, unlike the simulator).
  bool past_fired = false;
  ctx.schedule_at(0, [&past_fired] { past_fired = true; });
  ctx.run_until(ctx.now() + usec(500));
  EXPECT_TRUE(past_fired);

  ctx.remove_driver(&driver);
}

TEST(RealContextDrivers, PollOnlyDriversShareACappedInRingWait) {
  RealContext ctx;
  TimedPollDriver slow(ctx);
  TimedPollDriver fast(ctx);
  ctx.add_driver(&slow);
  ctx.add_driver(&fast);

  // Neither driver has an eventfd, so while both are busy the reactor
  // cannot epoll: it blocks in the first busy driver (`slow`) for at most
  // 1 ms, then sweeps the other. The cap is what delivers `fast` on time
  // while `slow`'s only completion is still 100 ms away.
  const SimTime start = ctx.now();
  slow.start(start + msec(100));
  for (int i = 1; i <= 5; ++i) fast.start(start + msec(1) * i);
  ctx.run();

  EXPECT_EQ(slow.delivered, 1u);
  EXPECT_EQ(fast.delivered, 5u);
  EXPECT_LT(fast.max_late, msec(50)) << "fast waited on slow's deadline";
  const ReactorStats& stats = ctx.reactor_stats();
  EXPECT_GT(stats.inring_waits, 0u);
  EXPECT_EQ(stats.epoll_waits, 0u);
  EXPECT_EQ(stats.completions, 6u);

  ctx.remove_driver(&slow);
  ctx.remove_driver(&fast);
}

TEST(RealContextDrivers, TasksDueNowYieldToDriversAndTheDeadline) {
  RealContext ctx;
  TimedPollDriver driver(ctx);
  ctx.add_driver(&driver);

  // A chain of tasks each scheduling the next at now() is always due: a
  // zero-cost host CPU model hands work on this way (a buffer hit, its
  // completion, the client's next request, ...). Each turn fires only what
  // was due when it began, so the driver is swept between hops and the
  // deadline ends the run long before the chain does.
  constexpr int kHops = 1'000'000;
  int left = kHops;
  std::function<void()> hop = [&] {
    if (--left > 0) ctx.schedule_at(ctx.now(), [&hop] { hop(); });
  };
  const SimTime start = ctx.now();
  driver.start(start + msec(1));
  ctx.schedule_at(start, [&hop] { hop(); });
  ctx.run_until(start + msec(2));

  EXPECT_EQ(driver.delivered, 1u);
  EXPECT_GT(left, 0) << "the whole chain ran inside one turn";
  EXPECT_LT(left, kHops);

  ctx.remove_driver(&driver);
}

// A completion already due when run_until() is called at its deadline is
// delivered before it returns: a reactor thread descheduled across the
// deadline still hands over what was posted by it.
TEST(RealContextDrivers, RunUntilDeliversCompletionsPostedByItsDeadline) {
  RealContext ctx;
  TimedPollDriver driver(ctx);
  ctx.add_driver(&driver);

  const SimTime now = ctx.now();
  driver.start(now);
  ctx.run_until(now);
  EXPECT_EQ(driver.delivered, 1u);
  EXPECT_EQ(driver.in_flight(), 0u);

  ctx.remove_driver(&driver);
}

/// Deterministic eventfd-backed completion source for the epoll path: a
/// producer (the test) deposits completions and signals the eventfd —
/// exactly the contract a multiplexed io_uring ring follows. in_flight()
/// counts deposits not yet delivered through poll().
class EventfdDriver final : public CompletionDriver {
 public:
  EventfdDriver() : efd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}
  ~EventfdDriver() override {
    if (efd_ >= 0) ::close(efd_);
  }

  /// Producer side (any thread): make `n` completions deliverable.
  void complete(std::uint64_t n) {
    ready_.fetch_add(n, std::memory_order_release);
    const std::uint64_t one = n;
    [[maybe_unused]] const ssize_t rc = ::write(efd_, &one, sizeof(one));
  }

  void expect(std::uint64_t n) { expected_.fetch_add(n, std::memory_order_relaxed); }

  std::size_t poll(SimTime) override {
    const std::uint64_t n = ready_.exchange(0, std::memory_order_acquire);
    expected_.fetch_sub(n, std::memory_order_relaxed);
    delivered += n;
    return n;
  }

  [[nodiscard]] std::size_t in_flight() const override {
    return expected_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int event_fd() const override { return efd_; }

  std::uint64_t delivered = 0;

 private:
  int efd_ = -1;
  std::atomic<std::uint64_t> ready_{0};
  std::atomic<std::uint64_t> expected_{0};
};

TEST(RealContextEpoll, MultiplexedDriversLoseNoWakeupsAndReportNoSpurious) {
  RealContext ctx;
  EventfdDriver a;
  EventfdDriver b;
  ctx.add_driver(&a);
  ctx.add_driver(&b);

  // Both drivers busy for the whole run => every block is an epoll_wait
  // over both eventfds. Producers deliver in deterministic counts from a
  // helper thread (the reactor thread is inside run()).
  constexpr std::uint64_t kPerDriver = 200;
  a.expect(kPerDriver);
  b.expect(kPerDriver);
  // With both drivers busy and no producer yet, a bounded run must block
  // in one epoll_wait and return via the armed timerfd deadline — the
  // deterministic proof that the multiplexed path is in use. (During the
  // threaded phase below the sweep may legitimately find completions
  // already posted on every turn and never need to block.)
  ctx.run_until(ctx.now() + msec(2));
  EXPECT_GT(ctx.reactor_stats().epoll_waits, 0u);
  EXPECT_EQ(ctx.reactor_stats().spurious_wakeups, 0u);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kPerDriver / 4; ++i) {
      a.complete(2);
      b.complete(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      a.complete(2);
      b.complete(3);
    }
  });

  // run() exits only when both drivers drained: a lost wakeup would stall
  // against the reactor's 1 s safety ceiling instead of the event path.
  ctx.run();
  producer.join();

  EXPECT_EQ(a.delivered, kPerDriver);
  EXPECT_EQ(b.delivered, kPerDriver);
  EXPECT_EQ(a.in_flight(), 0u);
  EXPECT_EQ(b.in_flight(), 0u);

  const ReactorStats& stats = ctx.reactor_stats();
  EXPECT_EQ(stats.spurious_wakeups, 0u);
  EXPECT_GT(stats.epoll_waits, 0u);
  EXPECT_EQ(stats.completions, 2 * kPerDriver);

  ctx.remove_driver(&a);
  ctx.remove_driver(&b);
}

/// An eventfd driver whose signal lags its completions by one poll: each
/// poll() first writes the signal owed for what the previous poll
/// delivered, then delivers what is ready. That is the order a producer
/// thread can take against the reactor's sweep (publish, the sweep drains
/// the eventfd and delivers, then the signal lands), and the order an
/// io_uring ring keeps (the CQE is posted before the eventfd is signalled),
/// made deterministic on one thread.
class LateSignalDriver final : public CompletionDriver {
 public:
  LateSignalDriver() : efd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}
  ~LateSignalDriver() override {
    if (efd_ >= 0) ::close(efd_);
  }

  /// `n` operations in flight; `ready` of them deliverable, unsignalled.
  void start(std::uint64_t n, std::uint64_t ready) {
    in_flight_ += n;
    ready_ += ready;
  }

  std::size_t poll(SimTime) override {
    if (owed_ > 0) {
      [[maybe_unused]] const ssize_t rc = ::write(efd_, &owed_, sizeof(owed_));
      owed_ = 0;
    }
    const std::uint64_t n = ready_;
    ready_ = 0;
    owed_ = n;
    in_flight_ -= n;
    return n;
  }

  [[nodiscard]] std::size_t in_flight() const override { return in_flight_; }
  [[nodiscard]] int event_fd() const override { return efd_; }

 private:
  int efd_ = -1;
  std::uint64_t in_flight_ = 0;
  std::uint64_t ready_ = 0;
  std::uint64_t owed_ = 0;
};

TEST(RealContextEpoll, SignalAfterDeliveryWakesStaleNotSpurious) {
  RealContext ctx;
  LateSignalDriver driver;
  ctx.add_driver(&driver);

  // One completion ready and one that never completes, so the driver stays
  // busy and every block is an epoll_wait. The first sweep delivers the
  // completion; the second sweep drains an empty eventfd, and its poll
  // writes the late signal; the epoll_wait that follows wakes at once on a
  // signal whose completion is gone. Then the deadline ends the run.
  driver.start(2, 1);
  ctx.run_until(ctx.now() + msec(5));

  const ReactorStats& stats = ctx.reactor_stats();
  EXPECT_EQ(stats.completions, 1u);
  EXPECT_EQ(stats.stale_wakeups, 1u);
  EXPECT_EQ(stats.spurious_wakeups, 0u);
  EXPECT_GT(stats.timer_wakeups, 0u);
  EXPECT_EQ(stats.wakeups, stats.epoll_waits);

  ctx.remove_driver(&driver);
}

TEST(RealContextEpoll, TimerDeadlinesHoldWhileDriversAreBusy) {
  RealContext ctx;
  EventfdDriver driver;
  ctx.add_driver(&driver);

  // A busy driver that never completes must not block timer delivery: the
  // timerfd in the epoll set bounds every wait by the next deadline.
  driver.expect(1);
  int fired = 0;
  for (int i = 1; i <= 3; ++i) {
    ctx.schedule_after(msec(2) * i, [&fired] { ++fired; });
  }
  ctx.run_until(ctx.now() + msec(10));
  EXPECT_EQ(fired, 3);

  // Completing the outstanding I/O lets run() terminate.
  driver.complete(1);
  ctx.run();
  EXPECT_EQ(driver.delivered, 1u);
  EXPECT_EQ(ctx.reactor_stats().spurious_wakeups, 0u);

  ctx.remove_driver(&driver);
}

}  // namespace
}  // namespace sst::exec
