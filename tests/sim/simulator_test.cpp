#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace sst::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(usec(30), [&] { order.push_back(3); });
  s.schedule_at(usec(10), [&] { order.push_back(1); });
  s.schedule_at(usec(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(usec(10), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator s;
  SimTime seen = 0;
  s.schedule_at(msec(5), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, msec(5));
  EXPECT_EQ(s.now(), msec(5));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator s;
  SimTime seen = 0;
  s.schedule_at(msec(1), [&] {
    s.schedule_after(msec(2), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, msec(3));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule_at(msec(1), [&] { ++fired; });
  s.schedule_at(msec(10), [&] { ++fired; });
  s.run_until(msec(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), msec(5));
  EXPECT_FALSE(s.empty());
}

TEST(Simulator, RunUntilIncludesEventsExactlyAtDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule_at(msec(5), [&] { ++fired; });
  s.run_until(msec(5));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenQueueDrains) {
  Simulator s;
  s.run_until(sec(1));
  EXPECT_EQ(s.now(), sec(1));
}

TEST(Simulator, ConsecutiveRunUntilSeeContiguousTime) {
  Simulator s;
  s.run_until(msec(10));
  s.schedule_after(msec(5), [] {});
  std::uint64_t ran = s.run_until(msec(20));
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(s.now(), msec(20));
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1, [&] { ++fired; });
  s.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  auto h = s.schedule_at(msec(1), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelUpdatesPendingCount) {
  Simulator s;
  auto h1 = s.schedule_at(1, [] {});
  auto h2 = s.schedule_at(2, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  h1.cancel();
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_FALSE(s.empty());
  h2.cancel();
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator s;
  auto h = s.schedule_at(1, [] {});
  h.cancel();
  h.cancel();
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, HandleNotPendingAfterFire) {
  Simulator s;
  auto h = s.schedule_at(1, [] {});
  s.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // harmless after firing
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 10) s.schedule_after(usec(1), chain);
  };
  s.schedule_at(0, chain);
  s.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.executed_events(), 10u);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator s;
  for (int i = 0; i < 4; ++i) s.schedule_at(i, [] {});
  EXPECT_EQ(s.run(), 4u);
}

TEST(Simulator, DefaultHandleIsInert) {
  exec::TaskHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

TEST(Simulator, StaleHandleDoesNotAffectRecycledSlot) {
  Simulator s;
  int first = 0;
  int second = 0;
  auto h1 = s.schedule_at(1, [&] { ++first; });
  s.run();
  EXPECT_FALSE(h1.pending());
  // The slab recycles h1's slot for the next event; the stale handle must
  // neither observe nor cancel its replacement.
  auto h2 = s.schedule_at(2, [&] { ++second; });
  h1.cancel();
  EXPECT_TRUE(h2.pending());
  s.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Simulator, HandleOutlivesDrainedSimulator) {
  Simulator s;
  auto fired = s.schedule_at(1, [] {});
  auto cancelled = s.schedule_at(2, [] {});
  cancelled.cancel();
  s.run();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(fired.pending());
  EXPECT_FALSE(cancelled.pending());
  fired.cancel();  // both harmless long after the queue drained
  cancelled.cancel();
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Simulator, PendingCountExactUnderMixedCancelAndFire) {
  Simulator s;
  std::vector<exec::TaskHandle> handles;
  for (int i = 0; i < 10; ++i) handles.push_back(s.schedule_at(i + 1, [] {}));
  EXPECT_EQ(s.pending_events(), 10u);
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  EXPECT_EQ(s.pending_events(), 5u);
  EXPECT_TRUE(s.step());  // fires t=2, skipping the cancelled t=1
  EXPECT_EQ(s.now(), 2u);
  EXPECT_EQ(s.pending_events(), 4u);
  handles[1].cancel();  // already fired: no effect on the count
  EXPECT_EQ(s.pending_events(), 4u);
  handles[3].cancel();  // t=4, still pending
  EXPECT_EQ(s.pending_events(), 3u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.executed_events(), 4u);  // t=2 (stepped) + t=6, 8, 10
}

TEST(Simulator, OversizedCallableUsesHeapFallback) {
  Simulator s;
  std::array<std::uint64_t, 32> payload{};  // 256 bytes: past inline storage
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i;
  std::uint64_t sum = 0;
  s.schedule_at(1, [payload, &sum] {
    for (const auto v : payload) sum += v;
  });
  s.run();
  EXPECT_EQ(sum, 496u);
}

TEST(Simulator, CancelOversizedCallableReleasesIt) {
  Simulator s;
  std::array<char, 200> big{};
  auto h = s.schedule_at(1, [big] { (void)big; });
  h.cancel();
  s.run();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.executed_events(), 0u);
}

// ----- timer-wheel structural paths ---------------------------------------

// Beyond 2^48 ns the wheel hands events to the overflow heap; they must
// still fire in time order, interleaved with wheel-resident events.
TEST(Simulator, FarFutureEventsOverflowAndFireInOrder) {
  constexpr SimTime kHorizon = SimTime{1} << 48;
  Simulator s;
  std::vector<int> order;
  s.schedule_at(kHorizon + 500, [&] { order.push_back(3); });
  s.schedule_at(usec(1), [&] { order.push_back(0); });
  s.schedule_at(kHorizon + 100, [&] { order.push_back(2); });
  s.schedule_at(kHorizon - 100, [&] { order.push_back(1); });
  EXPECT_GE(s.overflow_events(), 2u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.now(), kHorizon + 500);
}

// Ties at one timestamp break by scheduling order even when the events
// reached that timestamp through different structures: the overflow heap
// (scheduled from t=0, beyond the horizon) vs. a near-cursor wheel bucket
// (scheduled late, from close by). Regression test for tie-breaking that
// depended on container insertion order.
TEST(Simulator, TiesBreakInSchedulingOrderAcrossStructures) {
  constexpr SimTime kTarget = (SimTime{1} << 48) + 12345;
  Simulator s;
  std::vector<int> order;
  // seq 0: far-future -> overflow heap.
  s.schedule_at(kTarget, [&] { order.push_back(0); });
  // seq 1: stepping stone that schedules the same timestamp from nearby.
  s.schedule_at(kTarget - 1000, [&s, &order] {
    // seq 2: lands in a low wheel level relative to the advanced cursor.
    s.schedule_at(kTarget, [&order] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(s.now(), kTarget);
}

// Events spread across wheel levels cascade toward level 0 as the clock
// advances and still fire in time order.
TEST(Simulator, MultiLevelCascadePreservesOrder) {
  Simulator s;
  std::vector<SimTime> order;
  // Times hitting levels 0..4: 64^L-ish spacings, scheduled scrambled.
  const std::vector<SimTime> times = {3,       70,        5000,      260000,
                                      9000000, 300000000, 200000000, 64};
  std::vector<SimTime> scrambled = {9000000, 3, 260000, 300000000,
                                    70,      5000, 200000000, 64};
  for (const SimTime t : scrambled) {
    s.schedule_at(t, [&order, t] { order.push_back(t); });
  }
  s.run();
  std::vector<SimTime> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(order.size(), sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(order[i], sorted[i]);
  EXPECT_GT(s.wheel_cascades(), 0u);
}

TEST(Simulator, CancelWorksInEveryResidence) {
  constexpr SimTime kHorizon = SimTime{1} << 48;
  Simulator s;
  int fired = 0;
  auto wheel_low = s.schedule_at(10, [&] { ++fired; });
  auto wheel_high = s.schedule_at(usec(500), [&] { ++fired; });
  auto heap = s.schedule_at(kHorizon + 1, [&] { ++fired; });
  EXPECT_EQ(s.pending_events(), 3u);
  wheel_low.cancel();
  wheel_high.cancel();
  heap.cancel();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_TRUE(s.empty());
  s.run();
  EXPECT_EQ(fired, 0);
}

// An event may cancel a peer that shares its timestamp and already sits in
// the dispatch batch; the peer must not fire.
TEST(Simulator, CancelDuringSameTimestampBatch) {
  Simulator s;
  int fired = 0;
  exec::TaskHandle victim;
  s.schedule_at(100, [&] { victim.cancel(); });
  victim = s.schedule_at(100, [&] { ++fired; });
  s.schedule_at(100, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.executed_events(), 2u);
}

// Zero-delay events scheduled while a timestamp's batch is firing join the
// same simulated instant, ordered after the already-collected events.
TEST(Simulator, ZeroDelayFromBatchFiresAtSameInstant) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(50, [&] {
    order.push_back(0);
    s.schedule_after(0, [&s, &order] {
      order.push_back(2);
      EXPECT_EQ(s.now(), 50u);
    });
  });
  s.schedule_at(50, [&] { order.push_back(1); });
  s.run_until(50);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Differential test: the wheel + overflow heap + batch machinery must agree
// with a trivial reference model (stable sort by time then scheduling
// order) across randomized schedule/cancel/run_until rounds, including
// zero delays, shared timestamps, and horizon-crossing jumps.
TEST(Simulator, DifferentialAgainstReferenceModel) {
  struct RefEvent {
    SimTime when;
    std::uint64_t seq;
    int id;
    bool cancelled;
  };
  Simulator s;
  std::vector<RefEvent> ref;
  std::vector<int> fired;
  std::vector<int> ref_fired;
  std::vector<std::size_t> live;  // indices into ref, also holding handles
  std::vector<exec::TaskHandle> handles;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::uint64_t seq = 0;
  int next_id = 0;
  const SimTime horizon = SimTime{1} << 48;

  for (int round = 0; round < 40; ++round) {
    // Schedule a burst with adversarial delays.
    const int burst = 1 + static_cast<int>(next_rand() % 24);
    for (int i = 0; i < burst; ++i) {
      SimTime delay = 0;
      switch (next_rand() % 6) {
        case 0: delay = 0; break;
        case 1: delay = next_rand() % 4; break;  // collide within a bucket
        case 2: delay = next_rand() % 1000; break;
        case 3: delay = next_rand() % msec(1); break;
        case 4: delay = next_rand() % sec(10); break;
        default: delay = horizon + next_rand() % sec(1); break;  // overflow
      }
      const int id = next_id++;
      const SimTime when = s.now() + delay;
      handles.push_back(s.schedule_at(when, [&fired, id] { fired.push_back(id); }));
      ref.push_back(RefEvent{when, seq++, id, false});
      live.push_back(ref.size() - 1);
    }
    // Cancel a random subset of still-live events.
    for (std::size_t i = 0; i < live.size();) {
      if (next_rand() % 5 == 0) {
        handles[i].cancel();
        ref[live[i]].cancelled = true;
        handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(i));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    // Advance: sometimes a bounded window, sometimes to drain.
    const bool drain = next_rand() % 7 == 0;
    const SimTime deadline = drain ? ~SimTime{0} : s.now() + next_rand() % sec(2);
    if (drain) {
      s.run();
    } else {
      s.run_until(deadline);
    }
    // Reference: fire everything due by the deadline in (when, seq) order.
    std::vector<std::size_t> due;
    for (std::size_t i = 0; i < live.size();) {
      const RefEvent& e = ref[live[i]];
      if (!e.cancelled && e.when <= deadline) {
        due.push_back(live[i]);
        handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(i));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    std::sort(due.begin(), due.end(), [&ref](std::size_t a, std::size_t b) {
      if (ref[a].when != ref[b].when) return ref[a].when < ref[b].when;
      return ref[a].seq < ref[b].seq;
    });
    for (const std::size_t i : due) ref_fired.push_back(ref[i].id);
    ASSERT_EQ(fired, ref_fired) << "diverged in round " << round;
    ASSERT_EQ(s.pending_events(), live.size()) << "round " << round;
  }
  s.run();
  EXPECT_GT(s.overflow_events(), 0u);
}

}  // namespace
}  // namespace sst::sim
