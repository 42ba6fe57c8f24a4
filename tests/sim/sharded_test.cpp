// ShardedEngine: conservative-lookahead barrier, mailbox protocol, and the
// determinism contract. The horizon cases pin the delivery semantics for
// cross-shard events landing exactly at, just after, and (contract
// violation) just before the lookahead horizon: global timestamp order is
// preserved and same-timestamp ties break by the receiver's deterministic
// sequence numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/sharded.hpp"

namespace sst::sim {
namespace {

constexpr SimTime kLookahead = usec(100);

struct LogEntry {
  SimTime at = 0;
  std::string label;

  bool operator==(const LogEntry& other) const {
    return at == other.at && label == other.label;
  }
};

TEST(ShardedEngine, SingleShardIsPlainPassthrough) {
  ShardedEngine engine(1, 0);
  std::vector<LogEntry> log;
  Simulator& sim = engine.shard(0);
  sim.schedule_at(usec(5), [&]() { log.push_back({sim.now(), "b"}); });
  sim.schedule_at(usec(1), [&]() { log.push_back({sim.now(), "a"}); });
  engine.run_until(usec(10));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (LogEntry{usec(1), "a"}));
  EXPECT_EQ(log[1], (LogEntry{usec(5), "b"}));
  EXPECT_EQ(engine.stats().windows, 0u);
  EXPECT_EQ(engine.stats().cross_shard_events, 0u);
  EXPECT_EQ(engine.now(), usec(10));
}

TEST(ShardedEngine, CrossShardDeliveryLandsAtExactTimestamp) {
  ShardedEngine engine(2, kLookahead);
  std::vector<LogEntry> log;
  Simulator& receiver = engine.shard(0);
  // Sender event at t=30us posts delivery at exactly t + L.
  engine.shard(1).schedule_at(usec(30), [&]() {
    const SimTime when = engine.shard(1).now() + kLookahead;
    engine.post(1, 0, when, [&]() { log.push_back({receiver.now(), "x"}); });
  });
  engine.run_until(usec(300));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (LogEntry{usec(130), "x"}));
  EXPECT_EQ(engine.stats().cross_shard_events, 1u);
  EXPECT_EQ(engine.stats().horizon_violations, 0u);
}

// The three horizon cases in one scenario. Sender (shard 1) runs an event
// at exactly a window start W and posts three messages:
//   at:     when = W + L       — exactly the horizon: legal minimum
//   after:  when = W + L + 1ns — just past the horizon: legal
//   before: when = W + L - 1ns — just inside the window: violates the
//           contract, clamped to the barrier time W + L and counted
// The receiver also schedules its own local events at W + L - 1ns and
// W + L, bracketing the deliveries. Expected global order: the local
// W+L-1ns event, then the three W+L events in deterministic tie-break
// order — local first (its sequence number was assigned during the
// window), then mailbox deliveries in fixed drain order (at, after was
// posted later so its clamp... 'after' fires last at W+L+1ns).
TEST(ShardedEngine, HorizonEdgesPreserveOrderAndTieBreak) {
  ShardedEngine engine(2, kLookahead);
  const SimTime window_start = 0;  // first window: W = 0
  const SimTime horizon = window_start + kLookahead;
  std::vector<LogEntry> log;
  Simulator& receiver = engine.shard(0);
  const auto record = [&](const char* label) {
    return [&log, &receiver, label]() { log.push_back({receiver.now(), label}); };
  };
  receiver.schedule_at(horizon - 1, record("local-before"));
  receiver.schedule_at(horizon, record("local-at"));
  engine.shard(1).schedule_at(window_start, [&]() {
    engine.post(1, 0, horizon, record("msg-at"));
    engine.post(1, 0, horizon + 1, record("msg-after"));
    engine.post(1, 0, horizon - 1, record("msg-before"));  // violation
  });
  engine.run_until(usec(300));

  ASSERT_EQ(log.size(), 5u);
  // Global timestamp order holds; the violating message was clamped to the
  // barrier (horizon), never delivered into the receiver's past.
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].at, log[i].at) << "timestamp order broken at " << i;
  }
  EXPECT_EQ(log[0], (LogEntry{horizon - 1, "local-before"}));
  // Tie-break at the horizon: the receiver's own event got its sequence
  // number first (scheduled before the barrier drain), then the mailbox
  // envelopes in their posted (FIFO) order.
  EXPECT_EQ(log[1], (LogEntry{horizon, "local-at"}));
  EXPECT_EQ(log[2], (LogEntry{horizon, "msg-at"}));
  EXPECT_EQ(log[3], (LogEntry{horizon, "msg-before"}));  // clamped up
  EXPECT_EQ(log[4], (LogEntry{horizon + 1, "msg-after"}));
  EXPECT_EQ(engine.stats().horizon_violations, 1u);
  EXPECT_EQ(engine.stats().cross_shard_events, 3u);
}

TEST(ShardedEngine, DeliveryAtFinalDeadlineStillExecutes) {
  // Simulator::run_until is deadline-inclusive; the barrier loop repeats
  // the final window so a message landing exactly at the deadline runs.
  ShardedEngine engine(2, kLookahead);
  std::vector<LogEntry> log;
  const SimTime deadline = usec(200);
  Simulator& receiver = engine.shard(0);
  engine.shard(1).schedule_at(deadline - kLookahead, [&]() {
    engine.post(1, 0, deadline, [&]() { log.push_back({receiver.now(), "edge"}); });
  });
  engine.run_until(deadline);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (LogEntry{deadline, "edge"}));
}

// Shards 1 and 2 both stream messages into shard 0 at identical
// timestamps; shard 0 relays every delivery back out. Exercises multiple
// windows, contending same-timestamp deliveries from different senders,
// and posts made from inside shard events. Each shard records into its own
// log (shards may run concurrently; sharing one vector would be a race).
std::vector<std::vector<LogEntry>> run_ping_pong() {
  ShardedEngine engine(3, kLookahead);
  std::vector<std::vector<LogEntry>> logs(3);
  // Each sender emits 4 messages spaced half a window apart.
  for (std::uint32_t sender : {1u, 2u}) {
    for (int i = 0; i < 4; ++i) {
      const SimTime at = i * kLookahead / 2;
      engine.shard(sender).schedule_at(at, [&engine, &logs, sender, at]() {
        engine.post(sender, 0, at + kLookahead, [&engine, &logs, sender]() {
          Simulator& rx = engine.shard(0);
          logs[0].push_back({rx.now(), "from" + std::to_string(sender)});
          // Relay onward to the other sender one horizon later.
          const std::uint32_t other = sender == 1 ? 2 : 1;
          engine.post(0, other, rx.now() + engine.lookahead(),
                      [&engine, &logs, other]() {
                        logs[other].push_back({engine.shard(other).now(),
                                               "relay" + std::to_string(other)});
                      });
        });
      });
    }
  }
  engine.run_until(usec(1000));
  return logs;
}

TEST(ShardedEngine, SameTimestampCrossTrafficIsDeterministic) {
  const auto first = run_ping_pong();
  const auto second = run_ping_pong();
  // 8 inbound messages on shard 0, 4 relays to each sender.
  ASSERT_EQ(first[0].size(), 8u);
  ASSERT_EQ(first[1].size(), 4u);
  ASSERT_EQ(first[2].size(), 4u);
  // Identical interleaving on every shard — including ties, where both
  // senders deliver at the same instant and the fixed (receiver, sender)
  // drain order decides.
  EXPECT_EQ(first, second);
  // Per-shard logs are timestamp-ordered (each shard's execution is
  // sequential and time-monotone).
  for (const auto& log : first) {
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_LE(log[i - 1].at, log[i].at);
    }
  }
}

TEST(ShardedEngine, WindowCountMatchesLookahead) {
  ShardedEngine engine(2, kLookahead);
  // Keep both shards busy so every window does work.
  for (int i = 0; i < 20; ++i) {
    engine.shard(0).schedule_at(i * usec(50), []() {});
    engine.shard(1).schedule_at(i * usec(50), []() {});
  }
  engine.run_until(usec(1000));
  EXPECT_EQ(engine.now(), usec(1000));
  EXPECT_EQ(engine.shard(0).now(), usec(1000));
  EXPECT_EQ(engine.shard(1).now(), usec(1000));
  // 1000us / 100us lookahead = 10 windows (no deadline-edge repeats: no
  // cross traffic at all).
  EXPECT_EQ(engine.stats().windows, 10u);
  EXPECT_EQ(engine.stats().cross_shard_events, 0u);
}

TEST(ShardedEngine, OnEachShardRunsOnTheShardsOwnThread) {
  constexpr std::uint32_t kShards = 4;
  ShardedEngine engine(kShards, kLookahead);
  std::vector<std::thread::id> job_thread(kShards);
  std::vector<int> calls(kShards, 0);
  engine.on_each_shard([&](std::uint32_t k) {
    job_thread[k] = std::this_thread::get_id();
    ++calls[k];
    // A job may schedule on its own shard and post from it.
    engine.shard(k).schedule_at(usec(10), []() {});
    engine.post(k, (k + 1) % kShards, kLookahead, []() {});
  });
  std::vector<std::thread::id> event_thread(kShards);
  for (std::uint32_t k = 0; k < kShards; ++k) {
    engine.shard(k).schedule_at(usec(20), [&event_thread, k]() {
      event_thread[k] = std::this_thread::get_id();
    });
  }
  engine.run_until(usec(300));
  EXPECT_EQ(calls, std::vector<int>(kShards, 1));
  EXPECT_EQ(job_thread[0], std::this_thread::get_id());
  for (std::uint32_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(job_thread[k], event_thread[k]) << "shard " << k;
    for (std::uint32_t j = 0; j < k; ++j) EXPECT_NE(job_thread[j], job_thread[k]);
    EXPECT_EQ(engine.shard(k).executed_events(), 3u) << "shard " << k;
  }
  EXPECT_EQ(engine.stats().cross_shard_events, kShards);
  EXPECT_EQ(engine.stats().horizon_violations, 0u);
}

TEST(ShardedEngine, ShardFailuresReachTheCoordinator) {
  ShardedEngine engine(3, kLookahead);
  EXPECT_THROW(engine.on_each_shard([](std::uint32_t k) {
    if (k == 2) throw std::runtime_error("job");
  }),
               std::runtime_error);
  engine.shard(1).schedule_at(usec(150), []() { throw std::runtime_error("event"); });
  EXPECT_THROW(engine.run_until(usec(300)), std::runtime_error);
}

}  // namespace
}  // namespace sst::sim
