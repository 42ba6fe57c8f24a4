// Sharded parallel simulation core: N independent Simulators (one per
// device-stack shard, each with its own timer wheel, event slab and clock)
// advanced in lockstep windows by a conservative-lookahead barrier.
//
// Synchronization model (classic conservative parallel DES):
//
//   - Time is cut into windows [W, W + L) where L is the lookahead. Every
//     shard runs its local events up to the window end on its own thread,
//     with no locks: shard 0 on the coordinator (the thread that calls
//     run_until), shard k > 0 on a worker the engine keeps for the whole
//     run. During a window a shard's Simulator and everything it owns are
//     touched only by that thread, and a shard never changes threads, so
//     its working set stays in one core's caches.
//   - Cross-shard interactions go through per-(sender, receiver) FIFO
//     mailboxes via post(). The safety contract is that a message sent at
//     local time t carries a delivery time >= t + L (the interconnect
//     latency *is* the lookahead), so a message produced anywhere inside
//     window [W, W + L) is delivered at or after W + L — never inside the
//     window that produced it.
//   - At the barrier every shard's clock sits at exactly the window end;
//     the coordinator *stages* each mailbox with a buffer swap
//     (O(shards^2) pointer work, independent of traffic) and opens the
//     next window. Each shard then drains its own staged inboxes in a
//     fixed sender order at the top of its window — the per-envelope wheel
//     inserts run in parallel on the receivers instead of serializing on
//     the coordinator. The barrier is two atomic words: the coordinator
//     opens a window by bumping `epoch_` (release), each worker closes it
//     by decrementing `running_` (release), and those edges are the only
//     synchronization the mailboxes need: senders append to `incoming`
//     during a window, the coordinator swaps `incoming`/`ready` between
//     windows, receivers consume `ready` during the next window.
//   - Waiters spin (yielding the core) before they park on the futex: a
//     window lasts from microseconds to a few milliseconds, and waking a
//     parked thread can cost a good part of that on a virtualized host.
//
// Determinism: each shard's intra-window execution is sequential and
// seeded; mailboxes are FIFO per pair and drained in a fixed order, so the
// tie-break sequence numbers assigned at the receiver are reproducible.
// The same seed and shard count always yields the same results — windows,
// event order, everything. A different shard count is a different (but
// equally deterministic) interleaving.
//
// shards == 1 degrades to a plain pass-through around one Simulator with
// no worker and no barrier, byte-identical to using the Simulator directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "exec/task_fn.hpp"
#include "sim/simulator.hpp"

namespace sst::sim {

/// Barrier/mailbox counters for one ShardedEngine run.
struct ShardedStats {
  std::uint64_t windows = 0;             ///< lookahead windows executed
  std::uint64_t cross_shard_events = 0;  ///< mailbox envelopes delivered
  /// Envelopes whose delivery time was already in the receiver's past at
  /// drain time (a violated lookahead contract); they are clamped to the
  /// barrier time instead of dropped. Always 0 for well-formed senders.
  std::uint64_t horizon_violations = 0;
  /// Exported as sim.shard_* when a run shards.
  static constexpr counters::Counter<ShardedStats> kCounters[] = {
      {"shard_windows", &ShardedStats::windows},
      {"shard_cross_events", &ShardedStats::cross_shard_events},
      {"shard_horizon_violations", &ShardedStats::horizon_violations},
  };
};

class ShardedEngine {
 public:
  /// `lookahead` must be > 0 when `shards` > 1; it is both the window
  /// length and the minimum cross-shard latency senders must respect.
  ShardedEngine(std::uint32_t shards, SimTime lookahead);
  /// Stops and joins the workers.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }
  /// The global time floor: every shard's clock is >= now() (exactly ==
  /// between windows).
  [[nodiscard]] SimTime now() const { return now_; }

  [[nodiscard]] Simulator& shard(std::uint32_t index) { return *shards_[index]; }
  [[nodiscard]] const Simulator& shard(std::uint32_t index) const {
    return *shards_[index];
  }

  /// Send an event across shards: `fn` runs on shard `to` at time `when`.
  /// May be called from shard `from`'s executing events during a window, or
  /// from the coordinator thread between windows (setup, drains) — never
  /// from any other shard's context. For `from != to` the contract is
  /// `when >= sender_now + lookahead()`; later deliveries clamp to the
  /// barrier time and count as horizon_violations. `from == to` schedules
  /// directly (an ordinary local event, no mailbox, no lookahead floor).
  void post(std::uint32_t from, std::uint32_t to, SimTime when, exec::TaskFn fn);

  /// Advance every shard to exactly `deadline` (inclusive of events at
  /// `deadline`, like Simulator::run_until), running windows of
  /// `lookahead()` with mailbox drains at each barrier.
  void run_until(SimTime deadline);

  /// Run `fn(k)` for every shard k at once, each on the thread that runs
  /// shard k's windows, and return when every call has. Coordinator only,
  /// between windows. A driver builds, starts, harvests and tears down each
  /// shard's model through it, so that work runs in parallel and each
  /// shard's memory comes from the thread that uses it. `fn(k)` may post
  /// from shard k, as an event of shard k may.
  ///
  /// An exception thrown by `fn(k)`, or by an event during run_until, is
  /// rethrown here (from the lowest such shard) once every shard has
  /// stopped; the engine is then fit only for destruction.
  void on_each_shard(const std::function<void(std::uint32_t)>& fn);

  [[nodiscard]] const ShardedStats& stats() const { return stats_; }
  /// Executed events summed over all shards.
  [[nodiscard]] std::uint64_t executed_events() const;
  [[nodiscard]] std::uint64_t wheel_cascades() const;

 private:
  struct Envelope {
    SimTime when = 0;
    exec::TaskFn fn;
  };

  /// Double-buffered SPSC channel: the sender's worker appends to
  /// `incoming` during a window, the coordinator swaps the buffers at the
  /// barrier, the receiver consumes `ready` during the next window. The
  /// swap recycles buffer capacity, so steady-state traffic allocates
  /// nothing. Each box has its own cache line: the senders into one
  /// receiver append concurrently.
  struct alignas(64) Mailbox {
    std::vector<Envelope> incoming;
    std::vector<Envelope> ready;
  };

  /// Barrier step (coordinator only): swap every non-empty `incoming`
  /// buffer into `ready` for the next window; returns envelopes staged.
  std::size_t stage_mailboxes();
  /// Window step (receiver's thread): schedule every staged envelope for
  /// shard `to` in fixed sender order, clamping deliveries that violate
  /// the lookahead contract to `drain_time` (the barrier they crossed).
  void drain_inbox(std::uint32_t to, SimTime drain_time);
  /// Hand every shard its part of the next step (`job`, or the open window
  /// when null), run shard 0's, wait for the workers, and rethrow what a
  /// shard threw. Coordinator only.
  void dispatch(const std::function<void(std::uint32_t)>* job);
  /// Shard k's part of the step: the job, or else drain its inbox and run
  /// its events up to the window end. An exception is kept in failures_[k].
  void run_step(std::uint32_t k) noexcept;
  /// Body of the worker that owns shard `k` (k > 0): run each window the
  /// coordinator opens until it asks the workers to stop.
  void worker_loop(std::uint32_t k);

  SimTime lookahead_;
  SimTime now_ = 0;
  std::vector<std::unique_ptr<Simulator>> shards_;
  /// mail_[from * shard_count + to]; see Mailbox for the access protocol.
  std::vector<Mailbox> mail_;
  /// Per-receiver horizon-violation counts, folded into stats_ at each
  /// barrier (receivers count concurrently during a window).
  std::vector<std::uint64_t> violations_;
  /// What each shard's last step threw, rethrown by the coordinator.
  std::vector<std::exception_ptr> failures_;
  ShardedStats stats_;

  /// The open window's bounds, the step's job (null for a window), and the
  /// stop request; the coordinator writes them before it bumps `epoch_`.
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  bool stopping_ = false;
  /// Bumped by the coordinator to open a window (or to stop the workers).
  std::atomic<std::uint32_t> epoch_{0};
  /// Workers still running the open window; the last one out wakes the
  /// coordinator if it parked.
  std::atomic<std::uint32_t> running_{0};
  std::vector<std::thread> workers_;  ///< shards 1..n-1; empty for one shard
};

}  // namespace sst::sim
