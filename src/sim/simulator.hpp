// Discrete-event simulation core.
//
// The whole I/O hierarchy (disks, controllers, the host scheduler, workload
// generators) is simulated as callbacks scheduled on one Simulator. The
// simulator owns a clock and an exec::TimerWheel (exec/timer_wheel.hpp),
// the task store RealContext shares: each step collects the batch of events
// due at the wheel's earliest time, jumps the clock there and fires the
// batch. Events at equal timestamps fire in scheduling order, which keeps
// runs deterministic.
//
// Simulator is the simulated implementation of exec::ExecutionContext
// (exec/execution_context.hpp): every layer above the block-device seam
// schedules against the abstract context, and this engine — or the
// wall-clock RealContext — supplies the time base. The class is `final` so
// call sites holding a concrete Simulator& (the engine's own hot loops,
// microbenchmarks) still devirtualize now() and schedule_at.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/types.hpp"
#include "exec/execution_context.hpp"
#include "exec/task_fn.hpp"
#include "exec/timer_wheel.hpp"

namespace sst::sim {

class Simulator final : public exec::ExecutionContext {
 public:
  [[nodiscard]] SimTime now() const override { return now_; }

  /// Schedule `fn` to run at absolute time `when` (must be >= now()).
  exec::TaskHandle schedule_at(SimTime when, exec::TaskFn fn) override {
    assert(when >= now_ && "cannot schedule into the past");
    const exec::TimerWheel::Id id = wheel_.insert(when, std::move(fn));
    return make_handle(id.slot, id.generation);
  }

  /// Schedule `fn` to run `delay` nanoseconds from now.
  exec::TaskHandle schedule_after(SimTime delay, exec::TaskFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Run until the event queue drains or `deadline` is reached, whichever
  /// comes first. Events scheduled exactly at the deadline still run.
  /// Returns the number of events executed. The clock ends at `deadline`
  /// even if the queue drains earlier, so consecutive run_until calls see
  /// contiguous time.
  std::uint64_t run_until(SimTime deadline) {
    std::uint64_t ran = 0;
    if (now_ <= deadline) ran = wheel_.advance(deadline, now_, UINT64_MAX);
    if (now_ < deadline) now_ = deadline;
    return ran;
  }

  /// Run until the event queue drains completely.
  std::uint64_t run() { return wheel_.advance(kSimTimeMax, now_, UINT64_MAX); }

  /// Execute exactly one event if any is pending. Returns false when empty.
  bool step() { return wheel_.advance(kSimTimeMax, now_, 1) == 1; }

  [[nodiscard]] bool empty() const { return wheel_.size() == 0; }
  /// Scheduled-and-not-cancelled events still waiting to fire.
  [[nodiscard]] std::size_t pending_events() const { return wheel_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return wheel_.fired(); }

  /// Events relocated from a higher wheel level toward level 0 as the clock
  /// advanced.
  [[nodiscard]] std::uint64_t wheel_cascades() const { return wheel_.cascades(); }
  /// Events scheduled beyond the wheel horizon into the overflow heap.
  [[nodiscard]] std::uint64_t overflow_events() const { return wheel_.overflowed(); }

 private:
  [[nodiscard]] bool task_pending(std::uint32_t slot,
                                  std::uint32_t generation) const override {
    return wheel_.pending(slot, generation);
  }
  void cancel_task(std::uint32_t slot, std::uint32_t generation) override {
    wheel_.cancel(slot, generation);
  }

  SimTime now_ = 0;
  exec::TimerWheel wheel_;
};

}  // namespace sst::sim
