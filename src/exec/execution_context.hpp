// Execution-context seam: the clock and deferred-callback service every
// layer above the block-device boundary is written against.
//
// An ExecutionContext provides three things — a now-source, one-shot task
// scheduling at absolute/relative times, and (through the scheduling
// machinery) the thread of control completions are delivered on. The core
// scheduler, staging area, retry/timeout layers, network model, fault
// injector and observability all take an ExecutionContext&, so none of
// them assumes virtual time. Two implementations exist:
//
//  - sim::Simulator (sim/simulator.hpp): the discrete-event engine; `now()`
//    is simulated nanoseconds, and the clock jumps to each task's due time.
//    The class is `final` so direct calls through a Simulator& still
//    devirtualize and inline.
//  - exec::RealContext (exec/real_context.hpp): the wall clock; tasks run
//    from a reactor loop that also polls CompletionDrivers (the io_uring
//    backend) for real I/O completions.
//
// Both keep their tasks in one exec::TimerWheel (exec/timer_wheel.hpp), so
// they fire tasks in the same order: by due time, then scheduling order.
#pragma once

#include <cstdint>
#include <utility>

#include "common/types.hpp"
#include "exec/task_fn.hpp"

namespace sst::exec {

class ExecutionContext;

/// Handle used to cancel a scheduled task. Handles are small value types
/// addressing a context-owned slot by generation, so they stay safely inert
/// after the task fires or is cancelled (the slot's generation moves on).
/// The handle must not outlive the context itself.
class TaskHandle {
 public:
  TaskHandle() = default;

  /// True while the task has neither fired nor been cancelled.
  [[nodiscard]] bool pending() const;

  void cancel();

 private:
  friend class ExecutionContext;
  TaskHandle(ExecutionContext* ctx, std::uint32_t slot, std::uint32_t generation)
      : ctx_(ctx), slot_(slot), generation_(generation) {}

  ExecutionContext* ctx_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class ExecutionContext {
 public:
  ExecutionContext() = default;
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;
  virtual ~ExecutionContext() = default;

  /// The context's current time in nanoseconds: simulated time for
  /// sim::Simulator, wall-clock time since construction for RealContext.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Schedule `fn` to run once at absolute time `when`. Simulated contexts
  /// require `when >= now()`; real contexts clamp a past time to their
  /// timer wheel's cursor, so the task fires on the reactor's next turn,
  /// after every task of the batch that is firing.
  virtual TaskHandle schedule_at(SimTime when, TaskFn fn) = 0;

  /// Schedule `fn` to run `delay` nanoseconds from now.
  TaskHandle schedule_after(SimTime delay, TaskFn fn) {
    return schedule_at(now() + delay, std::move(fn));
  }

 protected:
  /// For implementations: mint a handle addressing their (slot, generation)
  /// task records.
  [[nodiscard]] TaskHandle make_handle(std::uint32_t slot, std::uint32_t generation) {
    return {this, slot, generation};
  }

  /// Handle support: true while (slot, generation) names a live task.
  [[nodiscard]] virtual bool task_pending(std::uint32_t slot,
                                          std::uint32_t generation) const = 0;
  virtual void cancel_task(std::uint32_t slot, std::uint32_t generation) = 0;

 private:
  friend class TaskHandle;
};

inline bool TaskHandle::pending() const {
  return ctx_ != nullptr && ctx_->task_pending(slot_, generation_);
}

inline void TaskHandle::cancel() {
  if (ctx_ != nullptr) ctx_->cancel_task(slot_, generation_);
}

}  // namespace sst::exec
