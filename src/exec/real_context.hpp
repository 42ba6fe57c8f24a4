// Wall-clock execution context: the real-I/O counterpart of the simulator.
//
// RealContext runs the same callback graph the simulator runs, but `now()`
// is the monotonic clock (nanoseconds since construction, so time starts at
// zero like a simulation) and scheduled tasks fire from a reactor loop.
// Between due timers the loop drains registered CompletionDrivers — sources
// of asynchronous completions such as the io_uring block device — so I/O
// completions and timer callbacks are delivered on one thread, preserving
// the single-threaded execution model every layer above the block-device
// seam was written against.
//
// The reactor is event-driven, not polling. Each turn it (1) sweeps all
// busy drivers non-blocking — batched devices only write SQEs locally, and
// staged submissions deliberately ride along until a blocking decision so
// completion callbacks coalesce into larger batches — and only when
// nothing was ready (2) blocks: inside the single busy ring (staged
// submissions and the completion wait combined into one io_uring_enter)
// when exactly one eventfd-less driver has I/O in flight, or in one
// epoll_wait over every busy driver's eventfd plus a timerfd armed at the
// wheel's next due time otherwise, flushing every driver's staged batch
// first. Idle contexts (no I/O in flight) sleep exactly until the next
// due time. ReactorStats counts wakeups, and classifies them
// (completion / timer / stale / spurious). A driver publishes a completion
// before it signals its eventfd (an io_uring ring posts the CQE first), so
// a sweep can deliver a completion whose signal lands after the sweep
// drained the eventfd; the next epoll_wait then wakes on that signal with
// nothing left to deliver. Such a wakeup is stale, not spurious: it had a
// cause, only an earlier sweep served it.
//
// Tasks live in an exec::TimerWheel, the simulator's own task store, so
// both contexts fire the same callback graph under the same ordering
// rule. Each reactor turn reads the clock once and fires the batches that
// were due when it began. A task scheduled at now() during the turn waits
// for the next one, after the driver sweep, so a chain of zero-cost tasks
// (a buffer hit, its completion, the client's next request, ...) cannot
// keep the rings unpolled or run past a run_until deadline.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "exec/execution_context.hpp"
#include "exec/timer_wheel.hpp"

namespace sst::exec {

/// A pollable source of asynchronous completions (an io_uring reactor, an
/// eventfd, ...). RealContext drains drivers between timer callbacks.
class CompletionDriver {
 public:
  virtual ~CompletionDriver() = default;

  /// Deliver ready completions, blocking up to `max_wait` nanoseconds when
  /// none are ready yet. Returns the number of completions delivered.
  /// Blocking implementations should flush staged submissions first (and
  /// ideally combine the flush with the wait in one syscall).
  virtual std::size_t poll(SimTime max_wait) = 0;

  /// Operations submitted and not yet completed.
  [[nodiscard]] virtual std::size_t in_flight() const = 0;

  /// Push locally staged submissions toward the kernel. Batched drivers
  /// override this; the default no-op suits drivers that submit eagerly.
  /// Implementations may hold small batches back while enough of their own
  /// work remains in flight (plugging), but must guarantee forward
  /// progress: never return with work staged and nothing in flight.
  /// Returns the number of submissions flushed.
  virtual std::size_t flush() { return 0; }

  /// An fd that becomes readable when completions arrive, or -1 when the
  /// driver cannot be multiplexed. The reactor epolls it when several
  /// drivers are busy at once, draining its readability (an 8-byte
  /// eventfd-style read) before calling poll(0).
  [[nodiscard]] virtual int event_fd() const { return -1; }
};

/// Reactor wakeup accounting, exported as the reactor.* metrics group by
/// the real experiment runner.
struct ReactorStats {
  std::uint64_t wakeups = 0;           ///< blocking waits that returned
  std::uint64_t completion_wakeups = 0;///< returned with completions delivered
  std::uint64_t timer_wakeups = 0;     ///< returned at the armed deadline
  /// Woke on a driver signal whose completions a sweep had delivered.
  std::uint64_t stale_wakeups = 0;
  std::uint64_t spurious_wakeups = 0;  ///< returned early with no cause
  std::uint64_t epoll_waits = 0;       ///< multi-driver epoll_wait blocks
  std::uint64_t inring_waits = 0;      ///< single-driver in-ring blocks
  std::uint64_t idle_sleeps = 0;       ///< no-I/O sleeps until the next timer
  std::uint64_t completions = 0;       ///< completions the reactor delivered

  static constexpr counters::Counter<ReactorStats> kCounters[] = {
      {"wakeups", &ReactorStats::wakeups},
      {"completion_wakeups", &ReactorStats::completion_wakeups},
      {"timer_wakeups", &ReactorStats::timer_wakeups},
      {"stale_wakeups", &ReactorStats::stale_wakeups},
      {"spurious_wakeups", &ReactorStats::spurious_wakeups},
      {"epoll_waits", &ReactorStats::epoll_waits},
      {"inring_waits", &ReactorStats::inring_waits},
      {"idle_sleeps", &ReactorStats::idle_sleeps},
      {"completions", &ReactorStats::completions},
  };
};

class RealContext final : public ExecutionContext {
 public:
  RealContext();
  ~RealContext() override;

  /// Monotonic nanoseconds since construction.
  [[nodiscard]] SimTime now() const override;

  /// Past deadlines are allowed (unlike the simulator): they clamp to the
  /// wheel's cursor, so the task fires on the reactor's next turn, after
  /// the batch that is firing.
  TaskHandle schedule_at(SimTime when, TaskFn fn) override;

  /// Register/unregister a completion source. Drivers must outlive their
  /// registration and are polled in registration order. A driver exposing
  /// an event_fd() is added to the reactor's epoll set.
  void add_driver(CompletionDriver* driver);
  void remove_driver(CompletionDriver* driver);

  /// Run timers and completion drivers until the wall clock reaches
  /// `deadline` (nanoseconds since construction). Tasks due exactly at the
  /// deadline still run, and a completion posted by it is delivered; like
  /// Simulator::run_until, consecutive calls see contiguous time.
  void run_until(SimTime deadline);

  /// Run until no timers are pending and no driver has I/O in flight.
  void run();

  [[nodiscard]] std::size_t pending_tasks() const { return wheel_.size(); }
  [[nodiscard]] std::uint64_t executed_tasks() const { return wheel_.fired(); }
  [[nodiscard]] const ReactorStats& reactor_stats() const { return stats_; }

 private:
  [[nodiscard]] bool task_pending(std::uint32_t slot,
                                  std::uint32_t generation) const override {
    return wheel_.pending(slot, generation);
  }
  void cancel_task(std::uint32_t slot, std::uint32_t generation) override {
    wheel_.cancel(slot, generation);
  }

  /// Fire every batch due at or before the clock read on entry; tasks the
  /// batches schedule at now() wait for the next call. Returns the next
  /// due time (kSimTimeMax when no task is pending).
  SimTime fire_due();
  [[nodiscard]] std::size_t total_in_flight() const;
  /// Flush staged submissions, sweep for ready completions, and block up
  /// to `max_wait` ns for I/O or the deadline (whichever comes first).
  void wait_for_work(SimTime max_wait);
  /// Block in one epoll_wait over every busy driver's eventfd plus the
  /// deadline timerfd. Pre-condition: a non-blocking sweep came up empty.
  void wait_multiplexed(SimTime max_wait);
  /// Consume an eventfd-style readable signal without blocking; returns
  /// the signal count it read (0 when none was pending).
  static std::uint64_t drain_event_fd(int fd);

  std::chrono::steady_clock::time_point epoch_;
  TimerWheel wheel_;
  std::vector<CompletionDriver*> drivers_;
  int epoll_fd_ = -1;  ///< multiplexes driver eventfds + timer_fd_
  int timer_fd_ = -1;  ///< arms the wheel's next due time for epoll
  ReactorStats stats_;
};

}  // namespace sst::exec
