// Serializing host-CPU resource. Every scheduler action (issuing a disk
// request, completing a client request) occupies the storage server's CPU
// for a cost that grows with the number of allocated I/O buffers — the
// buffer-management overhead that caps multi-disk throughput when the
// dispatch set is as large as the stream population (paper Fig. 12 vs 13).
//
// The cost is modelled on the sim backend only. A real experiment cell
// zeroes HostOverheadParams, so execute() defers each action to the
// reactor's next turn at no cost (still through schedule_at, keeping the
// scheduler's re-entrancy), and the real runner reports measured CPU.
#pragma once

#include "common/types.hpp"
#include "core/params.hpp"
#include "exec/execution_context.hpp"
#include "exec/task_fn.hpp"

namespace sst::core {

struct HostCpuStats {
  std::uint64_t operations = 0;
  SimTime busy_time = 0;

  [[nodiscard]] double utilization(SimTime elapsed) const {
    return elapsed ? static_cast<double>(busy_time) / static_cast<double>(elapsed) : 0.0;
  }
};

class HostCpu {
 public:
  HostCpu(exec::ExecutionContext& simulator, HostOverheadParams params)
      : sim_(simulator), params_(params) {}

  /// Cost of issuing one disk request with `buffers` live I/O buffers.
  [[nodiscard]] SimTime issue_cost(std::size_t buffers) const {
    return params_.issue_base + params_.per_buffer * static_cast<SimTime>(buffers);
  }

  /// Cost of completing one client request with `buffers` live buffers.
  [[nodiscard]] SimTime complete_cost(std::size_t buffers) const {
    return params_.complete_base + params_.per_buffer * static_cast<SimTime>(buffers);
  }

  /// Occupy the CPU for `cost`, then run `fn`. Work queues FIFO behind
  /// whatever the CPU is already doing.
  void execute(SimTime cost, exec::TaskFn fn);

  [[nodiscard]] const HostCpuStats& stats() const { return stats_; }
  [[nodiscard]] SimTime free_at() const { return free_at_; }

 private:
  exec::ExecutionContext& sim_;
  HostOverheadParams params_;
  SimTime free_at_ = 0;
  HostCpuStats stats_;
};

}  // namespace sst::core
