#include "core/host_cpu.hpp"

#include <algorithm>

namespace sst::core {

void HostCpu::execute(SimTime cost, exec::TaskFn fn) {
  const SimTime start = std::max(sim_.now(), free_at_);
  const SimTime end = start + cost;
  free_at_ = end;
  ++stats_.operations;
  stats_.busy_time += cost;
  sim_.schedule_at(end, std::move(fn));
}

}  // namespace sst::core
