// experiment::Cell rules that follow from the backend, with no option: a
// real cell runs the host CPU model at zero cost. A MemBlockDevice leaf on a
// RealContext is enough to build a real cell, so these tests need no
// io_uring and run in every build.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "blockdev/mem_block_device.hpp"
#include "exec/real_context.hpp"
#include "experiment/cell.hpp"
#include "workload/generator.hpp"

namespace sst::experiment {
namespace {

TEST(Cell, RealCellsModelNoHostCpu) {
  exec::RealContext ctx;
  blockdev::MemBlockDevice device(ctx, 16 * MiB, 1);
  ExperimentConfig config;
  config.backend.kind = BackendConfig::Kind::kReal;
  core::SchedulerParams sched;
  sched.read_ahead = 256 * KiB;
  sched.memory_budget = 4 * sched.read_ahead;
  config.scheduler = sched;
  CellPlan plan;
  plan.devices.push_back(&device);
  Cell cell(ctx, config, plan);
  const std::vector<workload::StreamSpec> streams =
      workload::make_uniform_streams(4, 1, device.capacity(), 64 * KiB);
  for (std::uint32_t i = 0; i < streams.size(); ++i) {
    cell.add_client(i, streams[i], device.capacity());
  }

  cell.start();
  ctx.run_until(ctx.now() + msec(50));
  cell.close();

  // Every issue and completion still passes through the model, which
  // charges nothing: a real run measures its CPU instead.
  const core::HostCpuStats& cpu = cell.server()->scheduler().cpu().stats();
  EXPECT_GT(cpu.operations, 0u);
  EXPECT_EQ(cpu.busy_time, 0u);
}

}  // namespace
}  // namespace sst::experiment
