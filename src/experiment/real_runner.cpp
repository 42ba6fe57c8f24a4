// The real backend's CellRunner: what only a real cell has. Each cell runs
// on a RealContext (its reactor) over one io_uring ring per device, opened
// on a slice of the backing file; run_experiment() plans and runs the cells
// like simulated ones and merge_cells() folds their ring and reactor
// counters. Beyond the cell, the runner validates the config, slices the
// backing file, pre-warms and registers the fixed buffers, drains the rings
// and measures the reactor's CPU.
//
// The cells stack fault injection, retry and raid over the rings exactly as
// over simulated disks. Only the simulated network link and sim.shards > 1
// are rejected: a modelled link would add fictional delay to a wall-clock
// run.
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "experiment/cell.hpp"

#if defined(SST_WITH_URING)
#include <sys/stat.h>

#include <algorithm>
#include <ctime>

#include "blockdev/uring_block_device.hpp"
#include "common/counters.hpp"
#include "exec/real_context.hpp"
#endif

namespace sst::experiment {

bool real_backend_available() {
#if defined(SST_WITH_URING)
  return true;
#else
  return false;
#endif
}

#if !defined(SST_WITH_URING)

CellRunner real_cell_runner(const ExperimentConfig& config) {
  (void)config;
  throw std::runtime_error(
      "backend.kind=real requires a build with -DSST_WITH_URING=ON");
}

#else

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error("backend.kind=real: " + what);
}

void validate(const ExperimentConfig& config) {
  if (config.backend.path.empty()) reject("backend.path is required");
  if (config.shards > 1) reject("sim.shards > 1 is not supported (wall-clock runs are not sharded)");
  if (config.topology.stack.network.has_value()) {
    reject("the simulated network link would add modelled delay to a wall-clock run");
  }
}

/// CPU time the calling thread has used, in nanoseconds.
SimTime thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<SimTime>(ts.tv_sec) * 1'000'000'000ULL + static_cast<SimTime>(ts.tv_nsec);
}

/// A real cell's model. Members are destroyed in reverse order: the cell
/// first, then the rings, then the context.
struct RealModel final : CellModel {
  exec::RealContext ctx;
  std::vector<std::unique_ptr<blockdev::UringBlockDevice>> rings;
  std::unique_ptr<Cell> cell;
};

/// Run one reactor's cell start to finish on this thread:
/// IORING_SETUP_SINGLE_ISSUER binds each ring to the thread that opened it,
/// and run_cells() tears the model down on this thread too.
CellOutcome run_real_cell(const ExperimentConfig& config, Bytes slice, CellPlan plan,
                          std::unique_ptr<CellModel>& model) {
  auto owned = std::make_unique<RealModel>();
  RealModel& built = *owned;
  model = std::move(owned);
  exec::RealContext& ctx = built.ctx;
  auto& rings = built.rings;
  for (std::uint32_t i = 0; i < plan.slice.dev_count; ++i) {
    const std::uint32_t global = plan.slice.dev_begin + i;
    blockdev::UringParams params;
    params.path = config.backend.path;
    params.base_offset = static_cast<ByteOffset>(global) * slice;
    params.capacity = slice;
    params.queue_depth = config.backend.queue_depth;
    params.direct = config.backend.direct;
    params.label = "uring" + std::to_string(global);
    // Several rings are multiplexed through epoll (registered eventfd, no
    // taskrun flags); a sole ring is fastest with the reactor inside it.
    params.multiplex = plan.slice.dev_count > 1;
    auto ring = blockdev::UringBlockDevice::open(ctx, params);
    if (!ring.ok()) reject(ring.error().message);
    plan.devices.push_back(ring.value().get());
    rings.push_back(std::move(ring).value());
  }
  built.cell = std::make_unique<Cell>(ctx, config, std::move(plan));
  Cell& cell = *built.cell;

  if (core::StorageServer* server = cell.server()) {
    // Pre-warm the extent slab to the steady-state working set and register
    // it with every ring: requests whose buffers land in these extents use
    // fixed (pre-pinned) buffers. Best-effort — registration failure (e.g.
    // locked-memory limits) just means plain READ/WRITE ops.
    core::BufferPool& pool = server->scheduler().pool();
    {
      std::vector<std::unique_ptr<core::IoBuffer>> warm;
      for (std::uint32_t i = 0; i < config.backend.queue_depth; ++i) {
        auto buffer = pool.allocate(0, 0, config.scheduler->read_ahead, ctx.now());
        if (buffer == nullptr) break;
        warm.push_back(std::move(buffer));
      }
    }
    const auto regions = pool.extent_slab().regions();
    for (const auto& ring : rings) (void)ring->register_buffers(regions);
  }

  cell.start();
  ctx.run_until(config.warmup);
  cell.begin_measurement();
  const SimTime t0 = ctx.now();
  const SimTime cpu0 = thread_cpu_ns();
  const SimTime t1 = t0 + config.measure;
  ctx.run_until(t1);
  const SimTime cpu_used = thread_cpu_ns() - cpu0;
  const SimTime ran = ctx.now() - t0;  // run_until returns at or just past t1

  // Stop admitting work, then drain every ring, and every read-ahead issue
  // the host CPU model still defers to the next reactor turn (the model
  // costs nothing on a real cell, so that is all it holds back), before
  // the cell goes away: completion callbacks capture its clients, scratch
  // buffers and attributor. The wait has no bound — a real one needs
  // per-I/O cancellation, which the rings do not have yet (ROADMAP.md
  // item 2). A request parked in a fault spike or retry backoff timer is
  // in no ring: its closure is destroyed unfired with the context, after
  // the cell, so no completion closure may own memory it returns to the
  // cell.
  cell.close();
  const core::HostCpu* cpu = cell.server() ? &cell.server()->scheduler().cpu() : nullptr;
  for (;;) {
    const SimTime now = ctx.now();
    ctx.run_until(now);  // fires every task due by `now`
    std::size_t in_flight = 0;
    for (const auto& ring : rings) in_flight += ring->in_flight();
    if (in_flight == 0 && (cpu == nullptr || cpu->free_at() <= now)) break;
    ctx.run_until(now + msec(5));
  }

  CellOutcome out = cell.harvest(t0, t1);
  ExperimentResult& part = out.part;
  part.sim_events_dispatched = ctx.executed_tasks();
  // The reactor's measured CPU share of the window replaces the model's
  // figure. The thread CPU clock and the monotonic clock may drift apart
  // by parts per million, so a saturated reactor is held at 1.
  part.host_cpu_utilization =
      ran > 0 ? std::min(1.0, static_cast<double>(cpu_used) / static_cast<double>(ran)) : 0.0;
  UringSummary& uring = part.uring_summary;
  uring.enabled = true;
  uring.devices = static_cast<std::uint32_t>(rings.size());
  for (const auto& ring : rings) {
    const blockdev::UringStats stats = ring->stats();
    fold_counters(uring, stats);
    uring.per_device_completed.push_back(stats.completed);
    uring.per_device_setup_flags.push_back(ring->setup_flags());
    if (ring->using_direct()) ++uring.direct_devices;
  }
  part.reactor_summary.enabled = true;
  fold_counters(part.reactor_summary, ctx.reactor_stats());
  return out;
}

}  // namespace

CellRunner real_cell_runner(const ExperimentConfig& config) {
  validate(config);
  // Carve the backing file into one equal, 4096-aligned slice per physical
  // device — the real counterpart of "N disks".
  const std::uint32_t device_count = config.topology.node.total_disks();
  struct stat st{};
  if (::stat(config.backend.path.c_str(), &st) != 0) {
    reject("cannot stat " + config.backend.path + ": " + std::string(strerror(errno)));
  }
  const Bytes slice = static_cast<Bytes>(st.st_size) / device_count / 4096 * 4096;
  if (slice == 0) {
    reject(config.backend.path + " is too small for " + std::to_string(device_count) +
           " device slices");
  }
  return [&config, slice](CellPlan plan, std::unique_ptr<CellModel>& model) {
    return run_real_cell(config, slice, std::move(plan), model);
  };
}

#endif  // SST_WITH_URING

}  // namespace sst::experiment
