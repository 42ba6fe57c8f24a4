// The real-I/O runner: one Cell per reactor thread, each on its own
// exec::RealContext over io_uring rings. It adds to the cells what only a
// real run has: validate(), the backing-file slicing, opening the rings,
// pre-warming and registering the fixed buffers, the drain, each reactor's
// measured CPU, and the uring.* / reactor.* counters.
//
// Reactors are planned like sim cells. A file slice has no controller, so
// plan_shards() runs over the topology with one physical device per
// controller: backend.reactors = N splits the devices into up to N
// contiguous groups, a mirror group stays on one reactor and a stripe runs
// on one. Each group is a cell with its own context, rings, scheduler share
// and resident clients on a dedicated thread, and each stream is homed on
// the reactor that owns its device.
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

#include "experiment/runner.hpp"

#if defined(SST_WITH_URING)
#include <sys/stat.h>

#include <algorithm>
#include <ctime>

#include "blockdev/uring_block_device.hpp"
#include "common/counters.hpp"
#include "common/thread_pool.hpp"
#include "exec/real_context.hpp"
#include "experiment/cell.hpp"
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

ExperimentResult run_experiment_real(const ExperimentConfig& config) {
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

/// One ring's counters and setup, read before the ring closes.
struct RingOutcome {
  blockdev::UringStats stats;
  std::uint32_t setup_flags = 0;
  bool direct = false;  ///< the backing fd took O_DIRECT
};

/// One reactor's cell outcome plus what only the real leaf knows.
struct GroupOutcome {
  CellOutcome cell;
  std::vector<RingOutcome> rings;  ///< in device order
  exec::ReactorStats reactor;
  std::string error;  ///< non-empty = the group threw; message to rethrow
};

/// CPU time the calling thread has used, in nanoseconds.
SimTime thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<SimTime>(ts.tv_sec) * 1'000'000'000ULL + static_cast<SimTime>(ts.tv_nsec);
}

/// Run one reactor group start to finish on this thread:
/// IORING_SETUP_SINGLE_ISSUER binds each ring to the thread that opened it,
/// so setup, I/O and teardown all stay here.
GroupOutcome run_reactor_group(const ExperimentConfig& config, CellPlan plan, Bytes slice) {
  GroupOutcome out;
  exec::RealContext ctx;
  std::vector<std::unique_ptr<blockdev::UringBlockDevice>> rings;
  const std::vector<std::uint32_t> streams = std::move(plan.streams);
  const std::uint32_t logical_begin = plan.slice.logical_begin;
  const std::uint32_t dev_begin = plan.slice.dev_begin;
  for (std::uint32_t i = 0; i < plan.slice.dev_count; ++i) {
    const std::uint32_t global = dev_begin + i;
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
  Cell cell(ctx, config, std::move(plan));

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
    for (auto& ring : rings) (void)ring->register_buffers(regions);
  }

  for (const std::uint32_t ordinal : streams) {
    workload::StreamSpec spec = seeded_stream(config, ordinal);
    spec.device -= logical_begin;
    // Stream placements were drawn against the simulated disk's capacity;
    // fold them into the (usually much smaller) real slice, preserving the
    // uniform request-aligned spread.
    const Bytes cap = cell.device_capacity(spec.device);
    const Bytes slots = cap / spec.request_size;
    if (slots == 0) {
      reject("device slice smaller than one request (" +
             std::to_string(spec.request_size) + " bytes)");
    }
    spec.start_offset = spec.start_offset / spec.request_size % slots * spec.request_size;
    if (spec.region_bytes != 0 && spec.start_offset + spec.region_bytes > cap) {
      spec.region_bytes = cap - spec.start_offset;
    }
    cell.add_client(ordinal, spec, cap);
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

  out.cell = cell.harvest(t0, t1);
  out.cell.part.sim_events_dispatched = ctx.executed_tasks();
  // The reactor's measured CPU share of the window replaces the model's
  // figure. The thread CPU clock and the monotonic clock may drift apart
  // by parts per million, so a saturated reactor is held at 1.
  out.cell.part.host_cpu_utilization =
      ran > 0 ? std::min(1.0, static_cast<double>(cpu_used) / static_cast<double>(ran)) : 0.0;
  for (const auto& ring : rings) {
    out.rings.push_back({ring->stats(), ring->setup_flags(), ring->using_direct()});
  }
  out.reactor = ctx.reactor_stats();
  return out;
}

}  // namespace

ExperimentResult run_experiment_real(const ExperimentConfig& config) {
  validate(config);

  // A file slice has no controller: plan over one physical device per
  // controller, so reactors split at device boundaries.
  node::TopologySpec topology = config.topology;
  topology.node.num_controllers = topology.node.total_disks();
  topology.node.disks_per_controller = 1;
  const ShardPlan plan = plan_shards(topology, config.backend.reactors);
  const std::uint32_t reactors = plan.shard_count();

  // Carve the backing file into one equal, 4096-aligned slice per physical
  // device — the real counterpart of "N disks".
  const std::uint32_t device_count = topology.node.num_controllers;
  struct stat st{};
  if (::stat(config.backend.path.c_str(), &st) != 0) {
    reject("cannot stat " + config.backend.path + ": " + std::string(strerror(errno)));
  }
  const auto file_size = static_cast<Bytes>(st.st_size);
  const Bytes slice = file_size / device_count / 4096 * 4096;
  if (slice == 0) {
    reject(config.backend.path + " is too small for " + std::to_string(device_count) +
           " device slices");
  }

  // Home every stream on the reactor owning its device, keeping the global
  // ordinal: seeds and rids key on it, so results are invariant across
  // reactor counts.
  std::vector<CellPlan> groups = plan_cells(config, topology, plan);

  // One pool thread per group. Pool tasks must not throw, so failures are
  // carried out as messages and rethrown here.
  std::vector<GroupOutcome> outcomes(reactors);
  {
    ThreadPool pool(reactors);
    for (std::uint32_t k = 0; k < reactors; ++k) {
      pool.submit([&config, &groups, &outcomes, k, slice]() {
        try {
          outcomes[k] = run_reactor_group(config, std::move(groups[k]), slice);
        } catch (const std::exception& e) {
          outcomes[k].error = e.what();
        }
      });
    }
    pool.wait_idle();
  }
  std::vector<CellOutcome> cells;
  for (GroupOutcome& outcome : outcomes) {
    if (!outcome.error.empty()) throw std::runtime_error(outcome.error);
    cells.push_back(std::move(outcome.cell));
  }

  ExperimentResult result = merge_cells(config, cells);
  UringSummary& uring = result.uring_summary;
  uring.enabled = true;
  uring.devices = device_count;
  ReactorSummary& reactor = result.reactor_summary;
  reactor.enabled = true;
  reactor.reactors = reactors;
  reactor.requested = plan.requested;
  for (const GroupOutcome& outcome : outcomes) {
    for (const RingOutcome& ring : outcome.rings) {
      fold_counters(uring, ring.stats);
      uring.per_device_completed.push_back(ring.stats.completed);
      uring.per_device_setup_flags.push_back(ring.setup_flags);
      if (ring.direct) ++uring.direct_devices;
    }
    fold_counters(reactor, outcome.reactor);
  }
  return result;
}

#endif  // SST_WITH_URING

}  // namespace sst::experiment
