// The simulation runner, shaped like run_experiment_real(): the deployment
// cut into cells at controller boundaries, every stream homed on the cell
// that owns its device with its global ordinal and seed, and each cell
// built, run and harvested on its own sim::Simulator and thread with no
// barrier before merge_cells() folds them. No request crosses cells.
//
// How many cells: `sim.shards` when it asks for more than one; one per
// usable CPU when splits_exactly() finds nothing that couples the
// controllers, since such cells return exactly what one Simulator would;
// otherwise one. The cells get a thread each up to the usable CPUs, the
// calling thread running the first; on a sweep worker they run in order on
// that worker, since the sweep already keeps every CPU busy.
#include "experiment/runner.hpp"

#include <sched.h>

#include <algorithm>
#include <exception>
#include <latch>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "experiment/cell.hpp"
#include "experiment/sharding.hpp"
#include "experiment/sweep.hpp"
#include "sim/simulator.hpp"

namespace sst::experiment {

namespace {

/// CPUs this process may run on.
std::uint32_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

/// One cell's model: its simulator and the cell built on it.
struct CellModel {
  sim::Simulator simulator;
  std::unique_ptr<Cell> cell;
};

/// Build `model` from `plan`, run it and harvest it, on the calling thread.
CellOutcome run_cell(const ExperimentConfig& config, CellPlan plan, CellModel& model) {
  sim::Simulator& simulator = model.simulator;
  const std::vector<std::uint32_t> streams = std::move(plan.streams);
  const std::uint32_t logical_begin = plan.slice.logical_begin;
  model.cell = std::make_unique<Cell>(simulator, config, std::move(plan));
  Cell& cell = *model.cell;
  for (const std::uint32_t ordinal : streams) {
    workload::StreamSpec spec = seeded_stream(config, ordinal);
    spec.device -= logical_begin;
    cell.add_client(ordinal, spec, cell.device_capacity(spec.device));
  }
  cell.start();
  simulator.run_until(config.warmup);
  cell.begin_measurement();
  const SimTime t0 = simulator.now();
  const SimTime t1 = t0 + config.measure;
  simulator.run_until(t1);
  CellOutcome out = cell.harvest(t0, t1);
  out.part.sim_events_dispatched = simulator.executed_events();
  out.part.sim_wheel_cascades = simulator.wheel_cascades();
  return out;
}

/// Build, run and harvest every cell of `plans` on `threads` threads, the
/// calling thread among them: thread t runs cells t, t + threads, ... in
/// order into `outcomes`. Once every cell is harvested, the calling thread
/// folds the outcomes with merge_cells(), and only then does each thread
/// tear its cells down, in parallel: a teardown frees thousands of small
/// blocks, and the first large allocation after one pays for consolidating
/// them (about 50 us of a 0.5 ms sim_staged set-up call). Rethrows what the
/// lowest failing cell threw.
ExperimentResult run_cells(const ExperimentConfig& config, std::vector<CellPlan> plans,
                           std::uint32_t threads, std::vector<CellOutcome>& outcomes) {
  const auto count = static_cast<std::uint32_t>(plans.size());
  outcomes.resize(count);
  std::vector<std::unique_ptr<CellModel>> models(count);
  std::vector<std::exception_ptr> failures(count);
  std::latch harvested(threads);
  std::latch merged(1);
  const auto run_share = [&](std::uint32_t first) {
    for (std::uint32_t k = first; k < count; k += threads) {
      try {
        models[k] = std::make_unique<CellModel>();
        outcomes[k] = run_cell(config, std::move(plans[k]), *models[k]);
      } catch (...) {
        failures[k] = std::current_exception();
      }
    }
    harvested.count_down();
  };
  const auto tear_down = [&](std::uint32_t first) {
    for (std::uint32_t k = first; k < count; k += threads) models[k].reset();
  };
  std::vector<std::jthread> workers;
  ExperimentResult result;
  {
    // Lets the workers tear down on every way out of this block, so none
    // waits forever.
    struct Release {
      std::latch& merged;
      ~Release() { merged.count_down(); }
    } release{merged};
    for (std::uint32_t t = 1; t < threads; ++t) {
      workers.emplace_back([&, t] {
        run_share(t);
        merged.wait();
        tear_down(t);
      });
    }
    run_share(0);
    harvested.wait();
    for (const std::exception_ptr& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }
    result = merge_cells(config, outcomes);
  }
  tear_down(0);
  return result;
}

}  // namespace

ShardPlan plan_shards(const node::TopologySpec& topology, std::uint32_t requested) {
  ShardPlan plan;
  plan.requested = std::max<std::uint32_t>(1, requested);

  const std::uint32_t controllers = topology.node.num_controllers;
  const std::uint32_t dpc = topology.node.disks_per_controller;
  std::uint32_t shards = std::min(plan.requested, controllers);
  // One striped volume spans every device: the raid layer is a single
  // coupling point, so striping always runs in one cell.
  if (topology.stack.raid.kind == io::RaidSpec::Kind::kStripe) shards = 1;

  const std::uint32_t mirror_ways =
      topology.stack.raid.kind == io::RaidSpec::Kind::kMirror
          ? topology.stack.raid.mirror_ways
          : 1;
  for (; shards > 1; --shards) {
    // Near-even contiguous controller ranges; accept this count only when
    // no mirror group straddles a boundary.
    bool ok = true;
    for (std::uint32_t k = 0; k < shards && ok; ++k) {
      const std::uint32_t begin = k * controllers / shards;
      const std::uint32_t end = (k + 1) * controllers / shards;
      ok = ((end - begin) * dpc) % mirror_ways == 0;
    }
    if (ok) break;
  }

  for (std::uint32_t k = 0; k < shards; ++k) {
    ShardSlice slice;
    slice.ctrl_begin = k * controllers / shards;
    slice.ctrl_count = (k + 1) * controllers / shards - slice.ctrl_begin;
    slice.dev_begin = slice.ctrl_begin * dpc;
    slice.dev_count = slice.ctrl_count * dpc;
    slice.logical_begin = slice.dev_begin / mirror_ways;
    slice.logical_count = slice.dev_count / mirror_ways;
    plan.slices.push_back(slice);
  }
  return plan;
}

bool splits_exactly(const ExperimentConfig& config) {
  const io::StackSpec& stack = config.topology.stack;
  return config.backend.kind == BackendConfig::Kind::kSim && config.shards <= 1 &&
         !config.scheduler.has_value() && !stack.network.has_value() &&
         stack.raid.kind != io::RaidSpec::Kind::kStripe && !stack.fault.enabled() &&
         config.tracer == nullptr && config.flight == nullptr && config.sample_interval == 0;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (config.backend.kind == BackendConfig::Kind::kReal) {
    return run_experiment_real(config);
  }
  const std::uint32_t cpus = usable_cpus();
  const bool exact = splits_exactly(config);
  const ShardPlan plan = plan_shards(config.topology, exact ? cpus : config.shards);
  std::vector<CellOutcome> cells;
  ExperimentResult result =
      run_cells(config, plan_cells(config, config.topology, plan),
                on_sweep_worker() ? 1 : std::min(plan.shard_count(), cpus), cells);

  // An exact split reports one cell: its result is the one Simulator's.
  if (!exact && plan.shard_count() > 1) {
    ShardSummary& summary = result.shard_summary;
    summary.shards = plan.shard_count();
    summary.requested = plan.requested;
    summary.min_shard_events = ~0ULL;
    for (const CellOutcome& cell : cells) {
      summary.min_shard_events =
          std::min(summary.min_shard_events, cell.part.sim_events_dispatched);
      summary.max_shard_events =
          std::max(summary.max_shard_events, cell.part.sim_events_dispatched);
    }
  }
  return result;
}

}  // namespace sst::experiment
