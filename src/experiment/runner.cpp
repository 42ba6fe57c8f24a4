// The one experiment pipeline: plan_cells() cuts the deployment into
// cells, every stream homed on the cell that owns its device with its
// global ordinal and seed; run_cells() builds, runs and harvests each cell
// through the backend's CellRunner on its own thread with no barrier; and
// merge_cells() folds the outcomes. No request crosses cells.
//
// Simulated cells: `sim.shards` when it asks for more than one; one per
// usable CPU when splits_exactly() finds nothing that couples the
// controllers, since such cells return exactly what one Simulator would;
// otherwise one. They get a thread each up to the usable CPUs; on a sweep
// worker they run in order on that worker, since the sweep already keeps
// every CPU busy. Real cells, one per reactor, always get a thread each:
// they run together in wall time.
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

/// A simulated cell's model: its simulator and the cell built on it.
struct SimModel final : CellModel {
  sim::Simulator simulator;
  std::unique_ptr<Cell> cell;
};

/// The simulation's CellRunner.
CellOutcome run_sim_cell(const ExperimentConfig& config, CellPlan plan,
                         std::unique_ptr<CellModel>& model) {
  auto owned = std::make_unique<SimModel>();
  SimModel& built = *owned;
  model = std::move(owned);
  sim::Simulator& simulator = built.simulator;
  built.cell = std::make_unique<Cell>(simulator, config, std::move(plan));
  Cell& cell = *built.cell;
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

/// Run every cell of `plans` through `run_cell` on `threads` threads, the
/// calling thread among them: thread t runs cells t, t + threads, ... in
/// order into `outcomes`. Once every cell is harvested, the calling thread
/// folds the outcomes with merge_cells(), and only then does each thread
/// tear its cells' models down, in parallel: a teardown frees thousands of
/// small blocks, and the first large allocation after one pays for
/// consolidating them (about 50 us of a 0.5 ms sim_staged set-up call).
/// A model is torn down on the thread that built it, which a ring opened
/// with IORING_SETUP_SINGLE_ISSUER requires. Rethrows what the lowest
/// failing cell threw.
ExperimentResult run_cells(const ExperimentConfig& config, std::vector<CellPlan> plans,
                           std::uint32_t threads, const CellRunner& run_cell,
                           std::vector<CellOutcome>& outcomes) {
  const auto count = static_cast<std::uint32_t>(plans.size());
  outcomes.resize(count);
  std::vector<std::unique_ptr<CellModel>> models(count);
  std::vector<std::exception_ptr> failures(count);
  std::latch harvested(threads);
  std::latch merged(1);
  const auto run_share = [&](std::uint32_t first) {
    for (std::uint32_t k = first; k < count; k += threads) {
      try {
        outcomes[k] = run_cell(std::move(plans[k]), models[k]);
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

bool splits_exactly(const ExperimentConfig& config) {
  const io::StackSpec& stack = config.topology.stack;
  return config.backend.kind == BackendConfig::Kind::kSim && config.shards <= 1 &&
         !config.scheduler.has_value() && !stack.network.has_value() &&
         stack.raid.kind != io::RaidSpec::Kind::kStripe && !stack.fault.enabled() &&
         config.tracer == nullptr && config.flight == nullptr && config.sample_interval == 0;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  std::vector<CellOutcome> cells;
  if (config.backend.kind == BackendConfig::Kind::kReal) {
    const CellRunner run_cell = real_cell_runner(config);
    // A file slice has no controller: plan over one physical device per
    // controller, so reactors split at device boundaries.
    node::TopologySpec topology = config.topology;
    topology.node.num_controllers = topology.node.total_disks();
    topology.node.disks_per_controller = 1;
    std::vector<CellPlan> plans = plan_cells(config, topology, config.backend.reactors);
    // Reactors run together in wall time: one thread each, never capped by
    // the CPUs and never in order on a sweep worker.
    const auto reactors = static_cast<std::uint32_t>(plans.size());
    ExperimentResult result = run_cells(config, std::move(plans), reactors, run_cell, cells);
    result.reactor_summary.reactors = reactors;
    result.reactor_summary.requested = std::max(1U, config.backend.reactors);
    return result;
  }

  const std::uint32_t cpus = usable_cpus();
  const bool exact = splits_exactly(config);
  std::vector<CellPlan> plans = plan_cells(config, config.topology, exact ? cpus : config.shards);
  const auto count = static_cast<std::uint32_t>(plans.size());
  const CellRunner run_cell = [&config](CellPlan plan, std::unique_ptr<CellModel>& model) {
    return run_sim_cell(config, std::move(plan), model);
  };
  ExperimentResult result = run_cells(config, std::move(plans),
                                      on_sweep_worker() ? 1 : std::min(count, cpus), run_cell, cells);

  // An exact split reports one cell: its result is the one Simulator's.
  if (!exact && count > 1) {
    ShardSummary& summary = result.shard_summary;
    summary.shards = count;
    summary.requested = config.shards;
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
