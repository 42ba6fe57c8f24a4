// The single-threaded runner: one Cell on one Simulator, run inline. It
// adds to the cell only the backend dispatch, the seeded clients in spec
// order and the engine's event counters.
#include "experiment/runner.hpp"

#include <vector>

#include "experiment/cell.hpp"
#include "experiment/sharding.hpp"
#include "sim/simulator.hpp"

namespace sst::experiment {

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (config.backend.kind == BackendConfig::Kind::kReal) {
    return run_experiment_real(config);
  }
  if (config.shards > 1) {
    const ShardPlan plan = plan_shards(config.topology, config.shards, config.lookahead);
    // The plan can collapse to one shard (single controller, striping);
    // then the plain engine below is both correct and faster.
    if (plan.shard_count() > 1) return run_experiment_sharded(config, plan);
  }
  sim::Simulator simulator;
  CellPlan plan;
  plan.topology = config.topology;
  Cell cell(simulator, config, std::move(plan));
  for (std::uint32_t i = 0; i < config.streams.size(); ++i) {
    const workload::StreamSpec spec = seeded_stream(config, i);
    cell.add_client(i, spec, cell.device_capacity(spec.device));
  }
  cell.start();
  simulator.run_until(config.warmup);
  cell.begin_measurement();
  const SimTime t0 = simulator.now();
  const SimTime t1 = t0 + config.measure;
  simulator.run_until(t1);

  std::vector<CellOutcome> cells;
  cells.push_back(cell.harvest(t0, t1));
  cells[0].part.sim_events_dispatched = simulator.executed_events();
  ExperimentResult result = merge_cells(config, cells);
  result.sim_wheel_cascades = simulator.wheel_cascades();
  return result;
}

}  // namespace sst::experiment
