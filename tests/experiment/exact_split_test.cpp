// Exact splits: a simulated run whose controllers share nothing returns, on
// any number of cells, exactly what one sim::Simulator over the whole node
// returns. The reference is that one Simulator with one Cell, assembled
// from the public cell API. Every feature that couples the controllers or
// journals across them keeps the run in one cell, and a run on a sweep
// worker starts no threads of its own.
#include <gtest/gtest.h>

#include <sched.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/cell.hpp"
#include "experiment/runner.hpp"
#include "experiment/sharding.hpp"
#include "experiment/sweep.hpp"
#include "experiment/thread_watch.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace sst::experiment {
namespace {

/// One sim::Simulator and one Cell over the whole node.
ExperimentResult one_simulator(const ExperimentConfig& config) {
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
  cells[0].part.sim_wheel_cascades = simulator.wheel_cascades();
  return merge_cells(config, cells);
}

/// Raw streams over `controllers` controllers of two disks in 2-way mirror
/// groups (one group per controller), one stream in four writing, jittered
/// think times so every stream's seed matters, attribution and an SLO.
ExperimentConfig uncoupled_config(std::uint32_t controllers, std::uint32_t streams) {
  ExperimentConfig ec;
  ec.topology.node.num_controllers = controllers;
  ec.topology.node.disks_per_controller = 2;
  ec.topology.stack.raid.kind = io::RaidSpec::Kind::kMirror;
  ec.topology.stack.raid.mirror_ways = 2;
  ec.streams = workload::make_uniform_streams(streams, ec.topology.logical_device_count(),
                                              ec.topology.logical_device_capacity(), 64 * KiB);
  for (std::size_t i = 0; i < ec.streams.size(); ++i) {
    if (i % 4 == 3) ec.streams[i].op = IoOp::kWrite;
    ec.streams[i].think_jitter = msec(1);
  }
  ec.warmup = msec(200);
  ec.measure = msec(800);
  ec.attribution = true;
  ec.slo.objective = msec(50);
  ec.slo.quantile = 0.99;
  ec.slo.window = msec(200);
  return ec;
}

/// to_json() apart from what counts cells: sim.wheel_cascades (summed per
/// cell) and the sim.shard_* group a sharded run reports.
std::string model_json(ExperimentResult result) {
  result.sim_wheel_cascades = 0;
  result.shard_summary = {};
  return result.to_json();
}

TEST(ExactSplit, EveryCellCountReturnsTheOneSimulatorResult) {
  const ExperimentConfig config = uncoupled_config(4, 32);
  ASSERT_TRUE(splits_exactly(config));
  const ExperimentResult reference = one_simulator(config);
  ASSERT_GT(reference.requests_completed, 0u);
  ASSERT_GT(reference.mirror_stats.writes, 0u);
  ASSERT_GT(reference.breakdown.attributed, 0u);
  ASSERT_TRUE(reference.slo_report.enabled);
  const std::string expected = model_json(reference);

  // Split by itself into a cell per usable CPU, reported as one.
  ExperimentResult automatic = run_experiment(config);
  EXPECT_EQ(automatic.shard_summary.shards, 1u);
  automatic.sim_wheel_cascades = 0;
  EXPECT_EQ(automatic.to_json(), expected) << "automatic split";

  for (const std::uint32_t shards : {2u, 3u, 4u}) {
    ExperimentConfig sharded = config;
    sharded.shards = shards;
    const ExperimentResult result = run_experiment(sharded);
    EXPECT_EQ(result.shard_summary.shards, shards);
    EXPECT_EQ(model_json(result), expected) << shards << " cells";
  }
}

/// A feature that couples the controllers keeps the run in one cell: the
/// predicate refuses the split, and the run returns the one Simulator's
/// result to the last counter, wheel cascades included, which a split into
/// several cells changes.
void expect_one_cell(const ExperimentConfig& config) {
  EXPECT_FALSE(splits_exactly(config));
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.requests_completed, 0u);
  EXPECT_EQ(result.to_json(), one_simulator(config).to_json());
}

TEST(ExactSplit, SchedulerKeepsOneCell) {
  ExperimentConfig config = uncoupled_config(4, 32);
  core::SchedulerParams params;
  params.read_ahead = 256 * KiB;
  params.memory_budget = 64 * MiB;
  config.scheduler = params;
  expect_one_cell(config);
}

TEST(ExactSplit, NetworkLinkKeepsOneCell) {
  ExperimentConfig config = uncoupled_config(4, 32);
  config.topology.stack.network = net::LinkParams{};
  expect_one_cell(config);
}

TEST(ExactSplit, StripeKeepsOneCell) {
  ExperimentConfig config = uncoupled_config(4, 8);
  config.topology.stack.raid = {};
  config.topology.stack.raid.kind = io::RaidSpec::Kind::kStripe;
  config.streams = workload::make_uniform_streams(
      8, 1, config.topology.logical_device_capacity(), 64 * KiB);
  expect_one_cell(config);
}

TEST(ExactSplit, FaultInjectionKeepsOneCell) {
  ExperimentConfig config = uncoupled_config(4, 32);
  config.topology.stack.fault.media_error_rate = 0.01;
  expect_one_cell(config);
}

TEST(ExactSplit, TracerKeepsOneCell) {
  obs::Tracer tracer;
  ExperimentConfig config = uncoupled_config(4, 32);
  config.tracer = &tracer;
  expect_one_cell(config);
}

TEST(ExactSplit, FlightRecorderKeepsOneCell) {
  obs::FlightRecorder flight(1024);
  ExperimentConfig config = uncoupled_config(4, 32);
  config.flight = &flight;
  expect_one_cell(config);
}

TEST(ExactSplit, SamplingKeepsOneCell) {
  ExperimentConfig config = uncoupled_config(4, 32);
  config.sample_interval = msec(100);
  expect_one_cell(config);
}

TEST(ExactSplit, RealBackendIsNotSplitBySimulation) {
  ExperimentConfig config = uncoupled_config(4, 32);
  config.backend.kind = BackendConfig::Kind::kReal;
  EXPECT_FALSE(splits_exactly(config));
}

TEST(ExactSplit, RequestedShardsGiveThatManyCells) {
  ExperimentConfig config = uncoupled_config(4, 32);
  config.shards = 2;
  EXPECT_FALSE(splits_exactly(config));
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.shard_summary.shards, 2u);
  EXPECT_EQ(result.shard_summary.requested, 2u);
}

// A cell that throws ends the run with its exception once every other
// cell's thread has finished: a stream on a device no cell owns fails the
// first cell's client set-up, on the calling thread, while the other cells
// run on theirs.
TEST(ExactSplit, AFailingCellThrowsToTheCaller) {
  ExperimentConfig config = uncoupled_config(4, 32);
  config.streams.back().device = config.topology.logical_device_count();
  EXPECT_THROW((void)run_experiment(config), std::out_of_range);
  config.shards = 4;
  EXPECT_THROW((void)run_experiment(config), std::out_of_range);
}

std::uint32_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return ::sched_getaffinity(0, sizeof(set), &set) == 0
             ? static_cast<std::uint32_t>(CPU_COUNT(&set))
             : std::thread::hardware_concurrency();
}

TEST(ExactSplit, RunHoldsNoMoreThreadsThanUsableCpus) {
  ASSERT_GT(process_threads(), 0u) << "no /proc/self/status";
  const ExperimentConfig config = uncoupled_config(16, 128);
  // The calling thread runs a cell itself.
  EXPECT_LE(threads_added_during([&config] { (void)run_experiment(config); }),
            usable_cpus() - 1);
}

TEST(ExactSplit, SweepWorkersRunCellsInOrder) {
  ASSERT_GT(process_threads(), 0u) << "no /proc/self/status";
  std::vector<ExperimentConfig> grid;
  for (const std::uint32_t streams : {16u, 32u, 48u, 64u}) {
    ExperimentConfig config = uncoupled_config(8, streams);
    config.slo = {};
    grid.push_back(config);
  }
  constexpr unsigned kWorkers = 2;
  std::vector<ExperimentResult> swept;
  EXPECT_LE(threads_added_during([&grid, &swept] { swept = run_sweep(grid, kWorkers); }),
            kWorkers)
      << "a run on a sweep worker started threads";

  ASSERT_EQ(swept.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(swept[i].to_json(), run_experiment(grid[i]).to_json()) << "point " << i;
  }
}

}  // namespace
}  // namespace sst::experiment
