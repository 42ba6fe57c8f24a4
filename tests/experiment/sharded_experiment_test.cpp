// Sharded runs: cell planning rules, multi-cell determinism (fixed seed +
// shard count => byte-identical metrics across repeated runs), workload
// seed derivation, metric export gating, and the merged tracer /
// time-series surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "experiment/cell.hpp"
#include "experiment/runner.hpp"
#include "experiment/sharding.hpp"
#include "workload/generator.hpp"

namespace sst::experiment {
namespace {

ExperimentConfig sharded_config(std::uint32_t controllers, std::uint32_t disks_per,
                                std::uint32_t streams, std::uint32_t shards) {
  ExperimentConfig ec;
  ec.topology.node.num_controllers = controllers;
  ec.topology.node.disks_per_controller = disks_per;
  core::SchedulerParams params;
  params.dispatch_set_size = streams;
  params.read_ahead = 512 * KiB;
  params.requests_per_residency = 1;
  params.memory_budget = static_cast<Bytes>(streams) * 512 * KiB;
  ec.scheduler = params;
  ec.streams = workload::make_uniform_streams(
      streams, ec.topology.logical_device_count(),
      ec.topology.logical_device_capacity(), 64 * KiB);
  ec.warmup = msec(200);
  ec.measure = msec(800);
  ec.shards = shards;
  return ec;
}

/// The cells plan_cells() cuts `topology` into, with stream i on logical
/// device i.
std::vector<CellPlan> cells_of(const node::TopologySpec& topology, std::uint32_t requested) {
  ExperimentConfig config;
  config.topology = topology;
  config.streams.resize(topology.logical_device_count());
  for (std::uint32_t i = 0; i < config.streams.size(); ++i) config.streams[i].device = i;
  return plan_cells(config, config.topology, requested);
}

TEST(ShardPlanning, ClampsToControllerCount) {
  node::TopologySpec topo;
  topo.node.num_controllers = 2;
  topo.node.disks_per_controller = 4;
  EXPECT_EQ(cells_of(topo, 8).size(), 2u);
  // The run reports the request beside the clamped count.
  const ExperimentResult result = run_experiment(sharded_config(2, 4, 8, 8));
  EXPECT_EQ(result.shard_summary.requested, 8u);
  EXPECT_EQ(result.shard_summary.shards, 2u);
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"shard_requested\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard_count\": 2"), std::string::npos) << json;
}

TEST(ShardPlanning, SlicesAreContiguousAndCoverEverything) {
  node::TopologySpec topo;
  topo.node.num_controllers = 5;  // uneven split over 3 shards
  topo.node.disks_per_controller = 2;
  const std::vector<CellPlan> cells = cells_of(topo, 3);
  ASSERT_EQ(cells.size(), 3u);
  std::uint32_t next_ctrl = 0;
  std::uint32_t next_dev = 0;
  for (const CellPlan& cell : cells) {
    const ShardSlice& slice = cell.slice;
    EXPECT_EQ(slice.ctrl_begin, next_ctrl);
    EXPECT_EQ(slice.dev_begin, next_dev);
    EXPECT_EQ(slice.dev_count, slice.ctrl_count * 2);
    EXPECT_GE(slice.ctrl_count, 1u);
    next_ctrl += slice.ctrl_count;
    next_dev += slice.dev_count;
  }
  EXPECT_EQ(next_ctrl, 5u);
  EXPECT_EQ(next_dev, 10u);
  // Logical ownership maps back to the owning shard: every stream is homed
  // on the cell whose slice holds its device.
  std::uint32_t homed = 0;
  for (const CellPlan& cell : cells) {
    for (const std::uint32_t dev : cell.streams) {
      EXPECT_GE(dev, cell.slice.logical_begin);
      EXPECT_LT(dev, cell.slice.logical_begin + cell.slice.logical_count);
      ++homed;
    }
  }
  EXPECT_EQ(homed, 10u);
}

TEST(ShardPlanning, StripeAlwaysCollapsesToOneShard) {
  node::TopologySpec topo;
  topo.node.num_controllers = 4;
  topo.stack.raid.kind = io::RaidSpec::Kind::kStripe;
  EXPECT_EQ(cells_of(topo, 4).size(), 1u);
}

TEST(ShardPlanning, MirrorGroupsNeverStraddleShards) {
  node::TopologySpec topo;
  topo.node.num_controllers = 2;
  topo.node.disks_per_controller = 2;
  topo.stack.raid.kind = io::RaidSpec::Kind::kMirror;
  // 4-way groups span both controllers: must fall back to one shard.
  topo.stack.raid.mirror_ways = 4;
  EXPECT_EQ(cells_of(topo, 2).size(), 1u);
  // 2-way groups align with controllers: two shards of one group each.
  topo.stack.raid.mirror_ways = 2;
  const std::vector<CellPlan> cells = cells_of(topo, 2);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].slice.logical_count, 1u);
  EXPECT_EQ(cells[1].slice.logical_begin, 1u);
}

TEST(ShardSeeding, ShardsAndStreamsDrawIndependentSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint32_t shard = 0; shard < 8; ++shard) {
    const std::uint64_t shard_seed = shard_workload_seed(0x1234, shard);
    for (std::uint32_t ordinal = 0; ordinal < 16; ++ordinal) {
      seeds.insert(stream_seed(shard_seed, ordinal));
    }
  }
  // All 128 derived seeds distinct — no shared sequence anywhere.
  EXPECT_EQ(seeds.size(), 8u * 16u);
  // Derivation is a pure function of (seed, shard, ordinal).
  EXPECT_EQ(shard_workload_seed(7, 3), shard_workload_seed(7, 3));
  EXPECT_NE(shard_workload_seed(7, 3), shard_workload_seed(8, 3));
}

// Same seed => byte-identical metrics across repeated runs, at every shard
// count, with per-stream randomness (think jitter) active so the derived
// seeds actually matter.
TEST(ShardedExperiment, SameSeedIsDeterministicAcrossShardCounts) {
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    ExperimentConfig ec = sharded_config(4, 1, 8, shards);
    for (auto& spec : ec.streams) spec.think_jitter = msec(2);
    const std::string first = run_experiment(ec).to_json();
    const std::string second = run_experiment(ec).to_json();
    EXPECT_EQ(first, second) << "non-deterministic at shards=" << shards;
  }
}

TEST(ShardedExperiment, FourShardsCompleteWorkAndExportShardMetrics) {
  const ExperimentConfig ec = sharded_config(4, 2, 16, 4);
  const ExperimentResult result = run_experiment(ec);
  EXPECT_GT(result.requests_completed, 0u);
  EXPECT_GT(result.total_mbps, 0.0);
  EXPECT_EQ(result.stream_mbps.size(), 16u);
  EXPECT_EQ(result.shard_summary.shards, 4u);
  EXPECT_EQ(result.shard_summary.requested, 4u);
  EXPECT_GT(result.shard_summary.min_shard_events, 0u);
  EXPECT_GE(result.shard_summary.max_shard_events, result.shard_summary.min_shard_events);
  // Disk traffic reached every shard's slice.
  EXPECT_GT(result.disk_totals.commands, 0u);
  // The registry nests "sim.shard_count" as {"sim": {"shard_count": ...}}.
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"shard_count\""), std::string::npos);
  EXPECT_NE(json.find("\"shard_min_events\""), std::string::npos);
}

TEST(ShardedExperiment, SingleShardExportsNoShardGroup) {
  const ExperimentConfig ec = sharded_config(2, 1, 4, 1);
  const ExperimentResult result = run_experiment(ec);
  EXPECT_EQ(result.shard_summary.shards, 1u);
  EXPECT_EQ(result.to_json().find("\"shard_count\""), std::string::npos);
}

TEST(ShardedExperiment, RequestedShardsBeyondPlanFallBackGracefully) {
  // Striping forces one shard even when many are requested; the run goes
  // through the single-threaded engine and stays shard-metric-free.
  ExperimentConfig ec = sharded_config(4, 1, 4, 4);
  ec.topology.stack.raid.kind = io::RaidSpec::Kind::kStripe;
  ec.streams = workload::make_uniform_streams(
      4, ec.topology.logical_device_count(), ec.topology.logical_device_capacity(),
      64 * KiB);
  const ExperimentResult result = run_experiment(ec);
  EXPECT_EQ(result.shard_summary.shards, 1u);
  EXPECT_GT(result.requests_completed, 0u);
}

TEST(ShardedExperiment, TracerMergesShardStreamsIntoGlobalTracks) {
  obs::Tracer tracer;
  ExperimentConfig ec = sharded_config(2, 2, 8, 2);
  ec.tracer = &tracer;
  const ExperimentResult result = run_experiment(ec);
  EXPECT_EQ(result.shard_summary.shards, 2u);
  ASSERT_GT(tracer.event_count(), 0u);
  // Disk tracks from shard 1's slice must appear at their global ids
  // (slice-local disk 0 remaps to global disk 2 => track 0x102).
  bool saw_shard1_disk = false;
  for (const auto& event : tracer.events()) {
    if (event.tid >= 0x102 && event.tid < 0x100 + 4) saw_shard1_disk = true;
  }
  EXPECT_TRUE(saw_shard1_disk);
}

TEST(ShardedExperiment, TimeSeriesMergesAllShards) {
  ExperimentConfig ec = sharded_config(2, 1, 4, 2);
  ec.sample_interval = msec(100);
  const ExperimentResult result = run_experiment(ec);
  ASSERT_FALSE(result.timeseries.empty());
  const auto& names = result.timeseries.names;
  const auto has = [&names](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("mbps"));  // row-wise sum of the per-shard client gauges
  EXPECT_TRUE(has("shard0.mbps"));
  EXPECT_TRUE(has("shard1.mbps"));
  EXPECT_TRUE(has("disk0.queue_depth"));
  EXPECT_TRUE(has("disk1.queue_depth"));  // shard 1's disk, global name
  EXPECT_TRUE(has("shard0.dispatch_set"));
  EXPECT_TRUE(has("shard1.dispatch_set"));
  for (const auto& row : result.timeseries.rows) {
    EXPECT_EQ(row.size(), names.size());
  }
}

}  // namespace
}  // namespace sst::experiment
