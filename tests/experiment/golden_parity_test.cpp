// Golden-metrics parity: the full ExperimentResult::to_json() document for
// four fig13/fig14 configurations must stay byte-for-byte identical to the
// committed fixtures. This pins the behaviour of the whole pipeline —
// classifier, staged scheduler (StagingArea / DispatchSet / DispatchPolicy),
// topology-built device stack, metrics export — across refactors: any
// change to event ordering, arithmetic, or export layout shows up as a
// fixture diff that must be reviewed (and regenerated) deliberately.
//
// Fixtures live in tests/experiment/golden/. To regenerate after an
// intentional behaviour change, run this test binary with
// SST_REGEN_GOLDEN=1 in the environment (the fixtures are rewritten in the
// source tree) and review the diff before committing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "experiment/runner.hpp"
#include "workload/generator.hpp"

namespace sst::experiment {
namespace {

ExperimentConfig base_config(node::NodeConfig node, std::uint32_t streams,
                             core::SchedulerParams params) {
  ExperimentConfig ec;
  ec.topology.node = node;
  ec.scheduler = params;
  ec.streams = workload::make_uniform_streams(streams, node.total_disks(),
                                              node.disk.geometry.capacity, 64 * KiB);
  ec.warmup = sec(4);
  ec.measure = sec(16);
  return ec;
}

core::SchedulerParams paper(std::uint32_t d, Bytes r, std::uint32_t n, Bytes m) {
  core::SchedulerParams p;
  p.dispatch_set_size = d;
  p.read_ahead = r;
  p.requests_per_residency = n;
  p.memory_budget = m;
  return p;
}

std::string fixture_path(const std::string& name) {
  return std::string(SST_SOURCE_DIR) + "/tests/experiment/golden/" + name;
}

std::string read_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void expect_parity(const std::string& fixture, const ExperimentConfig& ec) {
  const std::string actual = run_experiment(ec).to_json();
  if (std::getenv("SST_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(fixture_path(fixture), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write fixture " << fixture_path(fixture);
    out << actual;
    return;
  }
  const std::string expected = read_fixture(fixture);
  ASSERT_FALSE(expected.empty());
  // EQ on the whole document: a mismatch prints both JSON bodies, and the
  // first diverging key localizes the regression.
  EXPECT_EQ(actual, expected) << "metrics drifted from " << fixture;
}

TEST(GoldenParity, Fig13SmallDispatchEightDisks) {
  const auto node = node::NodeConfig::medium();  // 8 disks
  const std::uint32_t streams = 80;
  const std::uint32_t d = node.total_disks();
  expect_parity("fig13_small_10.json",
                base_config(node, streams,
                            paper(d, 512 * KiB, 128,
                                  static_cast<Bytes>(d) * 512 * KiB * 128 + 256 * MiB)));
}

TEST(GoldenParity, Fig13StagedAllDispatched) {
  const auto node = node::NodeConfig::medium();
  const std::uint32_t streams = 80;
  expect_parity("fig13_staged_10.json",
                base_config(node, streams,
                            paper(streams, 512 * KiB, 1,
                                  static_cast<Bytes>(streams) * 512 * KiB)));
}

// The sharded engine with attribution and an SLO: pins the per-shard
// assembly, the cross-shard client routing and every merge (stats adders,
// breakdown, SLO windows) that folds the shards back into one result.
TEST(GoldenParity, Fig13StagedTwoShardsAttributed) {
  const auto node = node::NodeConfig::medium();  // 2 controllers x 4 disks
  const std::uint32_t streams = 80;
  ExperimentConfig ec = base_config(
      node, streams, paper(streams, 512 * KiB, 1, static_cast<Bytes>(streams) * 512 * KiB));
  ec.warmup = sec(1);
  ec.measure = sec(3);
  ec.shards = 2;
  ec.attribution = true;
  ec.slo.objective = msec(100);
  ec.slo.quantile = 0.99;
  ec.slo.window = sec(1);
  expect_parity("fig13_staged_2shards_attributed.json", ec);
}

TEST(GoldenParity, Fig14SingleDiskSmallDispatch) {
  const node::NodeConfig node;  // 1 disk
  expect_parity("fig14_small_10.json",
                base_config(node, 10, paper(1, 512 * KiB, 128, 64 * MiB + 128 * MiB)));
}

TEST(GoldenParity, Fig14SingleDiskAllDispatchedLargeReadAhead) {
  const node::NodeConfig node;
  expect_parity("fig14_all_10_2048.json",
                base_config(node, 10,
                            paper(10, 2048 * KiB, 1, static_cast<Bytes>(10) * 2048 * KiB)));
}

}  // namespace
}  // namespace sst::experiment
