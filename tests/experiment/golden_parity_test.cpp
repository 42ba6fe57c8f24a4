// Golden-metrics parity: the full ExperimentResult::to_json() document for
// five fig13/fig14 configurations, and for one synthetic result with every
// counter set, must stay byte-for-byte identical to the committed fixtures. This pins the behaviour of the whole pipeline —
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

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

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

void expect_fixture(const std::string& fixture, const std::string& actual) {
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

void expect_parity(const std::string& fixture, const ExperimentConfig& ec) {
  expect_fixture(fixture, run_experiment(ec).to_json());
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

// Two cells with attribution and an SLO: pins the per-cell assembly and
// scheduler share, the stream homing and every merge (stats adders,
// breakdown, SLO windows) that folds the cells back into one result.
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

// Scheduler parity: the fig13 golden configs on 2 cells against 1. Each
// cell schedules against its own share of the dispatch set and memory and
// runs its own host CPU model, so a sharded run is a different experiment
// from the one-Simulator run; this bounds how different. Measured (1 -> 2
// cells): fig13_small_10 MB/s 363.397 -> 363.332, p95 11.420 -> 11.425 ms,
// p99 14.300 -> 14.442, p999 16.592 -> 16.961, events per request 1.9344 ->
// 1.9350; fig13_staged_10 MB/s 189.006 both, p95 222.95 -> 223.10, p99
// 231.93 -> 232.67, p999 238.98 -> 239.27, 1.8760 -> 1.8769; the attributed
// 1 s + 3 s variant MB/s 187.346 both, p95 227.80 -> 228.48, p99 240.09 ->
// 240.50, p999 242.98 -> 243.23, 2.0195 -> 2.0203. Each bound sits two to
// five times above the largest measured gap. p50 is not bounded: each
// cell's host is less busy than the one host (fig13_staged_10: 3.0%
// against 8.5%), so the median request, a buffer hit, waits less for it
// (0.018 against 0.050 ms).
TEST(GoldenParity, TwoCellsStayNearOneOnFig13Configs) {
  const auto node = node::NodeConfig::medium();  // 2 controllers x 4 disks
  const std::uint32_t d = node.total_disks();
  const std::uint32_t streams = 80;
  const Bytes staged_memory = static_cast<Bytes>(streams) * 512 * KiB;
  ExperimentConfig attributed =
      base_config(node, streams, paper(streams, 512 * KiB, 1, staged_memory));
  attributed.warmup = sec(1);
  attributed.measure = sec(3);
  attributed.attribution = true;
  attributed.slo.objective = msec(100);
  attributed.slo.quantile = 0.99;
  attributed.slo.window = sec(1);
  const Bytes small_memory = static_cast<Bytes>(d) * 512 * KiB * 128 + 256 * MiB;
  const std::pair<const char*, ExperimentConfig> configs[] = {
      {"fig13_small_10", base_config(node, streams, paper(d, 512 * KiB, 128, small_memory))},
      {"fig13_staged_10",
       base_config(node, streams, paper(streams, 512 * KiB, 1, staged_memory))},
      {"fig13_staged_attributed", attributed},
  };
  const auto near = [](double two, double one, double tolerance) {
    return std::abs(two - one) <= tolerance * one;
  };
  for (const auto& [name, config] : configs) {
    ExperimentConfig sharded = config;
    sharded.shards = 2;
    const ExperimentResult one = run_experiment(config);
    const ExperimentResult two = run_experiment(sharded);
    ASSERT_EQ(two.shard_summary.shards, 2u) << name;
    EXPECT_PRED3(near, two.total_mbps, one.total_mbps, 0.001) << name;
    EXPECT_PRED3(near, two.latency.p95_ms(), one.latency.p95_ms(), 0.01) << name;
    EXPECT_PRED3(near, two.latency.p99_ms(), one.latency.p99_ms(), 0.02) << name;
    EXPECT_PRED3(near, two.latency.p999_ms(), one.latency.p999_ms(), 0.05) << name;
    const auto per_request = [](const ExperimentResult& r) {
      return static_cast<double>(r.sim_events_dispatched) /
             static_cast<double>(r.requests_completed);
    };
    EXPECT_PRED3(near, per_request(two), per_request(one), 0.002) << name;
  }
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

// The export layout: every counter of every group, including the groups
// the simulated fixtures leave out or at zero (uring, reactor, sim.shard_*,
// raid, fault, retry, net), holds a value no other field holds. A swapped
// field, a renamed key, a reordered entry or a unit change shows up as a
// fixture diff.
ExperimentResult every_counter_distinct() {
  ExperimentResult r;
  std::uint64_t next = 0;
  // Spaced values, so a SimTime exported in milliseconds stays distinct too.
  const auto value = [&next]() { return ++next * 1'000'003; };
  for (std::uint64_t* field : {
           &r.requests_completed,
           &r.disk_totals.bytes_requested,
           &r.disk_totals.bytes_from_media,
           &r.disk_totals.commands,
           &r.disk_totals.cache_hits,
           &r.disk_totals.cache_misses,
           &r.disk_totals.wasted_prefetch_sectors,
           &r.disk_totals.seek_time,
           &r.disk_totals.busy_time,
           &r.controller_totals.commands,
           &r.controller_totals.bytes_to_host,
           &r.controller_totals.bus_busy_time,
           &r.controller_totals.cache_hits,
           &r.controller_totals.cache_misses,
           &r.controller_totals.cache_evictions,
           &r.controller_totals.prefetched_bytes,
           &r.controller_totals.wasted_prefetch_bytes,
           &r.scheduler_stats.streams_created,
           &r.scheduler_stats.streams_retired,
           &r.scheduler_stats.disk_reads,
           &r.scheduler_stats.bytes_prefetched,
           &r.scheduler_stats.client_completions,
           &r.scheduler_stats.bytes_served,
           &r.scheduler_stats.buffer_hits,
           &r.scheduler_stats.rotations,
           &r.scheduler_stats.dispatch_stalls,
           &r.scheduler_stats.gc_buffers_reclaimed,
           &r.scheduler_stats.gc_bytes_wasted,
           &r.scheduler_stats.gc_streams_retired,
           &r.scheduler_stats.fallback_direct_reads,
           &r.scheduler_stats.escalated_reads,
           &r.scheduler_stats.prefetch_errors,
           &r.scheduler_stats.streams_evicted,
           &r.scheduler_stats.requests_failed,
           &r.server_stats.requests,
           &r.server_stats.sequential_requests,
           &r.server_stats.direct_reads,
           &r.server_stats.direct_writes,
           &r.server_stats.rejected_requests,
           &r.classifier_stats.requests_seen,
           &r.classifier_stats.regions_allocated,
           &r.classifier_stats.regions_collected,
           &r.classifier_stats.streams_detected,
           &r.classifier_stats.bitmap_bytes,
           &r.staging_stats.bytes_copied,
           &r.staging_stats.zero_copy_hits,
           &r.sim_events_dispatched,
           &r.sim_wheel_cascades,
           &r.peak_buffer_memory,
           &r.fault_stats.commands_seen,
           &r.fault_stats.media_errors,
           &r.fault_stats.persistent_errors,
           &r.fault_stats.hangs,
           &r.fault_stats.spikes,
           &r.retry_stats.commands,
           &r.retry_stats.retries_total,
           &r.retry_stats.timeouts,
           &r.retry_stats.media_errors,
           &r.retry_stats.recovered,
           &r.retry_stats.giveups,
           &r.retry_stats.backoff_time,
           &r.net_fault_stats.dropped,
           &r.net_fault_stats.spiked,
           &r.net_fault_stats.transport_errors,
           &r.mirror_stats.reads,
           &r.mirror_stats.writes,
           &r.mirror_stats.member_errors,
           &r.mirror_stats.failovers,
           &r.mirror_stats.degraded_reads,
           &r.mirror_stats.degraded_writes,
           &r.mirror_stats.read_failures,
           &r.mirror_stats.write_failures,
           &r.devices_failed,
           &r.client_errors,
           &r.shard_summary.min_shard_events,
           &r.shard_summary.max_shard_events,
           &r.uring_summary.submitted,
           &r.uring_summary.completed,
           &r.uring_summary.errors,
           &r.uring_summary.short_resubmits,
           &r.uring_summary.transient_retries,
           &r.uring_summary.fixed_buffer_ops,
           &r.uring_summary.direct_ops,
           &r.uring_summary.backlog_peak,
           &r.uring_summary.enter_syscalls,
           &r.uring_summary.flush_batches,
           &r.uring_summary.sqes_flushed,
           &r.uring_summary.batch_size_max,
           &r.reactor_summary.wakeups,
           &r.reactor_summary.completion_wakeups,
           &r.reactor_summary.timer_wakeups,
           &r.reactor_summary.stale_wakeups,
           &r.reactor_summary.spurious_wakeups,
           &r.reactor_summary.epoll_waits,
           &r.reactor_summary.inring_waits,
           &r.reactor_summary.idle_sleeps,
           &r.reactor_summary.completions,
       }) {
    *field = value();
  }
  for (std::uint64_t& bucket : r.uring_summary.batch_size_log2) bucket = value();
  for (int device = 0; device < 3; ++device) {
    r.uring_summary.per_device_completed.push_back(value());
  }
  for (std::uint32_t* field : {&r.shard_summary.shards, &r.shard_summary.requested,
                               &r.uring_summary.devices, &r.uring_summary.direct_devices,
                               &r.reactor_summary.reactors, &r.reactor_summary.requested}) {
    *field = static_cast<std::uint32_t>(value());
  }
  for (int device = 0; device < 3; ++device) {
    r.uring_summary.per_device_setup_flags.push_back(static_cast<std::uint32_t>(value()));
  }
  r.total_mbps = 1.5;
  r.min_stream_mbps = 0.25;
  r.max_stream_mbps = 1.25;
  r.stream_mbps = {0.25, 1.25};
  r.host_cpu_utilization = 0.75;
  r.raid_kind = io::RaidSpec::Kind::kMirror;
  r.uring_summary.enabled = true;
  r.reactor_summary.enabled = true;
  return r;
}

TEST(GoldenParity, ExportLayoutPinsEveryCounter) {
  expect_fixture("export_layout.json", every_counter_distinct().to_json());
}

// MetricsRegistry keeps duplicate names, so a table line repeating a key, or
// colliding with a run-level entry of its group, would shadow a counter.
TEST(GoldenParity, ExportedKeysAreUniqueWithinEachGroup) {
  std::istringstream lines(every_counter_distinct().to_json());
  std::set<std::string> keys;
  std::string line;
  std::string group;
  while (std::getline(lines, line)) {
    const std::size_t quote = line.find('"');
    if (quote == std::string::npos) continue;
    const std::string name = line.substr(quote + 1, line.find('"', quote + 1) - quote - 1);
    if (quote == 2) group = name;  // a group, or a top-level entry
    const std::string key = quote == 2 ? name : group + "." + name;
    EXPECT_TRUE(keys.insert(key).second) << "exported twice: " << key;
  }
  EXPECT_GT(keys.size(), 100u);
}

}  // namespace
}  // namespace sst::experiment
