#include "configio/loaders.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <tuple>

namespace sst::configio {
namespace {

Config make(std::initializer_list<std::pair<const char*, const char*>> kv) {
  Config cfg;
  for (const auto& [k, v] : kv) cfg.set(k, v);
  return cfg;
}

TEST(DiskLoader, DefaultsAreWd800jd) {
  const auto p = load_disk_params(Config{});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().geometry.capacity, 80 * GiB);
  EXPECT_EQ(p.value().cache.size, 8 * MiB);
  EXPECT_EQ(p.value().cache.num_segments, 32u);
}

TEST(DiskLoader, OverridesApply) {
  const auto p = load_disk_params(make({{"disk.capacity", "160G"},
                                        {"disk.cache.size", "16M"},
                                        {"disk.cache.segments", "64"},
                                        {"disk.scheduler", "elevator"},
                                        {"disk.seek_avg", "12ms"}}));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().geometry.capacity, 160 * GiB);
  EXPECT_EQ(p.value().cache.size, 16 * MiB);
  EXPECT_EQ(p.value().cache.num_segments, 64u);
  EXPECT_EQ(p.value().scheduler, disk::SchedulerKind::kElevator);
  EXPECT_EQ(p.value().seek.average, msec(12));
}

TEST(DiskLoader, ReadAheadKeywordAndSize) {
  auto fill = load_disk_params(make({{"disk.cache.read_ahead", "segment"}}));
  ASSERT_TRUE(fill.ok());
  EXPECT_EQ(fill.value().cache.read_ahead, disk::CacheParams::kFillSegment);
  auto sized = load_disk_params(make({{"disk.cache.read_ahead", "128K"}}));
  ASSERT_TRUE(sized.ok());
  EXPECT_EQ(sized.value().cache.read_ahead, 128 * KiB);
  auto none = load_disk_params(make({{"disk.cache.read_ahead", "0"}}));
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().cache.read_ahead, 0u);
}

TEST(DiskLoader, RejectsBadScheduler) {
  EXPECT_FALSE(load_disk_params(make({{"disk.scheduler", "cfq"}})).ok());
}

TEST(DiskLoader, RejectsInvertedSeekCurve) {
  EXPECT_FALSE(
      load_disk_params(make({{"disk.seek_single", "20ms"}, {"disk.seek_avg", "5ms"}})).ok());
}

TEST(DiskLoader, RejectsInvertedZones) {
  EXPECT_FALSE(
      load_disk_params(make({{"disk.outer_spt", "100"}, {"disk.inner_spt", "200"}})).ok());
}

TEST(CtrlLoader, Defaults) {
  const auto p = load_controller_params(Config{});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value().transfer_rate_bps, 450e6);
}

TEST(CtrlLoader, Overrides) {
  const auto p = load_controller_params(
      make({{"ctrl.cache", "128M"}, {"ctrl.prefetch", "1M"}, {"ctrl.rate_mbps", "300"}}));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().cache_size, 128 * MiB);
  EXPECT_EQ(p.value().prefetch, 1 * MiB);
  EXPECT_DOUBLE_EQ(p.value().transfer_rate_bps, 300e6);
}

TEST(SchedLoader, PaperParameterization) {
  const auto p = load_scheduler_params(make({{"sched.dispatch", "100"},
                                             {"sched.read_ahead", "8M"},
                                             {"sched.residency", "1"},
                                             {"sched.memory", "800M"}}));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().dispatch_set_size, 100u);
  EXPECT_EQ(p.value().read_ahead, 8 * MiB);
  EXPECT_EQ(p.value().memory_budget, 800 * MiB);
}

TEST(SchedLoader, RejectsMemoryBelowDRN) {
  EXPECT_FALSE(load_scheduler_params(make({{"sched.dispatch", "100"},
                                           {"sched.read_ahead", "8M"},
                                           {"sched.memory", "100M"}}))
                   .ok());
}

TEST(SchedLoader, PolicyNames) {
  auto rr = load_scheduler_params(make({{"sched.policy", "round-robin"}}));
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr.value().policy, core::DispatchPolicyKind::kRoundRobin);
  auto near = load_scheduler_params(make({{"sched.policy", "nearest-offset"}}));
  ASSERT_TRUE(near.ok());
  EXPECT_EQ(near.value().policy, core::DispatchPolicyKind::kNearestOffset);
  EXPECT_FALSE(load_scheduler_params(make({{"sched.policy", "lifo"}})).ok());
}

TEST(SchedLoader, FailThresholdAppliesAndRejectsZero) {
  const auto p = load_scheduler_params(make({{"sched.fail_threshold", "5"}}));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().device_fail_threshold, 5u);
  EXPECT_FALSE(load_scheduler_params(make({{"sched.fail_threshold", "0"}})).ok());
}

TEST(NodeLoader, TopologyAndNestedParams) {
  const auto n = load_topology_spec(make({{"topology.controllers", "2"},
                                          {"topology.disks_per_controller", "4"},
                                          {"disk.cache.size", "4M"}}));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().node.total_disks(), 8u);
  EXPECT_EQ(n.value().node.disk.cache.size, 4 * MiB);
}

TEST(NodeLoader, RejectsEmptyTopology) {
  EXPECT_FALSE(load_topology_spec(make({{"topology.controllers", "0"}})).ok());
}

TEST(ExperimentLoader, RawWhenNoSchedKeys) {
  const auto e = load_experiment(make({{"workload.streams", "4"}}));
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e.value().scheduler.has_value());
  EXPECT_EQ(e.value().streams.size(), 4u);
}

TEST(ExperimentLoader, SchedulerImpliedBySchedKeys) {
  const auto e = load_experiment(make({{"sched.read_ahead", "1M"}}));
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e.value().scheduler.has_value());
  EXPECT_EQ(e.value().scheduler->read_ahead, 1 * MiB);
}

TEST(ExperimentLoader, SchedulerDisabledExplicitly) {
  const auto e =
      load_experiment(make({{"sched.read_ahead", "1M"}, {"sched.enable", "false"}}));
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e.value().scheduler.has_value());
}

TEST(ExperimentLoader, DisabledGroupsCheckTheirKeys) {
  // A disabled group's keys are read, so they are not unknown keys...
  const auto e =
      load_experiment(make({{"sched.enable", "false"}, {"sched.read_ahead", "8M"}}));
  ASSERT_TRUE(e.ok()) << e.error().message;
  EXPECT_FALSE(e.value().scheduler.has_value());
  // ...and an invalid value in one is rejected as in an enabled group.
  for (const auto& [enable, key, value] :
       {std::tuple{"sched.enable", "sched.read_ahead", "8x"},
        std::tuple{"sched.enable", "sched.fail_threshold", "0"},
        std::tuple{"retry.enable", "retry.retries", "-1"},
        std::tuple{"net.enable", "net.latency", "5q"}}) {
    const auto bad = load_experiment(make({{enable, "false"}, {key, value}}));
    EXPECT_FALSE(bad.ok()) << key << "=" << value;
  }
}

TEST(ExperimentLoader, RejectsMisreadAndRetiredKeys) {
  // A misspelt key, a malformed or negative value and each retired alias
  // spelling fail the load with an error naming the key.
  for (const auto& [key, value] : {std::pair{"sched.readahead", "8M"},
                                   std::pair{"workload.streams", "4x"},
                                   std::pair{"run.measure", "2sec"},
                                   std::pair{"workload.streams", "-1"},
                                   std::pair{"node.controllers", "2"},
                                   std::pair{"node.disks_per_controller", "2"},
                                   std::pair{"node.seed", "7"},
                                   std::pair{"topology.shards", "2"},
                                   std::pair{"sched.materialize", "true"}}) {
    const auto e = load_experiment(make({{key, value}}));
    ASSERT_FALSE(e.ok()) << key << "=" << value;
    EXPECT_NE(e.error().message.find(key), std::string::npos) << e.error().message;
  }
  // With several, the error names the first misread key.
  const auto e = load_experiment(make({{"workload.streams", "4x"},
                                       {"run.warmup", "100ms"},
                                       {"run.measure", "2sec"},
                                       {"sched.readahead", "8M"}}));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.error().message.rfind("workload.streams: ", 0), 0u) << e.error().message;
}

TEST(ExperimentLoader, WorkloadShapeApplied) {
  const auto e = load_experiment(make({{"workload.streams", "6"},
                                       {"workload.request", "128K"},
                                       {"workload.outstanding", "4"},
                                       {"workload.think", "2ms"},
                                       {"run.measure", "5s"}}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().streams.size(), 6u);
  for (const auto& s : e.value().streams) {
    EXPECT_EQ(s.request_size, 128 * KiB);
    EXPECT_EQ(s.outstanding, 4u);
    EXPECT_EQ(s.think_time, msec(2));
  }
  EXPECT_EQ(e.value().measure, sec(5));
}

TEST(ExperimentLoader, RejectsBadWorkload) {
  EXPECT_FALSE(load_experiment(make({{"workload.streams", "0"}})).ok());
  EXPECT_FALSE(load_experiment(make({{"workload.request", "1000"}})).ok());  // unaligned
}

TEST(ExperimentLoader, BackendDefaultsToSim) {
  const auto e = load_experiment(make({{"workload.streams", "2"}}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().backend.kind, experiment::BackendConfig::Kind::kSim);
  EXPECT_TRUE(e.value().backend.path.empty());
  EXPECT_EQ(e.value().backend.queue_depth, 64u);
  EXPECT_TRUE(e.value().backend.direct);
  EXPECT_EQ(e.value().backend.reactors, 1u);
}

TEST(ExperimentLoader, BackendKeysRoundTrip) {
  const auto e = load_experiment(make({{"workload.streams", "2"},
                                       {"backend.kind", "real"},
                                       {"backend.path", "/dev/shm/backing.img"},
                                       {"backend.queue_depth", "128"},
                                       {"backend.direct", "false"},
                                       {"backend.reactors", "2"}}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().backend.kind, experiment::BackendConfig::Kind::kReal);
  EXPECT_EQ(e.value().backend.path, "/dev/shm/backing.img");
  EXPECT_EQ(e.value().backend.queue_depth, 128u);
  EXPECT_FALSE(e.value().backend.direct);
  EXPECT_EQ(e.value().backend.reactors, 2u);
}

TEST(ExperimentLoader, BackendSimIgnoresPath) {
  // An explicit sim backend with a stray path is fine: the path is unused.
  const auto e = load_experiment(
      make({{"workload.streams", "2"}, {"backend.kind", "sim"},
            {"backend.path", "/tmp/ignored"}}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().backend.kind, experiment::BackendConfig::Kind::kSim);
}

TEST(ExperimentLoader, RejectsBadBackend) {
  // Unknown kind.
  EXPECT_FALSE(
      load_experiment(make({{"workload.streams", "2"}, {"backend.kind", "fast"}}))
          .ok());
  // Real backend without a backing file.
  EXPECT_FALSE(
      load_experiment(make({{"workload.streams", "2"}, {"backend.kind", "real"}}))
          .ok());
  // Zero queue depth.
  EXPECT_FALSE(load_experiment(make({{"workload.streams", "2"},
                                     {"backend.kind", "real"},
                                     {"backend.path", "/dev/shm/backing.img"},
                                     {"backend.queue_depth", "0"}}))
                   .ok());
  // Zero reactors: the reactor count carves the device groups, so it must
  // be at least one even for the sim backend (where it is simply unused).
  const auto zero_reactors =
      load_experiment(make({{"workload.streams", "2"},
                            {"backend.kind", "real"},
                            {"backend.path", "/dev/shm/backing.img"},
                            {"backend.reactors", "0"}}));
  ASSERT_FALSE(zero_reactors.ok());
  EXPECT_NE(zero_reactors.error().message.find("backend.reactors"),
            std::string::npos);
}

TEST(ExperimentLoader, EndToEndRuns) {
  const auto e = load_experiment(make({{"workload.streams", "2"},
                                       {"disk.capacity", "4G"},
                                       {"sched.read_ahead", "1M"},
                                       {"sched.memory", "16M"},
                                       {"run.warmup", "1s"},
                                       {"run.measure", "2s"}}));
  ASSERT_TRUE(e.ok());
  const auto result = experiment::run_experiment(e.value());
  EXPECT_GT(result.total_mbps, 0.0);
}

TEST(FaultLoader, DefaultsAreDisabled) {
  const auto p = load_fault_params(Config{});
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p.value().enabled());
}

TEST(FaultLoader, KeysApply) {
  const auto p = load_fault_params(make({{"fault.media_error_rate", "0.001"},
                                         {"fault.persistent_fraction", "0.25"},
                                         {"fault.transient_failures", "3"},
                                         {"fault.hang_prob", "0.0001"},
                                         {"fault.spike_prob", "0.01"},
                                         {"fault.spike", "75ms"},
                                         {"fault.seed", "99"},
                                         {"fault.devices", "0,2"}}));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().enabled());
  EXPECT_DOUBLE_EQ(p.value().media_error_rate, 0.001);
  EXPECT_DOUBLE_EQ(p.value().persistent_fraction, 0.25);
  EXPECT_EQ(p.value().transient_failures, 3u);
  EXPECT_EQ(p.value().spike_delay, msec(75));
  EXPECT_EQ(p.value().seed, 99u);
  EXPECT_EQ(p.value().devices, (std::vector<std::uint32_t>{0, 2}));
}

TEST(FaultLoader, BadRangeParsesSizesAndLists) {
  const auto p = load_fault_params(make({{"fault.bad_range", "0:1G:64K,1:0:4K"}}));
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p.value().bad_ranges.size(), 2u);
  EXPECT_EQ(p.value().bad_ranges[0].device, 0u);
  EXPECT_EQ(p.value().bad_ranges[0].offset, 1 * GiB);
  EXPECT_EQ(p.value().bad_ranges[0].length, 64 * KiB);
  EXPECT_EQ(p.value().bad_ranges[1].device, 1u);
}

TEST(FaultLoader, ErrorPathsPropagate) {
  // Malformed bad_range entries.
  EXPECT_FALSE(load_fault_params(make({{"fault.bad_range", "0:1G"}})).ok());
  EXPECT_FALSE(load_fault_params(make({{"fault.bad_range", "0:xyz:64K"}})).ok());
  // Zero-length range rejected by validate().
  EXPECT_FALSE(load_fault_params(make({{"fault.bad_range", "0:1G:0"}})).ok());
  // Probabilities outside [0,1].
  EXPECT_FALSE(load_fault_params(make({{"fault.media_error_rate", "1.5"}})).ok());
  EXPECT_FALSE(load_fault_params(make({{"fault.hang_prob", "-0.1"}})).ok());
  EXPECT_FALSE(load_fault_params(make({{"fault.persistent_fraction", "2"}})).ok());
  // transient_failures must be >= 1.
  EXPECT_FALSE(load_fault_params(make({{"fault.transient_failures", "0"}})).ok());
  // Non-numeric device fields error instead of throwing.
  EXPECT_FALSE(load_fault_params(make({{"fault.bad_range", "x:1G:64K"}})).ok());
  EXPECT_FALSE(load_fault_params(make({{"fault.devices", "0,disk1"}})).ok());
}

TEST(RetryLoader, KeysApplyAndErrorsPropagate) {
  const auto p = load_retry_params(make({{"retry.timeout", "100ms"},
                                         {"retry.retries", "5"},
                                         {"retry.backoff", "2ms"},
                                         {"retry.backoff_cap", "64ms"}}));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().command_timeout, msec(100));
  EXPECT_EQ(p.value().max_retries, 5u);
  EXPECT_EQ(p.value().backoff_base, msec(2));
  EXPECT_EQ(p.value().backoff_cap, msec(64));
  // cap < base rejected by validate().
  EXPECT_FALSE(load_retry_params(make({{"retry.backoff", "10ms"},
                                       {"retry.backoff_cap", "1ms"}}))
                   .ok());
}

TEST(NetLoader, DefaultsAndKeysApply) {
  const auto d = load_link_params(Config{});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().latency, usec(50));
  EXPECT_FALSE(d.value().responses_carry_data);

  const auto p = load_link_params(make({{"net.latency", "1ms"},
                                        {"net.bandwidth_mbps", "1000"},
                                        {"net.overhead", "5us"},
                                        {"net.header", "256"},
                                        {"net.responses_carry_data", "true"}}));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().latency, msec(1));
  EXPECT_DOUBLE_EQ(p.value().bandwidth_bps, 1e9);
  EXPECT_EQ(p.value().per_message_overhead, usec(5));
  EXPECT_EQ(p.value().header_bytes, 256u);
  EXPECT_TRUE(p.value().responses_carry_data);

  EXPECT_FALSE(load_link_params(make({{"net.bandwidth_mbps", "0"}})).ok());
}

TEST(ExperimentLoader, NetKeysEnableTheLink) {
  EXPECT_FALSE(load_experiment(Config{}).value().topology.stack.network.has_value());
  const auto e = load_experiment(make({{"net.latency", "200us"}}));
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e.value().topology.stack.network.has_value());
  EXPECT_EQ(e.value().topology.stack.network->latency, usec(200));
  // net.enable=false wins over other net.* keys.
  const auto off = load_experiment(
      make({{"net.latency", "200us"}, {"net.enable", "false"}}));
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.value().topology.stack.network.has_value());
  // Errors propagate.
  EXPECT_FALSE(load_experiment(make({{"net.bandwidth_mbps", "-1"}})).ok());
}

TEST(ExperimentLoader, FaultKeysEnableRetryLayerByDefault) {
  const auto e = load_experiment(make({{"fault.media_error_rate", "0.001"}}));
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.value().topology.stack.fault.enabled());
  EXPECT_TRUE(e.value().topology.stack.retry_enabled());
  // No explicit retry.* keys: defaults are applied at run time, the
  // optional stays empty.
  EXPECT_FALSE(e.value().topology.stack.retry.has_value());
}

TEST(StackLoader, DefaultsAreLayerFree) {
  const auto s = load_stack_spec(Config{});
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s.value().fault.enabled());
  EXPECT_FALSE(s.value().retry_enabled());
  EXPECT_FALSE(s.value().raid.enabled());
  EXPECT_FALSE(s.value().network.has_value());
}

TEST(StackLoader, RaidKeysApply) {
  const auto mirror = load_stack_spec(make({{"stack.raid", "mirror"},
                                            {"stack.mirror.ways", "4"},
                                            {"stack.mirror.policy", "round-robin"},
                                            {"stack.mirror.fail_threshold", "5"}}));
  ASSERT_TRUE(mirror.ok());
  EXPECT_EQ(mirror.value().raid.kind, io::RaidSpec::Kind::kMirror);
  EXPECT_EQ(mirror.value().raid.mirror_ways, 4u);
  EXPECT_EQ(mirror.value().raid.mirror_policy, raid::ReadPolicy::kRoundRobin);
  EXPECT_EQ(mirror.value().raid.mirror.fail_threshold, 5u);

  const auto stripe =
      load_stack_spec(make({{"stack.raid", "stripe"}, {"stack.stripe_unit", "512K"}}));
  ASSERT_TRUE(stripe.ok());
  EXPECT_EQ(stripe.value().raid.kind, io::RaidSpec::Kind::kStripe);
  EXPECT_EQ(stripe.value().raid.stripe_unit, 512 * KiB);

  EXPECT_FALSE(load_stack_spec(make({{"stack.raid", "raid6"}})).ok());
  EXPECT_FALSE(load_stack_spec(make({{"stack.mirror.policy", "random"}})).ok());
}

TEST(TopologyLoader, PresetAndKeysApply) {
  const auto medium = load_topology_spec(make({{"topology.preset", "medium"}}));
  ASSERT_TRUE(medium.ok());
  EXPECT_EQ(medium.value().node.total_disks(), 8u);

  // Explicit counts override the preset's.
  const auto shaped = load_topology_spec(make({{"topology.preset", "medium"},
                                               {"topology.controllers", "2"},
                                               {"topology.disks_per_controller", "3"},
                                               {"topology.seed", "7"}}));
  ASSERT_TRUE(shaped.ok());
  EXPECT_EQ(shaped.value().node.num_controllers, 2u);
  EXPECT_EQ(shaped.value().node.disks_per_controller, 3u);
  EXPECT_EQ(shaped.value().node.seed, 7u);

  EXPECT_FALSE(load_topology_spec(make({{"topology.preset", "huge"}})).ok());
}

TEST(TopologyLoader, ValidatesRaidAgainstTheNode) {
  // 1-disk default node cannot mirror 2 ways.
  EXPECT_FALSE(load_topology_spec(make({{"stack.raid", "mirror"}})).ok());
  const auto ok = load_topology_spec(
      make({{"topology.preset", "medium"}, {"stack.raid", "mirror"}}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().logical_device_count(), 4u);
}

TEST(ExperimentLoader, StripeTopologySizesStreamsAgainstTheLogicalView) {
  const auto e = load_experiment(make({{"topology.preset", "medium"},
                                       {"stack.raid", "stripe"},
                                       {"workload.streams", "16"}}));
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(e.value().streams.size(), 16u);
  const Bytes volume =
      e.value().topology.node.disk.geometry.capacity * 8;
  for (const auto& spec : e.value().streams) {
    EXPECT_EQ(spec.device, 0u);  // one striped volume
    EXPECT_LT(spec.start_offset, volume);
  }
}

TEST(ExperimentLoader, BadRangeDeviceBoundsChecked) {
  // Single-disk node: device 3 is out of range, and the loader must say so
  // instead of letting the runner hit an invalid wrapper index.
  const auto e = load_experiment(make({{"fault.bad_range", "3:0:64K"}}));
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error().message.find("out of range"), std::string::npos);
}

TEST(ExperimentLoader, FaultErrorsPropagateThroughLoadExperiment) {
  EXPECT_FALSE(load_experiment(make({{"fault.media_error_rate", "7"}})).ok());
  EXPECT_FALSE(
      load_experiment(make({{"retry.backoff", "0"}, {"retry.enable", "true"}})).ok());
}

TEST(ExperimentLoader, ParallelEngineKeys) {
  // Defaults: single shard, baked-in workload seed.
  const auto plain = load_experiment(make({}));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().shards, 1u);

  const auto e = load_experiment(make({{"topology.preset", "medium"},
                                       {"sim.shards", "4"},
                                       {"workload.seed", "99"},
                                       {"workload.think_jitter", "3ms"}}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().shards, 4u);
  EXPECT_EQ(e.value().workload_seed, 99u);
  for (const auto& spec : e.value().streams) {
    EXPECT_EQ(spec.think_jitter, msec(3));
  }

  EXPECT_FALSE(load_experiment(make({{"sim.shards", "0"}})).ok());
  // Cells share no barrier, so no key sets one.
  EXPECT_FALSE(load_experiment(make({{"sim.lookahead", "2ms"}})).ok());
}

TEST(ShippedConfigs, EveryExampleConfigLoads) {
  // The sample configuration files under examples/configs must stay valid.
  for (const char* name :
       {"fig10_point.conf", "raw_baseline.conf", "eight_disk_tuned.conf"}) {
    const std::string path = std::string(SST_SOURCE_DIR) + "/examples/configs/" + name;
    std::ifstream file(path);
    ASSERT_TRUE(file.good()) << path;
    std::ostringstream text;
    text << file.rdbuf();
    auto cfg = Config::from_text(text.str());
    ASSERT_TRUE(cfg.ok()) << name << ": " << cfg.error().message;
    auto experiment = load_experiment(cfg.value());
    EXPECT_TRUE(experiment.ok()) << name << ": " << experiment.error().message;
  }
}

}  // namespace
}  // namespace sst::configio
