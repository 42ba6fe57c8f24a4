// Parameterized property sweeps across configurations: invariants that
// must hold for EVERY (streams, request-size, read-ahead) combination.
#include <gtest/gtest.h>

#include <tuple>

#include "experiment/runner.hpp"
#include "workload/generator.hpp"

namespace sst {
namespace {

// gtest lists a parameter without a PrintTo as its raw bytes. A 64-bit
// `streams` leaves the struct no padding, so those bytes, and the listed
// test names with them, are the same in every build.
struct SweepPoint {
  std::uint64_t streams;
  Bytes request;
  Bytes read_ahead;  // 0 = raw (no scheduler)
};

class PipelineProperty : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(PipelineProperty, ConservationAndSanity) {
  const SweepPoint pt = GetParam();
  experiment::ExperimentConfig ec;
  ec.topology.node.disk.geometry.capacity = 8 * GiB;  // small disk: faster sims
  ec.warmup = sec(1);
  ec.measure = sec(5);
  ec.streams = workload::make_uniform_streams(pt.streams, 1, 8 * GiB, pt.request);
  if (pt.read_ahead > 0) {
    core::SchedulerParams p;
    p.read_ahead = pt.read_ahead;
    p.memory_budget = std::max<Bytes>(32 * MiB, 2 * pt.read_ahead * pt.streams);
    ec.scheduler = p;
  }
  const auto r = experiment::run_experiment(ec);

  // 1. Forward progress: every configuration moves data.
  EXPECT_GT(r.total_mbps, 0.1);
  EXPECT_GT(r.requests_completed, 0u);

  // 2. Conservation: completions times request size equals measured bytes.
  const double measured_bytes = r.total_mbps * 1e6 * 5.0;
  EXPECT_NEAR(measured_bytes,
              static_cast<double>(r.requests_completed) * static_cast<double>(pt.request),
              static_cast<double>(pt.request) * pt.streams * 4.0);

  // 3. Latency histogram counted every completion.
  EXPECT_EQ(r.latency.count(), r.requests_completed);
  EXPECT_GT(r.latency.mean_ms(), 0.0);

  // 4. Physical limits: never faster than the interface, never beyond the
  //    outer-zone media rate plus cache effects.
  EXPECT_LT(r.total_mbps, 150.0);

  // 5. Disk accounting: media traffic at least covers a miss per stream.
  EXPECT_GT(r.disk_totals.bytes_from_media, 0u);

  if (pt.read_ahead > 0) {
    // 6. Memory budget respected.
    EXPECT_LE(r.peak_buffer_memory,
              std::max<Bytes>(32 * MiB, 2 * pt.read_ahead * pt.streams));
    // 7. Streams detected for every client (within a small tolerance for
    //    detection races at region boundaries).
    EXPECT_GE(r.scheduler_stats.streams_created, pt.streams);
    // 8. Served bytes flow through the scheduler.
    EXPECT_GT(r.scheduler_stats.bytes_served, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineProperty,
    ::testing::Values(SweepPoint{1, 64 * KiB, 0}, SweepPoint{10, 64 * KiB, 0},
                      SweepPoint{40, 16 * KiB, 0}, SweepPoint{10, 256 * KiB, 0},
                      SweepPoint{1, 64 * KiB, 1 * MiB}, SweepPoint{10, 64 * KiB, 512 * KiB},
                      SweepPoint{10, 64 * KiB, 2 * MiB}, SweepPoint{40, 16 * KiB, 1 * MiB},
                      SweepPoint{40, 256 * KiB, 4 * MiB}, SweepPoint{25, 128 * KiB, 1 * MiB}),
    [](const ::testing::TestParamInfo<SweepPoint>& info) {
      const auto& p = info.param;
      return "s" + std::to_string(p.streams) + "_req" + std::to_string(p.request / KiB) +
             "k_ra" + std::to_string(p.read_ahead / KiB) + "k";
    });

class DiskSchedulerProperty : public ::testing::TestWithParam<disk::SchedulerKind> {};

TEST_P(DiskSchedulerProperty, AllRequestsCompleteUnderAnyDiskScheduler) {
  experiment::ExperimentConfig ec;
  ec.topology.node.disk.geometry.capacity = 8 * GiB;
  ec.topology.node.disk.scheduler = GetParam();
  ec.warmup = sec(1);
  ec.measure = sec(4);
  ec.streams = workload::make_uniform_streams(16, 1, 8 * GiB, 64 * KiB);
  const auto r = experiment::run_experiment(ec);
  EXPECT_GT(r.requests_completed, 50u);
  EXPECT_EQ(r.latency.count(), r.requests_completed);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DiskSchedulerProperty,
                         ::testing::Values(disk::SchedulerKind::kFcfs,
                                           disk::SchedulerKind::kElevator,
                                           disk::SchedulerKind::kSstf),
                         [](const ::testing::TestParamInfo<disk::SchedulerKind>& info) {
                           return disk::to_string(info.param);
                         });

class PolicyProperty : public ::testing::TestWithParam<core::DispatchPolicyKind> {};

TEST_P(PolicyProperty, BothPoliciesServeEveryStream) {
  experiment::ExperimentConfig ec;
  ec.topology.node.disk.geometry.capacity = 8 * GiB;
  ec.warmup = sec(1);
  ec.measure = sec(5);
  core::SchedulerParams p;
  p.dispatch_set_size = 4;
  p.read_ahead = 512 * KiB;
  p.requests_per_residency = 2;
  p.memory_budget = 64 * MiB;
  p.policy = GetParam();
  ec.scheduler = p;
  ec.streams = workload::make_uniform_streams(24, 1, 8 * GiB, 64 * KiB);
  const auto r = experiment::run_experiment(ec);
  // No starvation: the slowest stream still made progress.
  EXPECT_GT(r.min_stream_mbps, 0.0);
  EXPECT_GT(r.total_mbps, 5.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperty,
                         ::testing::Values(core::DispatchPolicyKind::kRoundRobin,
                                           core::DispatchPolicyKind::kNearestOffset),
                         [](const ::testing::TestParamInfo<core::DispatchPolicyKind>&
                                info) {
                           return info.param == core::DispatchPolicyKind::kRoundRobin
                                      ? "roundrobin"
                                      : "nearest";
                         });

}  // namespace
}  // namespace sst
