#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "experiment/runner.hpp"
#include "sim/simulator.hpp"

namespace sst::workload {
namespace {

constexpr Bytes kCapacity = 64 * MiB;

/// Sink that records requests and completes them after a fixed delay.
struct RecordingSink {
  sim::Simulator& sim;
  SimTime delay = usec(100);
  std::vector<core::ClientRequest> seen;

  RequestSink make() {
    return [this](core::ClientRequest req) {
      seen.push_back(req);  // copy of the metadata fields
      sim.schedule_after(delay, [cb = std::move(req.on_complete), this]() {
        if (cb) cb(sim.now());
      });
    };
  }
};

TEST(StreamClient, SequentialOffsets) {
  sim::Simulator sim;
  RecordingSink sink{sim, usec(100), {}};
  StreamSpec spec;
  spec.request_size = 64 * KiB;
  spec.num_requests = 5;
  StreamClient client(sim, sink.make(), spec, kCapacity);
  client.start();
  sim.run();
  ASSERT_EQ(sink.seen.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.seen[i].offset, i * 64 * KiB);
    EXPECT_EQ(sink.seen[i].length, 64 * KiB);
  }
  EXPECT_TRUE(client.finished());
}

TEST(StreamClient, ClosedLoopOneOutstanding) {
  sim::Simulator sim;
  RecordingSink sink{sim, usec(100), {}};
  StreamSpec spec;
  spec.num_requests = 3;
  StreamClient client(sim, sink.make(), spec, kCapacity);
  client.start();
  // Before the sim runs, exactly one request is outstanding.
  EXPECT_EQ(sink.seen.size(), 1u);
  sim.run();
  EXPECT_EQ(sink.seen.size(), 3u);
}

TEST(StreamClient, MultipleOutstanding) {
  sim::Simulator sim;
  RecordingSink sink{sim, usec(100), {}};
  StreamSpec spec;
  spec.outstanding = 4;
  spec.num_requests = 8;
  StreamClient client(sim, sink.make(), spec, kCapacity);
  client.start();
  EXPECT_EQ(sink.seen.size(), 4u);
  sim.run();
  EXPECT_EQ(sink.seen.size(), 8u);
}

TEST(StreamClient, WrapsAtRegionEnd) {
  sim::Simulator sim;
  RecordingSink sink{sim, usec(100), {}};
  StreamSpec spec;
  spec.start_offset = 1 * MiB;
  spec.region_bytes = 192 * KiB;  // three 64K requests, then wrap
  spec.request_size = 64 * KiB;
  spec.num_requests = 5;
  StreamClient client(sim, sink.make(), spec, kCapacity);
  client.start();
  sim.run();
  ASSERT_EQ(sink.seen.size(), 5u);
  EXPECT_EQ(sink.seen[3].offset, 1 * MiB);           // wrapped
  EXPECT_EQ(sink.seen[4].offset, 1 * MiB + 64 * KiB);
}

TEST(StreamClient, WrapsAtDeviceEndWhenNoRegion) {
  sim::Simulator sim;
  RecordingSink sink{sim, usec(100), {}};
  StreamSpec spec;
  spec.start_offset = kCapacity - 128 * KiB;
  spec.request_size = 64 * KiB;
  spec.num_requests = 3;
  StreamClient client(sim, sink.make(), spec, kCapacity);
  client.start();
  sim.run();
  ASSERT_EQ(sink.seen.size(), 3u);
  EXPECT_EQ(sink.seen[2].offset, kCapacity - 128 * KiB);  // wrapped to start
}

TEST(StreamClient, StatsTrackThroughputAndLatency) {
  sim::Simulator sim;
  RecordingSink sink{sim, usec(100), {}};
  StreamSpec spec;
  spec.request_size = 64 * KiB;
  spec.num_requests = 10;
  StreamClient client(sim, sink.make(), spec, kCapacity);
  client.start();
  sim.run();
  EXPECT_EQ(client.stats().completed, 10u);
  EXPECT_EQ(client.stats().throughput.total_bytes(), 640 * KiB);
  EXPECT_NEAR(client.stats().latency.mean_ms(), 0.1, 0.02);  // sink delay
}

TEST(StreamClient, BeginMeasurementResets) {
  sim::Simulator sim;
  RecordingSink sink{sim, usec(100), {}};
  StreamSpec spec;
  spec.num_requests = 4;
  StreamClient client(sim, sink.make(), spec, kCapacity);
  client.start();
  sim.run();
  client.begin_measurement();
  EXPECT_EQ(client.stats().completed, 0u);
  EXPECT_EQ(client.stats().throughput.total_bytes(), 0u);
}

TEST(StreamClient, ThinkTimeDelaysNextIssue) {
  sim::Simulator sim;
  RecordingSink sink{sim, usec(10), {}};
  StreamSpec spec;
  spec.think_time = msec(1);
  spec.num_requests = 3;
  StreamClient client(sim, sink.make(), spec, kCapacity);
  client.start();
  sim.run();
  // 3 requests: ~2 think gaps + 3 service delays.
  EXPECT_GE(sim.now(), 2 * msec(1));
}

// Paced clients (issue_period) through the stream scheduler: 1 MB/s
// streams on one base-node disk, as many as its effective rate carries at
// R = 1 MiB (T_eff = R / (13 ms + R / 47 MB/s), about 29.7 MB/s), with one
// dispatched stream staging 4 read-aheads per residency in 512 MiB. At
// least 90% of the streams keep 95% of their rate.
TEST(StreamClient, PacedStreamsSustainTheirRateThroughTheScheduler) {
  constexpr std::uint32_t kStreams = 29;
  constexpr double kRateBps = 1e6;
  experiment::ExperimentConfig ec;
  ec.topology.node = node::NodeConfig::base();
  ec.warmup = sec(3);
  ec.measure = sec(10);
  core::SchedulerParams params;
  params.dispatch_set_size = 1;
  params.read_ahead = 1 * MiB;
  params.requests_per_residency = 4;
  params.memory_budget = 512 * MiB;
  ec.scheduler = params;
  ec.streams = make_uniform_streams(kStreams, 1, ec.topology.node.disk.geometry.capacity,
                                    64 * KiB);
  const SimTime period = from_seconds(static_cast<double>(64 * KiB) / kRateBps);
  for (StreamSpec& spec : ec.streams) {
    spec.issue_period = period;
    spec.outstanding = 8;
  }
  const experiment::ExperimentResult result = experiment::run_experiment(ec);
  std::uint32_t sustained = 0;
  for (const double mbps : result.stream_mbps) {
    if (mbps >= 0.95 * kRateBps / 1e6) ++sustained;
  }
  EXPECT_GE(sustained, kStreams * 9 / 10);
}

TEST(RandomClient, OffsetsAlignedAndInBounds) {
  sim::Simulator sim;
  std::vector<core::ClientRequest> seen;
  RequestSink sink = [&](core::ClientRequest req) {
    seen.push_back(req);
    if (seen.size() < 50) {
      sim.schedule_after(usec(10), [cb = std::move(req.on_complete), &sim]() {
        cb(sim.now());
      });
    }
  };
  RandomClient client(sim, std::move(sink), 0, kCapacity, 16 * KiB, 1, /*seed=*/3);
  client.start();
  sim.run();
  EXPECT_EQ(seen.size(), 50u);
  std::set<ByteOffset> distinct;
  for (const auto& r : seen) {
    EXPECT_EQ(r.offset % kSectorSize, 0u);
    EXPECT_LE(r.offset + r.length, kCapacity);
    distinct.insert(r.offset);
  }
  EXPECT_GT(distinct.size(), 40u);  // actually random
}

TEST(UniformStreams, SingleDiskSpacing) {
  auto specs = make_uniform_streams(4, 1, 1 * GiB, 64 * KiB);
  ASSERT_EQ(specs.size(), 4u);
  const Bytes spacing = (1 * GiB) / 4;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(specs[i].device, 0u);
    EXPECT_EQ(specs[i].start_offset, i * spacing);
    EXPECT_EQ(specs[i].region_bytes, spacing);
  }
}

TEST(UniformStreams, MultiDiskRoundRobin) {
  auto specs = make_uniform_streams(8, 4, 1 * GiB, 64 * KiB);
  ASSERT_EQ(specs.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(specs[i].device, i % 4);
  }
  // Two streams per disk: second wave offset by capacity/2.
  EXPECT_EQ(specs[4].start_offset, (1 * GiB) / 2);
}

TEST(UniformStreams, SpacingSectorAligned) {
  auto specs = make_uniform_streams(7, 1, 80 * GiB + 12345, 64 * KiB);
  for (const auto& s : specs) {
    EXPECT_EQ(s.start_offset % kSectorSize, 0u);
  }
}

}  // namespace
}  // namespace sst::workload
