// Quickstart: the smallest end-to-end use of the streamstore public API.
//
//   1. Create a simulator and a storage node (1 controller, 1 WD800JD disk).
//   2. Front it with the StorageServer (classifier + stream scheduler).
//   3. Attach 30 closed-loop sequential readers.
//   4. Run, and compare against the same workload without the scheduler.
//
// Build & run:  ./build/examples/quickstart [key=value ...]
// Keys: streams=30 request=64K readahead=8M memory=256M seconds=10
#include <cstdio>
#include <vector>

#include "common/config.hpp"
#include "experiment/runner.hpp"
#include "node/storage_node.hpp"
#include "workload/generator.hpp"

using namespace sst;

int main(int argc, char** argv) {
  auto parsed = Config::from_args(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const Config& cfg = parsed.value();
  const std::uint32_t streams = cfg.get_uint32("streams", 30);
  const Bytes request = cfg.get_bytes("request", 64 * KiB);
  const Bytes read_ahead = cfg.get_bytes("readahead", 8 * MiB);
  const Bytes memory = cfg.get_bytes("memory", 256 * MiB);
  const SimTime measure = from_seconds(cfg.get_double("seconds", 10.0));
  if (const Status read = cfg.status(true); !read.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", read.error().message.c_str());
    return 1;
  }

  experiment::ExperimentConfig ec;
  ec.topology.node = node::NodeConfig::base();  // 1 controller x 1 disk
  ec.measure = measure;
  ec.streams = workload::make_uniform_streams(streams, 1,
                                              ec.topology.node.disk.geometry.capacity, request);

  // Baseline: clients talk to the disk directly.
  const auto baseline = experiment::run_experiment(ec);

  // The paper's system: classifier + dispatch/buffered sets.
  core::SchedulerParams params;
  params.read_ahead = read_ahead;
  params.memory_budget = memory;
  ec.scheduler = params;
  const auto system = experiment::run_experiment(ec);

  std::printf("workload: %u sequential streams of %llu KB reads on one disk\n\n",
              streams, static_cast<unsigned long long>(request / KiB));
  std::printf("  baseline (raw disk)     : %6.1f MB/s   mean latency %7.2f ms\n",
              baseline.total_mbps, baseline.latency.mean_ms());
  std::printf("  stream scheduler        : %6.1f MB/s   mean latency %7.2f ms\n",
              system.total_mbps, system.latency.mean_ms());
  std::printf("  improvement             : %6.2fx\n\n",
              system.total_mbps / baseline.total_mbps);

  const auto& s = system.scheduler_stats;
  std::printf("scheduler internals: %llu streams detected, %llu disk reads of %llu KB,\n",
              static_cast<unsigned long long>(s.streams_created),
              static_cast<unsigned long long>(s.disk_reads),
              static_cast<unsigned long long>(read_ahead / KiB));
  std::printf("  %llu client requests served (%llu staged-buffer hits), peak buffer memory %llu MB\n",
              static_cast<unsigned long long>(s.client_completions),
              static_cast<unsigned long long>(s.buffer_hits),
              static_cast<unsigned long long>(system.peak_buffer_memory / MiB));
  return 0;
}
