#include "workloads.hpp"

#include "common/random.hpp"
#include "core/params.hpp"
#include "node/storage_node.hpp"
#include "workload/generator.hpp"

namespace sst::bench {

namespace {

/// Uniform placement (stream i on device i % devices, slots of
/// capacity / streams-per-device), each start shifted by a seeded,
/// request-aligned amount below 1/16 of its slot. The shifted stream keeps
/// to its own slot, so streams never overlap. The bound keeps region
/// lengths within 6% of each other: on the real workloads a stream wraps at
/// its region end, and wraps cost direct reads, so much shorter regions
/// would make throughput depend on the seed.
std::vector<workload::StreamSpec> place_streams(std::uint32_t streams, std::uint32_t devices,
                                                Bytes capacity, Bytes request,
                                                std::uint64_t seed) {
  std::vector<workload::StreamSpec> specs =
      workload::make_uniform_streams(streams, devices, capacity, request);
  Rng rng(derive_seed(seed, 0x504C414345ULL /* "PLACE" */));
  for (workload::StreamSpec& spec : specs) {
    const Bytes shift = rng.next_below(spec.region_bytes / 16 / request) * request;
    spec.start_offset += shift;
    spec.region_bytes -= shift;
  }
  return specs;
}

/// Exactly one stream in each run of four consecutive streams writes; the
/// seed picks which.
void pick_writers(std::vector<workload::StreamSpec>& specs, std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0x5752495445ULL /* "WRITE" */));
  for (std::size_t group = 0; group < specs.size(); group += 4) {
    const std::size_t writer = group + rng.next_below(4);
    if (writer < specs.size()) specs[writer].op = IoOp::kWrite;
  }
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      // Core scheduler + event engine; fig13's D=S point (steady for 1000+
      // simulated seconds, unlike its D=8 point, which decays).
      {"sim_staged", false, sec(4), sec(200), sec(200), sec(2), 800},
      // Disk and controller models, reads and writes; core idle.
      // Its traced run also times the sharded engine (2 shards at the
      // default lookahead); sim_staged's 800 dispatch-bound streams run
      // about 20x slower sharded, too slow to time in a run.
      {"sim_raw_rw", false, sec(4), sec(6), sec(6), sec(2), 6400, true},
      // Core, the HostCpu model and large READ_FIXED read-aheads.
      {"real_sched", true, 0, sec(5), sec(5), msec(200), 256},
      // Reactor and ring submit/reap; core idle.
      {"real_raw", true, 0, sec(5), sec(5), msec(200), 64},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

experiment::ExperimentConfig make_config(const Workload& w, std::uint64_t seed, SimTime window,
                                         const std::string& backing_file) {
  experiment::ExperimentConfig cfg;
  cfg.warmup = w.warmup;
  cfg.measure = window;
  if (w.name == "sim_staged") {
    cfg.topology.node = node::NodeConfig::medium();
    cfg.streams = place_streams(w.streams, cfg.topology.logical_device_count(),
                                cfg.topology.logical_device_capacity(), 64 * KiB, seed);
    core::SchedulerParams sched;
    sched.dispatch_set_size = w.streams;  // D = S
    sched.read_ahead = 512 * KiB;
    sched.requests_per_residency = 1;
    sched.memory_budget = static_cast<Bytes>(w.streams) * sched.read_ahead;
    cfg.scheduler = sched;
  } else if (w.name == "sim_raw_rw") {
    cfg.topology.node = node::NodeConfig::large();
    cfg.streams = place_streams(w.streams, cfg.topology.logical_device_count(),
                                cfg.topology.logical_device_capacity(), 64 * KiB, seed);
    pick_writers(cfg.streams, seed);
  } else {
    // Real workloads: four logical devices, each a quarter of the file.
    cfg.topology.node = node::NodeConfig::base();
    cfg.topology.node.num_controllers = kRealDevices;
    cfg.backend.kind = experiment::BackendConfig::Kind::kReal;
    cfg.backend.path = backing_file;
    // Page-cached buffered reads: the kernel completes them inline instead
    // of handing them to io-wq worker threads.
    cfg.backend.direct = false;
    const Bytes slice = kBackingBytes / kRealDevices;
    if (w.name == "real_sched") {
      cfg.streams = place_streams(w.streams, kRealDevices, slice, 64 * KiB, seed);
      core::SchedulerParams sched;
      sched.read_ahead = 1 * MiB;
      sched.memory_budget = 256 * MiB;  // D derives to S = 256
      cfg.scheduler = sched;
      cfg.backend.queue_depth = 32;
      cfg.backend.reactors = 2;
    } else {
      // 64 KiB, like real_sched's client reads: with 16 KiB requests the
      // run measured mostly the host's momentary core speed, and its p99
      // spread between runs twice as far as with 64 KiB (README.md).
      cfg.streams = place_streams(w.streams, kRealDevices, slice, 64 * KiB, seed);
      cfg.backend.queue_depth = 16;
      cfg.backend.reactors = 1;
    }
  }
  return cfg;
}

}  // namespace sst::bench
