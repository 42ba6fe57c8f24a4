// Microbenchmark for the simulation core's hot paths (plain binary, no
// google-benchmark): raw event throughput through the pooled event slab,
// schedule+cancel churn, the controller extent cache, the staged client
// request path, a fig01-style end-to-end experiment, and the parallel sweep
// engine's speedup over a serial run. Counts — via global operator
// new/delete counters — the allocations of schedule/fire, schedule/cancel,
// trace-event recording, the controller cache and a staged client request
// once their slabs are warm.
//
// Usage: microbench_simulator [output.json]   (default BENCH_simcore.json)
// The binary measures; scripts/check_bench_regression.py holds every gate
// on its JSON (the alloc-free paths, zero-copy staging, the scaling and
// speedup floors). It exits 1 only when a workload did not do what it
// measures: a staged stream left undetected, a full controller cache with
// no hits, or a sharded run that did not shard.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/block_device.hpp"
#include "controller/cache.hpp"
#include "core/scheduler.hpp"
#include "core/server.hpp"
#include "core/staging_area.hpp"
#include "experiment/sweep.hpp"
#include "node/storage_node.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

#if defined(SST_WITH_URING)
#include <functional>
#include <memory>

#include "blockdev/uring_block_device.hpp"
#include "exec/real_context.hpp"
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sst;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BenchResult {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t steady_state_allocations = 0;
  /// Machine/disk-dependent entries (the real-I/O uring numbers): exported
  /// with "informational": true so check_bench_regression.py reports them
  /// without gating on runner variance, and tolerates their absence when
  /// the current run had no backing file.
  bool informational = false;
};

/// Self-rescheduling event chains: the steady-state firing path.
/// Every fired event re-schedules itself, so slab slots and queue records
/// are recycled continuously — the case the pooled slab optimizes for.
/// Measured at two pending-set sizes: 64 chains (a single small config)
/// and 8192 chains (the large-sweep regime, where comparison-based queues
/// pay O(log n) with cache misses per event and the timer wheel stays O(1)).
BenchResult bench_event_throughput(const char* name, std::uint32_t kChains) {
  constexpr std::uint64_t kWarmupEvents = 200'000;
  constexpr std::uint64_t kMeasureEvents = 2'000'000;

  sim::Simulator simulator;
  struct Chain {
    sim::Simulator* sim;
    SimTime period;
    void fire() { sim->schedule_after(period, [this] { fire(); }); }
  };
  std::vector<Chain> chains;
  chains.reserve(kChains);
  for (std::uint32_t i = 0; i < kChains; ++i) {
    chains.push_back(Chain{&simulator, usec(10) + i});
    chains.back().fire();
  }

  while (simulator.executed_events() < kWarmupEvents) simulator.step();

  const std::uint64_t allocs_before = g_allocations.load();
  const std::uint64_t executed_before = simulator.executed_events();
  const auto start = Clock::now();
  while (simulator.executed_events() < executed_before + kMeasureEvents) simulator.step();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;

  return {name, static_cast<double>(kMeasureEvents) / elapsed, "events/sec",
          allocs};
}

/// Schedule-then-cancel churn: the timeout-maintenance path (buffer and
/// stream timeouts are scheduled pessimistically and usually cancelled).
BenchResult bench_schedule_cancel() {
  constexpr std::uint32_t kBatch = 4096;
  constexpr std::uint32_t kWarmupRounds = 8;
  constexpr std::uint32_t kMeasureRounds = 256;

  sim::Simulator simulator;
  std::vector<exec::TaskHandle> handles;
  handles.reserve(kBatch);

  auto round = [&] {
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      handles.push_back(simulator.schedule_after(sec(1) + i, [] {}));
    }
    for (auto& h : handles) h.cancel();
    handles.clear();
    simulator.run();  // drain the dead queue records
  };

  for (std::uint32_t r = 0; r < kWarmupRounds; ++r) round();

  const std::uint64_t allocs_before = g_allocations.load();
  const auto start = Clock::now();
  for (std::uint32_t r = 0; r < kMeasureRounds; ++r) round();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;

  const double ops = 2.0 * kBatch * kMeasureRounds;  // schedule + cancel
  return {"schedule_cancel", ops / elapsed, "ops/sec", allocs};
}

/// Trace-event recording into a warmed slab: the path every instrumented
/// component hits when tracing is enabled. Must stay allocation-free so
/// enabling a trace never perturbs what it measures.
BenchResult bench_tracer_record() {
  constexpr std::uint64_t kWarmupEvents = 1 << 16;
  constexpr std::uint64_t kMeasureEvents = 1 << 21;

  obs::Tracer tracer(kWarmupEvents + kMeasureEvents);
  for (std::uint64_t i = 0; i < kWarmupEvents; i += 2) {
    tracer.complete(obs::disk_track(0), "disk", "cmd", i, i + 1);
    tracer.instant(obs::kSchedulerTrack, "scheduler", "rotation", i, "stream",
                   static_cast<double>(i));
  }

  const std::uint64_t allocs_before = g_allocations.load();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kMeasureEvents; i += 2) {
    tracer.complete(obs::disk_track(0), "disk", "cmd", i, i + 1);
    tracer.instant(obs::kSchedulerTrack, "scheduler", "rotation", i, "stream",
                   static_cast<double>(i));
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  if (tracer.event_count() != kWarmupEvents + kMeasureEvents) {
    std::fprintf(stderr, "tracer_record: lost events\n");
    std::exit(1);
  }

  return {"tracer_record", static_cast<double>(kMeasureEvents) / elapsed,
          "events/sec", allocs};
}

/// Flight-recorder journaling: the always-on lifecycle ring every request
/// writes through. Must stay allocation-free (the ring is preallocated and
/// wraps in place) so leaving the recorder enabled costs nothing beyond a
/// few stores per event.
BenchResult bench_flight_record() {
  constexpr std::uint64_t kWarmupEvents = 1 << 16;
  constexpr std::uint64_t kMeasureEvents = 1 << 22;

  obs::FlightRecorder flight;  // default capacity: the ring wraps many times
  for (std::uint64_t i = 0; i < kWarmupEvents; ++i) {
    flight.record(obs::FlightCode::kServe, i, i, i & 7, 64 * KiB);
  }

  const std::uint64_t allocs_before = g_allocations.load();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kMeasureEvents; ++i) {
    flight.record(obs::FlightCode::kServe, i, i, i & 7, 64 * KiB);
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  if (flight.recorded() != kWarmupEvents + kMeasureEvents) {
    std::fprintf(stderr, "flight_record: lost events\n");
    std::exit(1);
  }

  return {"flight_record", static_cast<double>(kMeasureEvents) / elapsed,
          "events/sec", allocs};
}

/// Steady-state staging churn: stage -> fill -> zero-copy consume -> reap,
/// the scheduler's per-request data path. Extent recycling plus the pooled
/// IoBuffer storage must make this allocation-free once warm, and the
/// zero-copy serve path must move data without a single memcpy.
void bench_staging(std::vector<BenchResult>& results) {
  constexpr std::uint64_t kWarmupRounds = 1024;
  constexpr std::uint64_t kMeasureRounds = 1 << 18;
  constexpr Bytes kExtent = 64 * KiB;

  core::StagingArea staging(16 * MiB, /*materialize=*/true);
  core::Stream stream;
  stream.id = 1;

  core::StagedSlice slice;  // held across rounds: exercises refcount recycling
  const core::DataSink sink = [&slice](core::StagedSlice s) { slice = std::move(s); };
  auto round = [&](std::uint64_t r) {
    const ByteOffset off = r * kExtent;
    if (staging.stage(stream, off, kExtent, 0) == nullptr) {
      std::fprintf(stderr, "staging_zero_copy: budget exhausted\n");
      std::exit(1);
    }
    staging.mark_filled(stream, off, 1);
    staging.consume(stream, off, kExtent, nullptr, 2, sink);
    staging.reap(stream);
  };

  for (std::uint64_t r = 0; r < kWarmupRounds; ++r) round(r);

  const Bytes copied_before = staging.stats().bytes_copied;
  const std::uint64_t allocs_before = g_allocations.load();
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < kMeasureRounds; ++r) round(kWarmupRounds + r);
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  const Bytes copied = staging.stats().bytes_copied - copied_before;

  results.push_back({"staging_zero_copy",
                     static_cast<double>(kMeasureRounds) / elapsed, "consumes/sec",
                     allocs});
  results.push_back({"staging_copied_bytes_per_request",
                     static_cast<double>(copied) / static_cast<double>(kMeasureRounds),
                     "bytes", 0});
}

/// Storage-free device: the find_stream bench only exercises the stream
/// index, so requests never reach the device.
class NullDevice final : public blockdev::BlockDevice {
 public:
  void submit(blockdev::BlockRequest request) override {
    if (request.on_complete) request.on_complete(0, IoStatus::kOk);
  }
  [[nodiscard]] Bytes capacity() const override { return Bytes{1} << 60; }
  [[nodiscard]] std::string name() const override { return "null"; }
};

/// ns per find_stream lookup with `streams` live streams on one device.
double time_find_stream(std::uint32_t streams) {
  constexpr Bytes kSpacing = 4 * MiB;
  constexpr std::uint64_t kLookups = 1 << 20;

  sim::Simulator simulator;
  NullDevice dev;
  core::SchedulerParams params;
  core::StreamScheduler sched(simulator, {&dev}, params);
  for (std::uint32_t i = 0; i < streams; ++i) {
    const ByteOffset start = static_cast<ByteOffset>(i) * kSpacing;
    sched.create_stream(0, start, start);
  }

  // Deterministic pseudo-random probe sequence over the claimed ranges.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t hits = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kLookups; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const ByteOffset offset = (x % streams) * kSpacing;
    hits += sched.find_stream(0, offset) != nullptr;
  }
  const double elapsed = seconds_since(start);
  if (hits != kLookups) {
    std::fprintf(stderr, "find_stream: lost streams (%llu/%llu hits)\n",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(kLookups));
    std::exit(1);
  }
  return elapsed / static_cast<double>(kLookups) * 1e9;
}

/// Cost growth of the O(log n) stream index over 32x the stream population
/// (gated in scripts/check_bench_regression.py).
void bench_find_stream(std::vector<BenchResult>& results) {
  const double ns_small = time_find_stream(1024);
  const double ns_large = time_find_stream(32768);
  const double ratio = ns_small > 0 ? ns_large / ns_small : 0.0;
  results.push_back({"find_stream_1k", ns_small, "ns/lookup", 0});
  results.push_back({"find_stream_32k", ns_large, "ns/lookup", 0});
  results.push_back({"find_stream_scaling", ratio, "x", 0});
}

/// Completes each request a fixed service time after submission through
/// the simulator's event queue: a device without a disk model, so the
/// staged request path's own cost is what the bench sees.
class TimedDevice final : public blockdev::BlockDevice {
 public:
  explicit TimedDevice(sim::Simulator& simulator) : sim_(simulator) {}
  void submit(blockdev::BlockRequest request) override {
    const SimTime service = usec(100) + nsec(4) * static_cast<SimTime>(request.length);
    sim_.schedule_after(service, [this, done = std::move(request.on_complete)]() {
      done(sim_.now(), IoStatus::kOk);
    });
  }
  [[nodiscard]] Bytes capacity() const override { return Bytes{1} << 40; }
  [[nodiscard]] std::string name() const override { return "timed"; }

 private:
  sim::Simulator& sim_;
};

/// The staged client request path end to end: 64 closed-loop StreamClients
/// feed one StorageServer over 8 TimedDevices, at the paper's D = S point
/// (D = 64, R = 512 KiB, N = 1, M = D * R). After 2 simulated seconds of
/// warm-up every stream is detected and every pool is warm; the next 4 s
/// must not allocate — the client's and the read-ahead's completion
/// closures both have to fit std::function's inline buffer. Reports the
/// measured window's wall time.
BenchResult bench_staged_request_path() {
  constexpr std::uint32_t kDevices = 8;
  constexpr std::uint32_t kStreams = 64;
  constexpr Bytes kReadAhead = 512 * KiB;

  sim::Simulator simulator;
  std::deque<TimedDevice> devices;
  std::vector<blockdev::BlockDevice*> device_ptrs;
  for (std::uint32_t d = 0; d < kDevices; ++d) {
    device_ptrs.push_back(&devices.emplace_back(simulator));
  }
  core::SchedulerParams params;
  params.dispatch_set_size = kStreams;
  params.read_ahead = kReadAhead;
  params.requests_per_residency = 1;
  params.memory_budget = static_cast<Bytes>(kStreams) * kReadAhead;
  core::StorageServer server(simulator, device_ptrs, params);

  const Bytes capacity = devices.front().capacity();
  const workload::RequestSink sink = [&server](core::ClientRequest req) {
    server.submit(std::move(req));
  };
  const auto specs = workload::make_uniform_streams(kStreams, kDevices, capacity, 64 * KiB);
  std::deque<workload::StreamClient> clients;
  for (const auto& spec : specs) clients.emplace_back(simulator, sink, spec, capacity).start();
  const auto completed = [&clients] {
    std::uint64_t n = 0;
    for (const auto& client : clients) n += client.stats().completed;
    return n;
  };

  simulator.run_until(sec(2));
  const std::uint64_t completed_before = completed();
  const std::uint64_t allocs_before = g_allocations.load();
  const auto start = Clock::now();
  simulator.run_until(sec(6));
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;

  const auto& stats = server.scheduler().stats();
  if (completed() == completed_before || stats.streams_created != kStreams ||
      stats.requests_failed != 0) {
    std::fprintf(stderr, "staged_request_path: expected every stream detected and served\n");
    std::exit(1);
  }
  return {"staged_request_path", elapsed, "sec", allocs};
}

/// ns per controller-cache round on a full cache of `extents` 64 KiB
/// extents: a missed lookup, the reserve it triggers (evicting the LRU
/// extent) and the mark_filled that completes it, which is
/// Controller::handle_read's path for a request its cache does not hold.
/// 1.5x as many sequential streams as extents, spread over eight disks, as
/// on a controller whose streams thrash its cache.
BenchResult time_ctrl_cache(const char* name, std::uint32_t extents) {
  constexpr Lba kExtent = 128;
  constexpr Lba kRequest = 16;
  constexpr std::uint32_t kDisks = 8;
  constexpr Lba kStreamSpacing = Lba{1} << 30;
  constexpr std::uint64_t kRounds = 1 << 19;

  const std::uint32_t streams = extents + extents / 2;
  ctrl::ExtentCache cache(extents * sectors_to_bytes(kExtent));
  std::vector<Lba> next(streams);
  for (std::uint32_t i = 0; i < streams; ++i) next[i] = (i / kDisks) * kStreamSpacing;

  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  SimTime now = 0;
  const auto round = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto stream = static_cast<std::uint32_t>(x % streams);
    const Lba lba = next[stream];
    next[stream] += kExtent;
    (void)cache.lookup(stream % kDisks, lba, kRequest, now);
    const auto id = cache.reserve(stream % kDisks, lba, kExtent, kRequest, now);
    (void)cache.mark_filled(id, ++now);
  };
  for (std::uint32_t i = 0; i < 2 * streams; ++i) round();  // fill the cache

  const std::uint64_t allocs_before = g_allocations.load();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kRounds; ++i) round();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  if (cache.stats().hits != 0 || cache.extent_count() != extents) {
    std::fprintf(stderr, "%s: expected a full cache and only misses (%zu extents, %llu hits)\n",
                 name, cache.extent_count(),
                 static_cast<unsigned long long>(cache.stats().hits));
    std::exit(1);
  }
  return {name, elapsed / static_cast<double>(kRounds) * 1e9, "ns/op", allocs};
}

/// Cost growth of the O(log n) controller cache over 32x the extents
/// (gated in scripts/check_bench_regression.py).
void bench_ctrl_cache(std::vector<BenchResult>& results) {
  const BenchResult small = time_ctrl_cache("ctrl_cache_256", 256);
  const BenchResult large = time_ctrl_cache("ctrl_cache_8k", 8192);
  const double ratio = small.value > 0 ? large.value / small.value : 0.0;
  results.push_back(small);
  results.push_back(large);
  results.push_back({"ctrl_cache_scaling", ratio, "x", 0});
}

experiment::ExperimentConfig small_fig01_config(std::uint32_t streams) {
  node::NodeConfig node;
  node.num_controllers = 2;
  node.disks_per_controller = 2;
  experiment::ExperimentConfig cfg;
  cfg.topology.node = node;
  cfg.warmup = sec(1);
  cfg.measure = sec(4);
  cfg.streams = workload::make_uniform_streams(streams, node.total_disks(),
                                               node.disk.geometry.capacity, 64 * KiB);
  return cfg;
}

/// End-to-end wall-clock for one fig01-style experiment.
BenchResult bench_end_to_end() {
  const auto cfg = small_fig01_config(40);
  const auto start = Clock::now();
  const auto result = experiment::run_experiment(cfg);
  const double elapsed = seconds_since(start);
  if (result.requests_completed == 0) {
    std::fprintf(stderr, "end_to_end: experiment completed no requests\n");
    std::exit(1);
  }
  return {"fig01_end_to_end", elapsed, "sec", 0};
}

/// Serial vs parallel run_sweep over a small grid. On multi-core hosts the
/// speedup approaches min(workers, grid size); on one core it is ~1.
void bench_sweep(std::vector<BenchResult>& results) {
  std::vector<experiment::ExperimentConfig> grid;
  for (const std::uint32_t streams : {8, 16, 24, 32}) {
    grid.push_back(small_fig01_config(streams));
  }

  const auto serial_start = Clock::now();
  const auto serial = experiment::run_sweep(grid, 1);
  const double serial_sec = seconds_since(serial_start);

  const unsigned workers = experiment::default_sweep_workers();
  const auto par_start = Clock::now();
  const auto parallel = experiment::run_sweep(grid, workers);
  const double par_sec = seconds_since(par_start);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (serial[i].total_mbps != parallel[i].total_mbps ||
        serial[i].requests_completed != parallel[i].requests_completed) {
      std::fprintf(stderr, "sweep: serial/parallel results diverge at point %zu\n", i);
      std::exit(1);
    }
  }

  results.push_back({"sweep_serial", serial_sec, "sec", 0});
  results.push_back({"sweep_parallel", par_sec, "sec", 0});
  results.push_back({"sweep_speedup", par_sec > 0 ? serial_sec / par_sec : 0.0,
                     "x", 0});
  results.push_back({"sweep_workers", static_cast<double>(workers), "threads", 0});
}

/// Fig12-style deployment for sharded runs, scaled up so the parallel
/// measurement means something: 8 controllers (so 1/2/4/8 shards split at
/// controller boundaries) of 8 disks each, the paper's staged parameters
/// (D = S, N = 1), pipelined clients, and a small read-ahead so the
/// disk/scheduler machinery — the work that lives in the cells —
/// dominates. The paper's default host-CPU overheads are deliberately
/// cheapened: at fig12's defaults the modelled host CPU serializes ~9k
/// ops/sim-sec (that bottleneck is the *subject* of fig12), which would
/// leave the cells little event work to share. Each cell schedules
/// against its share of the dispatch set and memory and its own host CPU
/// model, so the sharded run is a slightly different experiment: the
/// 4-shard run dispatches 295,736 events against the single Simulator's
/// 299,488, for 1.4% fewer requests (74,192 against 75,269), split evenly
/// across its cells. The speedup therefore compares nearly equal work.
experiment::ExperimentConfig fig12_shard_config(std::uint32_t shards) {
  node::NodeConfig node;
  node.num_controllers = 8;
  node.disks_per_controller = 8;
  const std::uint32_t streams = 512;  // 8 per disk: seeks, but not thrash
  core::SchedulerParams params;
  params.dispatch_set_size = streams;
  params.read_ahead = 32 * KiB;
  params.requests_per_residency = 1;
  params.memory_budget = static_cast<Bytes>(streams) * 32 * KiB;
  params.host.issue_base = usec(2);
  params.host.complete_base = usec(1);
  params.host.per_buffer = nsec(10);
  experiment::ExperimentConfig cfg;
  cfg.topology.node = node;
  cfg.scheduler = params;
  cfg.streams = workload::make_uniform_streams(streams, node.total_disks(),
                                               node.disk.geometry.capacity, 16 * KiB);
  for (auto& spec : cfg.streams) spec.outstanding = 8;  // hide the hop latency
  cfg.warmup = msec(500);
  cfg.measure = sec(2);
  cfg.shards = shards;
  return cfg;
}

/// Wall-clock for the same fig12-style workload at 1/2/4/8 shards, plus
/// the speedup of 4 shards over the single-threaded engine — the number
/// the regression gate tracks under the "speedup" unit, whose >= 2x floor
/// lives in scripts/check_bench_regression.py. Below 4 cores the figure is
/// emitted under the ungated "x" unit instead, because a speedup measured
/// without the cores to run the shards cannot mean anything.
void bench_parallel_sim(std::vector<BenchResult>& results) {
  double single_sec = 0.0;
  double four_sec = 0.0;
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    const auto cfg = fig12_shard_config(shards);
    const auto start = Clock::now();
    const auto result = experiment::run_experiment(cfg);
    const double elapsed = seconds_since(start);
    if (result.requests_completed == 0) {
      std::fprintf(stderr, "sim_parallel: %u-shard run completed no requests\n",
                   shards);
      std::exit(1);
    }
    if (shards > 1 && result.shard_summary.shards != shards) {
      std::fprintf(stderr, "sim_parallel: %u-shard run sharded wrong (%u shards)\n", shards,
                   result.shard_summary.shards);
      std::exit(1);
    }
    results.push_back({"sim_parallel_" + std::to_string(shards) + "shard",
                       elapsed, "sec", 0});
    if (shards == 1) single_sec = elapsed;
    if (shards == 4) four_sec = elapsed;
  }
  const double speedup = four_sec > 0 ? single_sec / four_sec : 0.0;
  const unsigned cores = std::thread::hardware_concurrency();
  results.push_back(
      {"sim_parallel_speedup", speedup, cores >= 4 ? "speedup" : "x", 0});
  if (cores < 4) {
    std::printf("sim_parallel: only %u cores, speedup emitted ungated\n", cores);
  }
}

#if defined(SST_WITH_URING)
/// Real-I/O ring round-trip: closed-loop 4 KiB reads against the file named
/// by SST_URING_BENCH_FILE (pattern-format it with scripts/mkpattern.py
/// first), at queue depth 1 (pure submit->complete latency) and 32
/// (pipelined IOPS). Results are machine- and disk-dependent, so the
/// entries are informational: they are not part of the committed baseline,
/// and check_bench_regression.py never gates names absent from it. The
/// bench is skipped entirely — emitting nothing — when the env var is
/// unset, which keeps the default BENCH_simcore.json byte-stable.
void bench_uring_roundtrip(std::vector<BenchResult>& results) {
  const char* path = std::getenv("SST_URING_BENCH_FILE");
  if (path == nullptr) return;

  for (const std::uint32_t depth : {1u, 32u}) {
    exec::RealContext ctx;
    blockdev::UringParams params;
    params.path = path;
    params.queue_depth = depth;
    auto opened = blockdev::UringBlockDevice::open(ctx, params);
    if (!opened.ok()) {
      std::fprintf(stderr, "uring_roundtrip: %s\n", opened.error().message.c_str());
      return;
    }
    auto dev = std::move(opened.value());

    constexpr Bytes kLen = 4 * KiB;
    constexpr std::uint64_t kWarmup = 1'000;
    constexpr std::uint64_t kMeasure = 20'000;
    const Bytes span = dev->capacity() / kLen * kLen;

    struct AlignedFree {
      void operator()(std::byte* p) const { std::free(p); }
    };
    std::vector<std::unique_ptr<std::byte, AlignedFree>> bufs;
    for (std::uint32_t i = 0; i < depth; ++i) {
      bufs.emplace_back(
          static_cast<std::byte*>(std::aligned_alloc(4096, kLen)));
    }

    std::uint64_t completed = 0;
    std::uint64_t latency_ns_sum = 0;
    double measured_sec = 0.0;
    ByteOffset cursor = 0;
    auto t0 = Clock::now();
    std::function<void(std::byte*)> submit_one = [&](std::byte* buf) {
      blockdev::BlockRequest req;
      req.offset = cursor;
      cursor = (cursor + kLen) % span;
      req.length = kLen;
      req.op = IoOp::kRead;
      req.data = buf;
      const auto submitted = Clock::now();
      req.on_complete = [&, buf, submitted](SimTime, IoStatus status) {
        if (status != IoStatus::kOk) {
          std::fprintf(stderr, "uring_roundtrip: read failed\n");
          std::exit(1);
        }
        ++completed;
        if (completed == kWarmup) t0 = Clock::now();
        if (completed > kWarmup) {
          latency_ns_sum += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                   submitted)
                  .count());
        }
        if (completed == kWarmup + kMeasure) measured_sec = seconds_since(t0);
        if (completed < kWarmup + kMeasure) submit_one(buf);
      };
      dev->submit(std::move(req));
    };
    for (auto& buf : bufs) submit_one(buf.get());
    while (completed < kWarmup + kMeasure || dev->in_flight() > 0) {
      ctx.run_until(ctx.now() + msec(10));
    }

    const std::string suffix = "_d" + std::to_string(depth);
    results.push_back({"uring_roundtrip_iops" + suffix,
                       static_cast<double>(kMeasure) / measured_sec, "iops", 0,
                       true});
    results.push_back({"uring_roundtrip_mean_us" + suffix,
                       static_cast<double>(latency_ns_sum) / 1e3 /
                           static_cast<double>(kMeasure),
                       "us", 0, true});
    // Submission-batching figure of merit: io_uring_enter calls per
    // completed request. One-enter-per-SQE scores >= 1.0; the batched
    // reactor at depth pipelines well below that (CI asserts < 0.2 at
    // depth 32 — a > 5x reduction).
    const auto& st = dev->stats();
    results.push_back({"uring_roundtrip_spr" + suffix,
                       st.completed > 0 ? static_cast<double>(st.enter_syscalls) /
                                              static_cast<double>(st.completed)
                                        : 0.0,
                       "enters/req", 0, true});
  }
}
#endif  // SST_WITH_URING

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_simcore.json";

  std::vector<BenchResult> results;
  results.push_back(bench_event_throughput("event_throughput", 64));
  results.push_back(bench_event_throughput("event_throughput_8k", 8192));
  results.push_back(bench_schedule_cancel());
  results.push_back(bench_tracer_record());
  results.push_back(bench_flight_record());
  bench_staging(results);
  results.push_back(bench_end_to_end());
  bench_find_stream(results);
  results.push_back(bench_staged_request_path());
  bench_ctrl_cache(results);
  bench_sweep(results);
  bench_parallel_sim(results);
#if defined(SST_WITH_URING)
  bench_uring_roundtrip(results);
#endif

  for (const auto& r : results) {
    std::printf("%-20s %14.1f %-10s steady-state allocs: %llu\n", r.name.c_str(),
                r.value, r.unit.c_str(),
                static_cast<unsigned long long>(r.steady_state_allocations));
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\", "
                 "\"steady_state_allocations\": %llu%s}%s\n",
                 r.name.c_str(), r.value, r.unit.c_str(),
                 static_cast<unsigned long long>(r.steady_state_allocations),
                 r.informational ? ", \"informational\": true" : "",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
