#include "cell.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "blockdev/uring_block_device.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/sharding.hpp"
#include "node/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace sst::bench {

ModelOutputs model_outputs(const experiment::ExperimentConfig& config,
                           const experiment::ExperimentResult& result) {
  ModelOutputs out;
  out.total_mbps = result.total_mbps;
  out.min_stream_mbps = result.min_stream_mbps;
  for (std::size_t i = 0; i < config.streams.size() && i < result.stream_mbps.size(); ++i) {
    if (config.streams[i].op == IoOp::kWrite) out.write_mbps += result.stream_mbps[i];
  }
  out.p50_ms = result.latency.p50_ms();
  out.p99_ms = result.latency.p99_ms();
  out.p999_ms = result.latency.p999_ms();
  out.requests_completed = result.requests_completed;
  out.client_errors = result.client_errors;
  return out;
}

namespace {

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(mono_ns() - start_ns) / 1e6;
}

/// Destination buffers for raw-path real reads (a request without data
/// transfers nothing): 4096-aligned, recycled per size.
class ScratchBuffers {
 public:
  std::byte* acquire(Bytes size) {
    auto& free_list = free_[size];
    if (!free_list.empty()) {
      std::byte* buffer = free_list.back();
      free_list.pop_back();
      return buffer;
    }
    void* mem = std::aligned_alloc(4096, size);
    if (mem == nullptr) throw std::bad_alloc();
    owned_.emplace_back(static_cast<std::byte*>(mem));
    return static_cast<std::byte*>(mem);
  }
  void release(std::byte* buffer, Bytes size) { free_[size].push_back(buffer); }

 private:
  struct FreeDeleter {
    void operator()(std::byte* ptr) const { std::free(ptr); }
  };
  std::unordered_map<Bytes, std::vector<std::byte*>> free_;
  std::vector<std::unique_ptr<std::byte, FreeDeleter>> owned_;
};

/// The layers above the devices — the server (or the raw pass-through that
/// stands in its place) and the clients — wired through the probes. Member
/// order is teardown order in reverse: clients go first, the contexts the
/// server cancels its timers through go last.
class Upper {
 public:
  Upper(exec::ExecutionContext& ctx, SpanRecorder& recorder)
      : ctx_(ctx),
        recorder_(recorder),
        core_ctx_(ctx, recorder, Span::kCoreTask),
        workload_ctx_(ctx, recorder, Span::kWorkloadTask) {}

  /// Server over `devices` when `params` is set, else a raw pass-through.
  /// `real_data` gives raw reads a destination buffer.
  void build(const std::vector<blockdev::BlockDevice*>& devices,
             const std::optional<core::SchedulerParams>& params, bool real_data) {
    if (params.has_value()) {
      server_ = std::make_unique<core::StorageServer>(core_ctx_, devices, *params);
      sink_ = [this](core::ClientRequest req) { server_->submit(std::move(req)); };
      return;
    }
    sink_ = [this, devices, real_data](core::ClientRequest req) {
      blockdev::BlockRequest io;
      io.offset = req.offset;
      io.length = req.length;
      io.op = req.op;
      io.id = req.id;
      io.on_complete = std::move(req.on_complete);
      if (real_data) {
        io.data = scratch_.acquire(req.length);
        io.on_complete = [this, data = io.data, length = req.length,
                          prev = std::move(io.on_complete)](SimTime done, IoStatus status) {
          scratch_.release(data, length);
          if (prev) prev(done, status);
        };
      }
      devices.at(req.device)->submit(std::move(io));
    };
  }

  void add_client(std::uint32_t ordinal, const workload::StreamSpec& spec, Bytes capacity) {
    ordinals_.push_back(ordinal);
    clients_.push_back(std::make_unique<workload::StreamClient>(workload_ctx_, probe(ordinal),
                                                                spec, capacity));
  }

  void start() {
    for (auto& client : clients_) client->start();
  }
  void begin_measurement() {
    for (auto& client : clients_) client->begin_measurement();
    issue_to_done_.reset();
  }
  /// Drop new client requests so in-flight I/O can drain before teardown.
  void stop_admitting() { draining_ = true; }

  [[nodiscard]] core::StorageServer* server() { return server_.get(); }
  [[nodiscard]] const stats::LatencyHistogram& issue_to_done() const { return issue_to_done_; }

  /// Client and server numbers for the window [t0, t1], stream_mbps laid
  /// out by global ordinal over `total_streams`.
  void harvest(experiment::ExperimentResult& r, SimTime t0, SimTime t1,
               std::size_t total_streams) const {
    r.stream_mbps.assign(total_streams, 0.0);
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      const workload::ClientStats& cs = clients_[i]->stats();
      const double mbps = cs.throughput.mbps(t0, t1);
      r.stream_mbps[ordinals_[i]] = mbps;
      r.total_mbps += mbps;
      r.requests_completed += cs.completed;
      r.client_errors += cs.errors;
      r.latency.merge(cs.latency);
    }
    if (server_) {
      core::StreamScheduler& sched = server_->scheduler();
      r.scheduler_stats = sched.stats();
      r.server_stats = server_->stats();
      r.classifier_stats = server_->classifier().stats();
      r.staging_stats = sched.staging_stats();
      r.host_cpu_utilization = sched.cpu().stats().utilization(t1);
      r.peak_buffer_memory = sched.pool().stats().peak_committed;
    }
  }

 private:
  /// The client's sink: a core.submit span around the call into the
  /// server, and a workload.complete span around the client's completion.
  workload::RequestSink probe(std::uint32_t ordinal) {
    return [this, ordinal, seq = std::uint64_t{0}](core::ClientRequest req) mutable {
      if (draining_) return;
      const std::uint64_t rid = (static_cast<std::uint64_t>(ordinal) << 32) | ++seq;
      const bool sample = mix64(rid) % 256 == 0;
      req.on_complete = [this, rid, sample, issued = ctx_.now(),
                         prev = std::move(req.on_complete)](SimTime done, IoStatus status) {
        if (io_ok(status)) issue_to_done_.add(ctx_.now() - issued);
        SpanScope scope(recorder_, Span::kClientComplete, rid, sample);
        if (prev) prev(done, status);
      };
      SpanScope scope(recorder_, Span::kClientSubmit, rid, sample);
      sink_(std::move(req));
    };
  }

  exec::ExecutionContext& ctx_;
  SpanRecorder& recorder_;
  TracingContext core_ctx_;
  TracingContext workload_ctx_;
  stats::LatencyHistogram issue_to_done_;
  ScratchBuffers scratch_;
  std::unique_ptr<core::StorageServer> server_;
  workload::RequestSink sink_;
  std::vector<std::uint32_t> ordinals_;
  std::vector<std::unique_ptr<workload::StreamClient>> clients_;
  bool draining_ = false;
};

/// Stream i's spec with the per-stream seed run_experiment would give it.
workload::StreamSpec seeded_spec(const experiment::ExperimentConfig& config, std::uint32_t i) {
  workload::StreamSpec spec = config.streams[i];
  if (spec.seed == 0) {
    spec.seed = experiment::stream_seed(
        experiment::shard_workload_seed(config.workload_seed, 0), i);
  }
  return spec;
}

/// Both sim workloads run on one simulator; sim_raw_rw's sharded engine
/// keeps its mailboxes internal, so its sharding cost is the gap between
/// the untraced (sharded) and this run.
CellReport run_sim(const experiment::ExperimentConfig& config) {
  CellReport report;
  SpanRecorder recorder(0);
  DeviceLedger ledger;
  sim::Simulator sim;

  std::uint64_t step = mono_ns();
  node::Topology topology(sim, config.topology);
  std::vector<std::unique_ptr<TimedDevice>> timed;
  std::vector<blockdev::BlockDevice*> devices;
  for (blockdev::BlockDevice* device : topology.devices()) {
    timed.push_back(std::make_unique<TimedDevice>(*device, sim, recorder, ledger));
    devices.push_back(timed.back().get());
  }
  report.setup_devices_ms = ms_since(step);

  step = mono_ns();
  Upper upper(sim, recorder);
  upper.build(devices, config.scheduler, /*real_data=*/false);
  report.setup_server_ms = ms_since(step);

  step = mono_ns();
  for (std::uint32_t i = 0; i < config.streams.size(); ++i) {
    const workload::StreamSpec spec = seeded_spec(config, i);
    upper.add_client(i, spec, topology.device_capacity(spec.device));
  }
  report.setup_clients_ms = ms_since(step);

  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t wall0 = mono_ns();
  upper.start();
  sim.run_until(config.warmup);
  upper.begin_measurement();
  const SimTime t0 = sim.now();
  const SimTime t1 = t0 + config.measure;
  sim.run_until(t1);
  report.run_cpu_ns = thread_cpu_ns() - cpu0;
  report.run_wall_ns = mono_ns() - wall0;

  upper.harvest(report.result, t0, t1, config.streams.size());
  report.result.disk_totals = topology.node().disk_totals();
  report.result.controller_totals = topology.node().controller_totals();
  report.result.sim_events_dispatched = sim.executed_events();
  report.events = sim.executed_events();
  report.elapsed = t1;
  report.issue_to_done = upper.issue_to_done();
  report.spans.merge(recorder);
  report.devices.merge(ledger);
  return report;
}

/// One reactor's share of a real run: a contiguous device range and the
/// streams homed on it (the same carving run_experiment_real does).
struct GroupPlan {
  std::uint32_t id = 0;
  std::uint32_t dev_begin = 0;
  std::uint32_t dev_count = 0;
  std::vector<std::uint32_t> streams;  ///< global ordinals
};

CellReport run_real_group(const experiment::ExperimentConfig& config, const GroupPlan& plan,
                          Bytes slice, std::uint32_t total_devices) {
  CellReport report;
  SpanRecorder recorder(plan.id);
  DeviceLedger ledger;
  exec::RealContext ctx;

  std::uint64_t step = mono_ns();
  std::vector<std::unique_ptr<blockdev::UringBlockDevice>> rings;
  std::vector<std::unique_ptr<TimedDevice>> timed;
  std::vector<blockdev::BlockDevice*> devices;
  for (std::uint32_t i = 0; i < plan.dev_count; ++i) {
    const std::uint32_t global = plan.dev_begin + i;
    blockdev::UringParams params;
    params.path = config.backend.path;
    params.base_offset = static_cast<ByteOffset>(global) * slice;
    params.capacity = slice;
    params.queue_depth = config.backend.queue_depth;
    params.direct = config.backend.direct;
    params.seed = kBackingSeed;
    params.label = "uring" + std::to_string(global);
    params.multiplex = plan.dev_count > 1;
    auto ring = blockdev::UringBlockDevice::open(ctx, params);
    if (!ring.ok()) throw std::runtime_error(ring.error().message);
    rings.push_back(std::move(ring).value());
    timed.push_back(std::make_unique<TimedDevice>(*rings.back(), ctx, recorder, ledger,
                                                  /*check=*/true, kBackingSeed,
                                                  params.base_offset));
    devices.push_back(timed.back().get());
  }
  report.setup_devices_ms = ms_since(step);

  step = mono_ns();
  Upper upper(ctx, recorder);
  std::optional<core::SchedulerParams> params = config.scheduler;
  if (params.has_value()) {
    if (plan.dev_count != total_devices) {
      params = experiment::slice_scheduler_params(*params, plan.dev_count, total_devices);
    }
    params->materialize_buffers = true;
  }
  upper.build(devices, params, /*real_data=*/true);
  if (core::StorageServer* server = upper.server()) {
    // Pre-warm the staging slab and register it with every ring, as the
    // real runner does, so read-aheads use fixed buffers.
    core::BufferPool& pool = server->scheduler().pool();
    {
      std::vector<std::unique_ptr<core::IoBuffer>> warm;
      for (std::uint32_t i = 0; i < config.backend.queue_depth; ++i) {
        auto buffer = pool.allocate(0, 0, params->read_ahead, ctx.now());
        if (buffer == nullptr) break;
        warm.push_back(std::move(buffer));
      }
    }
    const auto regions = pool.extent_slab().regions();
    for (auto& ring : rings) (void)ring->register_buffers(regions);
  }
  report.setup_server_ms = ms_since(step);

  step = mono_ns();
  for (const std::uint32_t ordinal : plan.streams) {
    workload::StreamSpec spec = seeded_spec(config, ordinal);
    spec.device -= plan.dev_begin;
    upper.add_client(ordinal, spec, slice);
  }
  report.setup_clients_ms = ms_since(step);

  auto in_flight = [&rings]() {
    std::size_t total = 0;
    for (const auto& ring : rings) total += ring->in_flight();
    return total;
  };
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t wall0 = mono_ns();
  upper.start();
  ctx.run_until(config.warmup);
  upper.begin_measurement();
  const SimTime t0 = ctx.now();
  const SimTime t1 = t0 + config.measure;
  ctx.run_until(t1);
  // Completions capture the clients and the probes: drain every ring
  // before anything above the devices is destroyed.
  upper.stop_admitting();
  while (in_flight() > 0) ctx.run_until(ctx.now() + msec(5));
  report.run_cpu_ns = thread_cpu_ns() - cpu0;
  report.run_wall_ns = mono_ns() - wall0;

  experiment::ExperimentResult& r = report.result;
  upper.harvest(r, t0, t1, config.streams.size());
  r.uring_summary.enabled = true;
  for (const auto& ring : rings) {
    const blockdev::UringStats& s = ring->stats();
    ++r.uring_summary.devices;
    r.uring_summary.submitted += s.submitted;
    r.uring_summary.completed += s.completed;
    r.uring_summary.errors += s.errors;
    r.uring_summary.fixed_buffer_ops += s.fixed_buffer_ops;
    r.uring_summary.enter_syscalls += s.enter_syscalls;
    r.uring_summary.flush_batches += s.flush_batches;
    r.uring_summary.sqes_flushed += s.sqes_flushed;
  }
  const exec::ReactorStats& rs = ctx.reactor_stats();
  r.reactor_summary.enabled = true;
  r.reactor_summary.wakeups = rs.wakeups;
  r.reactor_summary.completion_wakeups = rs.completion_wakeups;
  r.reactor_summary.timer_wakeups = rs.timer_wakeups;
  r.reactor_summary.spurious_wakeups = rs.spurious_wakeups;
  report.events = ctx.executed_tasks() + rs.completions;
  report.elapsed = t1 - t0;
  report.issue_to_done = upper.issue_to_done();
  report.spans.merge(recorder);
  report.devices.merge(ledger);
  return report;
}

/// Fold group `part` into `into` (counts add; setup steps ran in parallel,
/// so the slowest group's time is the step's time).
void merge_group(CellReport& into, const CellReport& part) {
  experiment::ExperimentResult& a = into.result;
  const experiment::ExperimentResult& b = part.result;
  a.stream_mbps.resize(b.stream_mbps.size(), 0.0);
  for (std::size_t i = 0; i < b.stream_mbps.size(); ++i) a.stream_mbps[i] += b.stream_mbps[i];
  a.total_mbps += b.total_mbps;
  a.requests_completed += b.requests_completed;
  a.client_errors += b.client_errors;
  a.latency.merge(b.latency);
  experiment::add_scheduler_stats(a.scheduler_stats, b.scheduler_stats);
  experiment::add_server_stats(a.server_stats, b.server_stats);
  experiment::add_classifier_stats(a.classifier_stats, b.classifier_stats);
  experiment::add_staging_stats(a.staging_stats, b.staging_stats);
  a.host_cpu_utilization = std::max(a.host_cpu_utilization, b.host_cpu_utilization);
  a.peak_buffer_memory += b.peak_buffer_memory;
  a.uring_summary.enabled = b.uring_summary.enabled;
  a.uring_summary.devices += b.uring_summary.devices;
  a.uring_summary.submitted += b.uring_summary.submitted;
  a.uring_summary.completed += b.uring_summary.completed;
  a.uring_summary.errors += b.uring_summary.errors;
  a.uring_summary.fixed_buffer_ops += b.uring_summary.fixed_buffer_ops;
  a.uring_summary.enter_syscalls += b.uring_summary.enter_syscalls;
  a.uring_summary.flush_batches += b.uring_summary.flush_batches;
  a.uring_summary.sqes_flushed += b.uring_summary.sqes_flushed;
  a.reactor_summary.enabled = b.reactor_summary.enabled;
  a.reactor_summary.wakeups += b.reactor_summary.wakeups;
  a.reactor_summary.completion_wakeups += b.reactor_summary.completion_wakeups;
  a.reactor_summary.timer_wakeups += b.reactor_summary.timer_wakeups;
  a.reactor_summary.spurious_wakeups += b.reactor_summary.spurious_wakeups;
  into.spans.merge(part.spans);
  into.devices.merge(part.devices);
  into.issue_to_done.merge(part.issue_to_done);
  into.run_cpu_ns += part.run_cpu_ns;
  into.run_wall_ns += part.run_wall_ns;
  into.events += part.events;
  into.setup_devices_ms = std::max(into.setup_devices_ms, part.setup_devices_ms);
  into.setup_server_ms = std::max(into.setup_server_ms, part.setup_server_ms);
  into.setup_clients_ms = std::max(into.setup_clients_ms, part.setup_clients_ms);
  into.elapsed = std::max(into.elapsed, part.elapsed);
}

CellReport run_real(const experiment::ExperimentConfig& config) {
  if (!blockdev::uring_backend_available()) {
    throw std::runtime_error("the real workloads need a build with -DSST_WITH_URING=ON");
  }
  const std::uint32_t devices = config.topology.logical_device_count();
  const Bytes slice = kBackingBytes / devices;
  const std::uint32_t groups = std::min(config.backend.reactors, devices);
  std::vector<GroupPlan> plans(groups);
  for (std::uint32_t k = 0; k < groups; ++k) {
    plans[k].id = k;
    plans[k].dev_begin = k * devices / groups;
    plans[k].dev_count = (k + 1) * devices / groups - plans[k].dev_begin;
  }
  for (std::uint32_t i = 0; i < config.streams.size(); ++i) {
    for (GroupPlan& plan : plans) {
      const std::uint32_t device = config.streams[i].device;
      if (device >= plan.dev_begin && device < plan.dev_begin + plan.dev_count) {
        plan.streams.push_back(i);
      }
    }
  }

  std::vector<CellReport> parts(groups);
  std::vector<std::string> errors(groups);
  if (groups == 1) {
    parts[0] = run_real_group(config, plans[0], slice, devices);
  } else {
    // Each group runs start to finish on one pool thread: its rings are
    // single-issuer, and its recorder has one writer.
    ThreadPool pool(groups);
    for (std::uint32_t k = 0; k < groups; ++k) {
      pool.submit([&, k]() {
        try {
          parts[k] = run_real_group(config, plans[k], slice, devices);
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
      });
    }
    pool.wait_idle();
  }
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }
  CellReport report;
  for (const CellReport& part : parts) merge_group(report, part);
  return report;
}

}  // namespace

CellReport run_traced(const experiment::ExperimentConfig& config) {
  CellReport report = config.backend.kind == experiment::BackendConfig::Kind::kReal
                          ? run_real(config)
                          : run_sim(config);
  experiment::ExperimentResult& r = report.result;
  double min_mbps = r.stream_mbps.empty() ? 0.0 : r.stream_mbps.front();
  for (const double mbps : r.stream_mbps) min_mbps = std::min(min_mbps, mbps);
  r.min_stream_mbps = min_mbps;
  report.model = model_outputs(config, r);
  return report;
}

}  // namespace sst::bench
