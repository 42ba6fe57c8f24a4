#include "experiment/cell.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/counters.hpp"
#include "experiment/aggregate.hpp"

namespace sst::experiment {

/// Destination buffers for raw requests on a real device (a request without
/// data transfers nothing): 4096-aligned so O_DIRECT stays usable, recycled
/// per size so the closed-loop steady state stops allocating after a lap.
class Cell::ScratchBuffers {
 public:
  ScratchBuffers() = default;
  ScratchBuffers(const ScratchBuffers&) = delete;
  ScratchBuffers& operator=(const ScratchBuffers&) = delete;

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

Cell::Cell(exec::ExecutionContext& ctx, const ExperimentConfig& config, CellPlan plan)
    : ctx_(ctx),
      config_(config),
      plan_(std::move(plan)),
      // Attribution is implied by an SLO (the windowed recorder needs
      // per-request latencies) and by a flight recorder (lifecycle events
      // carry the stable request id).
      attribution_(config.attribution || config.slo.enabled() || config.flight != nullptr),
      tracer_(config.tracer),
      flight_(config.flight),
      slo_windows_(config.slo.window),
      sampler_(ctx, config.sample_interval) {
  const bool real = config.backend.kind == BackendConfig::Kind::kReal;
  // Both backends compose the stack over their leaf devices through
  // io::DeviceStackBuilder; layers are only constructed when the spec
  // enables them.
  std::vector<blockdev::BlockDevice*> leaves = plan_.devices;
  if (leaves.empty()) {
    node_ = std::make_unique<node::StorageNode>(ctx, plan_.topology.node);
    leaves = node_->devices();
  }
  stack_ = io::DeviceStackBuilder(ctx, std::move(leaves)).apply(plan_.topology.stack).build();

  if (plan_.count > 1) {
    // Several cells run on several threads: each records into a private
    // tracer and flight ring (one writer each), merged after the run.
    if (config.tracer != nullptr) {
      own_tracer_ = std::make_unique<obs::Tracer>();
      tracer_ = own_tracer_.get();
    }
    if (config.flight != nullptr) {
      own_flight_ = std::make_unique<obs::FlightRecorder>(config.flight->capacity());
      own_flight_->set_shard(plan_.id);
      flight_ = own_flight_.get();
    }
  }

  if (config.scheduler.has_value()) {
    // A cell smaller than the node gets its proportional scheduler share.
    core::SchedulerParams params =
        plan_.count == 1 ? *config.scheduler
                         : slice_scheduler_params(*config.scheduler, plan_.slice.logical_count,
                                                  config.topology.logical_device_count());
    // Real I/O needs real memory: staged read-aheads carry destination
    // buffers the kernel can DMA into. The host CPU model is the sim's: a
    // real cell runs it at zero cost, so each issue and completion only
    // waits for the reactor's next turn, and its CellRunner measures the CPU.
    if (real) {
      params.materialize_buffers = true;
      params.host = {0, 0, 0};
    }
    server_ = std::make_unique<core::StorageServer>(ctx, stack_->devices(), params);
  }
  if (tracer_ != nullptr) {
    if (node_) node_->attach_tracer(tracer_);
    stack_->attach_tracer(tracer_);
    if (server_) server_->set_tracer(tracer_);
  }
  if (flight_ != nullptr && server_) server_->set_flight_recorder(flight_);
  if (config.slo.enabled()) attributor_.attach_window(&slo_windows_);

  workload::RequestSink sink;
  if (server_) {
    sink = [srv = server_.get(), closed = &closed_](core::ClientRequest req) {
      if (*closed) return;
      srv->submit(std::move(req));
    };
  } else {
    if (real) scratch_ = std::make_unique<ScratchBuffers>();
    sink = [devices = &stack_->devices(), scratch = scratch_.get(),
            closed = &closed_](core::ClientRequest req) {
      if (*closed) return;
      const std::uint32_t device = req.device;
      blockdev::BlockRequest io = core::to_block_request(std::move(req));
      if (scratch != nullptr && io.data == nullptr) {
        io.data = scratch->acquire(io.length);
        io.on_complete = [scratch, data = io.data, length = io.length,
                          prev = std::move(io.on_complete)](SimTime done, IoStatus status) {
          scratch->release(data, length);
          if (prev) prev(done, status);
        };
      }
      devices->at(device)->submit(std::move(io));
    };
  }
  entry_ = stack_->wrap_sink(std::move(sink));

  for (const std::uint32_t ordinal : plan_.streams) {
    workload::StreamSpec spec = seeded_stream(config, ordinal);
    spec.device -= plan_.slice.logical_begin;
    const Bytes capacity = device_capacity(spec.device);
    // Placements were drawn against the simulated disk's capacity: a real
    // cell folds them into its (usually much smaller) file slice, keeping
    // the uniform request-aligned spread.
    if (real) {
      const Bytes slots = capacity / spec.request_size;
      if (slots == 0) {
        throw std::runtime_error("backend.kind=real: device slice smaller than one request (" +
                                 std::to_string(spec.request_size) + " bytes)");
      }
      spec.start_offset = spec.start_offset / spec.request_size % slots * spec.request_size;
      if (spec.region_bytes != 0 && spec.start_offset + spec.region_bytes > capacity) {
        spec.region_bytes = capacity - spec.start_offset;
      }
    }
    add_client(ordinal, spec, capacity);
  }
}

Cell::~Cell() = default;

Bytes Cell::device_capacity(std::uint32_t device) const {
  return stack_->devices().at(device)->capacity();
}

void Cell::add_client(std::uint32_t ordinal, const workload::StreamSpec& spec, Bytes capacity) {
  workload::RequestSink sink = entry_;
  if (attribution_) {
    // Outermost wrapper (the client calls it directly): the issue stamp
    // precedes any network transit, and the completion fold — applied
    // first, so it fires last — sees the client-side completion time. The
    // rid keys on the global spec ordinal, so ids do not depend on the
    // cell count.
    sink = [attr = &attributor_, ctx = &ctx_, flight = flight_, base = std::move(sink),
            ordinal, seq = std::uint64_t{0}](core::ClientRequest req) mutable {
      obs::RequestTrace* trace =
          attr->acquire(obs::make_request_id(ordinal, ++seq), ctx->now());
      req.trace = trace;
      if (flight != nullptr) {
        flight->record(obs::FlightCode::kIssue, ctx->now(), trace->rid, req.device, req.offset);
      }
      req.on_complete = [attr, ctx, flight, trace,
                         prev = std::move(req.on_complete)](SimTime done, IoStatus status) {
        const bool ok = io_ok(status);
        if (flight != nullptr) {
          flight->record(obs::FlightCode::kComplete, ctx->now(), trace->rid,
                         done >= trace->issue ? done - trace->issue : 0, ok ? 1 : 0);
        }
        attr->complete(trace, done, ok);
        if (prev) prev(done, status);
      };
      base(std::move(req));
    };
  }
  ordinals_.push_back(ordinal);
  clients_.push_back(
      std::make_unique<workload::StreamClient>(ctx_, std::move(sink), spec, capacity));
}

void Cell::start() {
  for (auto& client : clients_) client->start();
  if (config_.sample_interval == 0) return;
  for (auto& [name, read] : gauges()) sampler_.add_gauge(std::move(name), std::move(read));
  sampler_.start();
}

std::vector<std::pair<std::string, std::function<double()>>> Cell::gauges() {
  // One cell keeps the plain names; several prefix theirs by cell, and
  // merge_cells() sums their mbps columns back into the node-wide one.
  std::string prefix;
  if (plan_.count > 1) {
    const bool real = config_.backend.kind == BackendConfig::Kind::kReal;
    prefix = (real ? "reactor" : "shard") + std::to_string(plan_.id) + ".";
  }
  std::vector<std::pair<std::string, std::function<double()>>> gauges;
  if (!clients_.empty()) {
    gauges.emplace_back(prefix + "mbps", [this]() {
      Bytes total = 0;
      for (const auto& client : clients_) total += client->stats().throughput.total_bytes();
      const SimTime now = ctx_.now();
      const double mbps =
          now > tick_time_ ? mb_per_sec(total - tick_bytes_, now - tick_time_) : 0.0;
      tick_bytes_ = total;
      tick_time_ = now;
      return mbps;
    });
    // Rolling per-tick percentiles: the p50 gauge (sampled first) rebuilds
    // the delta over the clients' cumulative histograms; p99/p999 read it.
    gauges.emplace_back(prefix + "p50_ms", [this]() {
      stats::LatencyHistogram total;
      for (const auto& client : clients_) total.merge(client->stats().latency);
      tick_delta_ = total;
      tick_delta_.subtract(tick_latency_);
      tick_latency_ = std::move(total);
      return tick_delta_.p50_ms();
    });
    gauges.emplace_back(prefix + "p99_ms", [this]() { return tick_delta_.p99_ms(); });
    gauges.emplace_back(prefix + "p999_ms", [this]() { return tick_delta_.p999_ms(); });
  }
  if (server_) {
    using Sched = core::StreamScheduler;
    const std::pair<const char*, double (*)(const Sched&)> reads[] = {
        {"dispatch_set", [](const Sched& s) { return 1.0 * s.dispatched_count(); }},
        {"candidates", [](const Sched& s) { return 1.0 * s.candidate_count(); }},
        {"buffered_streams", [](const Sched& s) { return 1.0 * s.buffered_count(); }},
        {"streams", [](const Sched& s) { return 1.0 * s.stream_count(); }},
        {"pool_mb", [](const Sched& s) { return s.pool().committed() / 1e6; }},
        {"extent_mb",
         [](const Sched& s) { return s.pool().extent_slab().live_bytes() / 1e6; }},
        {"degraded_disks", [](const Sched& s) { return 1.0 * s.failed_device_count(); }},
    };
    const Sched* sched = &server_->scheduler();
    for (const auto& [name, read] : reads) {
      gauges.emplace_back(prefix + name, [sched, read = read]() { return read(*sched); });
    }
  }
  // Sim leaf: per-disk queue depths under their global disk names.
  for (std::size_t d = 0; node_ && d < node_->device_count(); ++d) {
    gauges.emplace_back("disk" + std::to_string(plan_.slice.dev_begin + d) + ".queue_depth",
                        [node = node_.get(), d]() {
                          return static_cast<double>(node->disk_of(d).queue_depth());
                        });
  }
  return gauges;
}

void Cell::begin_measurement() {
  for (auto& client : clients_) client->begin_measurement();
  attributor_.begin_measurement();
  // The client meters restart from zero now: so do the gauge baselines.
  tick_bytes_ = 0;
  tick_time_ = ctx_.now();
  tick_latency_.reset();
}

CellOutcome Cell::harvest(SimTime t0, SimTime t1) {
  CellOutcome out;
  ExperimentResult& part = out.part;
  for (const auto& client : clients_) {
    const workload::ClientStats& cs = client->stats();
    part.stream_mbps.push_back(cs.throughput.mbps(t0, t1));
    part.requests_completed += cs.completed;
    part.client_errors += cs.errors;
    part.latency.merge(cs.latency);
  }
  if (server_) {
    core::StreamScheduler& sched = server_->scheduler();
    part.scheduler_stats = sched.stats();
    part.server_stats = server_->stats();
    part.classifier_stats = server_->classifier().stats();
    part.staging_stats = sched.staging_stats();
    part.host_cpu_utilization = sched.cpu().stats().utilization(t1);
    part.peak_buffer_memory = sched.pool().stats().peak_committed;
    part.devices_failed = sched.failed_device_count();
  }
  if (node_) {
    part.disk_totals = node_->disk_totals();
    part.controller_totals = node_->controller_totals();
  }
  if (stack_->injector() != nullptr) part.fault_stats = stack_->injector()->stats();
  if (stack_->remote() != nullptr) part.net_fault_stats = stack_->remote()->fault_stats();
  part.retry_stats = stack_->retry_totals();
  part.mirror_stats = stack_->mirror_totals();
  sampler_.stop();
  part.timeseries = sampler_.take();
  if (attribution_) {
    part.breakdown = attributor_.breakdown();
    part.breakdown.enabled = true;
    // Device-level views (whole run, including warm-up: the devices record
    // from time zero — DESIGN.md §14).
    for (std::size_t d = 0; node_ && d < node_->device_count(); ++d) {
      part.breakdown.disk_queue.merge(node_->disk_of(d).queue_wait());
      part.breakdown.disk_service.merge(node_->disk_of(d).service_time());
    }
    if (stack_->remote() != nullptr) {
      part.breakdown.net_response.merge(stack_->remote()->response_transit());
    }
  }
  out.ordinals = ordinals_;
  out.slice = plan_.slice;
  out.end_time = ctx_.now();
  out.slo_windows = std::move(slo_windows_);
  out.tracer = std::move(own_tracer_);
  out.flight = std::move(own_flight_);
  return out;
}

std::vector<CellPlan> plan_cells(const ExperimentConfig& config,
                                 const node::TopologySpec& topology, std::uint32_t requested) {
  const std::uint32_t controllers = topology.node.num_controllers;
  const std::uint32_t dpc = topology.node.disks_per_controller;
  const io::RaidSpec& raid = topology.stack.raid;
  const std::uint32_t mirror_ways = raid.kind == io::RaidSpec::Kind::kMirror ? raid.mirror_ways : 1;
  // One striped volume spans every device: the raid layer is a single
  // coupling point, so striping always runs in one cell.
  std::uint32_t count =
      raid.kind == io::RaidSpec::Kind::kStripe ? 1 : std::min(std::max(requested, 1U), controllers);
  for (; count > 1; --count) {
    // Near-even contiguous controller ranges; accept this count only when
    // no mirror group straddles a boundary.
    bool ok = true;
    for (std::uint32_t k = 0; k < count && ok; ++k) {
      ok = ((k + 1) * controllers / count - k * controllers / count) * dpc % mirror_ways == 0;
    }
    if (ok) break;
  }

  std::vector<CellPlan> cells(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    CellPlan& cell = cells[k];
    ShardSlice& slice = cell.slice;
    cell.id = k;
    cell.count = count;
    slice.ctrl_begin = k * controllers / count;
    slice.ctrl_count = (k + 1) * controllers / count - slice.ctrl_begin;
    slice.dev_begin = slice.ctrl_begin * dpc;
    slice.dev_count = slice.ctrl_count * dpc;
    slice.logical_begin = slice.dev_begin / mirror_ways;
    slice.logical_count = slice.dev_count / mirror_ways;
    cell.topology = topology.shard_slice(slice.ctrl_begin, slice.ctrl_count);
  }
  for (std::uint32_t i = 0; i < config.streams.size(); ++i) {
    const std::uint32_t device = config.streams[i].device;
    const auto owner = std::find_if(cells.begin(), cells.end(), [device](const CellPlan& cell) {
      return device < cell.slice.logical_begin + cell.slice.logical_count;
    });
    (owner == cells.end() ? cells.front() : *owner).streams.push_back(i);
  }
  return cells;
}

workload::StreamSpec seeded_stream(const ExperimentConfig& config, std::uint32_t ordinal) {
  workload::StreamSpec spec = config.streams[ordinal];
  if (spec.seed == 0) {
    spec.seed = stream_seed(shard_workload_seed(config.workload_seed, 0), ordinal);
  }
  return spec;
}

namespace {

/// The cells' series side by side on the shortest timeline (sim cells tick
/// in lockstep; wall clocks may differ by a sample), plus the node-wide
/// `mbps` column summing the per-cell ones.
obs::TimeSeries merge_timeseries(std::vector<CellOutcome>& cells) {
  std::size_t rows = cells[0].part.timeseries.times.size();
  for (const CellOutcome& cell : cells) {
    rows = std::min(rows, cell.part.timeseries.times.size());
  }
  obs::TimeSeries merged = std::move(cells[0].part.timeseries);
  if (cells.size() == 1) return merged;
  merged.times.resize(rows);
  merged.rows.resize(rows);
  for (std::size_t k = 1; k < cells.size(); ++k) {
    const obs::TimeSeries& series = cells[k].part.timeseries;
    merged.names.insert(merged.names.end(), series.names.begin(), series.names.end());
    for (std::size_t row = 0; row < rows; ++row) {
      merged.rows[row].insert(merged.rows[row].end(), series.rows[row].begin(),
                              series.rows[row].end());
    }
  }
  std::vector<std::size_t> mbps_cols;
  for (std::size_t col = 0; col < merged.names.size(); ++col) {
    if (merged.names[col].ends_with(".mbps")) mbps_cols.push_back(col);
  }
  if (!mbps_cols.empty()) {
    merged.names.emplace_back("mbps");
    for (auto& row : merged.rows) {
      double total = 0.0;
      for (const std::size_t col : mbps_cols) total += row[col];
      row.push_back(total);
    }
  }
  return merged;
}

}  // namespace

ExperimentResult merge_cells(const ExperimentConfig& config, std::vector<CellOutcome>& cells) {
  assert(!cells.empty());
  ExperimentResult result;
  result.stream_mbps.assign(config.streams.size(), 0.0);
  obs::WindowedLatencyRecorder slo_windows(config.slo.window);
  SimTime end_time = 0;
  for (std::uint32_t k = 0; k < cells.size(); ++k) {
    const CellOutcome& cell = cells[k];
    const ExperimentResult& part = cell.part;
    for (std::size_t i = 0; i < cell.ordinals.size(); ++i) {
      result.stream_mbps[cell.ordinals[i]] = part.stream_mbps[i];
    }
    result.requests_completed += part.requests_completed;
    result.client_errors += part.client_errors;
    result.latency.merge(part.latency);
    fold_counters(result.disk_totals, part.disk_totals);
    fold_counters(result.controller_totals, part.controller_totals);
    fold_counters(result.scheduler_stats, part.scheduler_stats);
    fold_counters(result.server_stats, part.server_stats);
    fold_counters(result.classifier_stats, part.classifier_stats);
    fold_counters(result.staging_stats, part.staging_stats);
    // Cells model parallel hosts: the binding figure is the busiest cell's
    // CPU, not a sum that could read past 100%.
    result.host_cpu_utilization =
        std::max(result.host_cpu_utilization, part.host_cpu_utilization);
    result.peak_buffer_memory += part.peak_buffer_memory;
    result.devices_failed += part.devices_failed;
    fold_counters(result.fault_stats, part.fault_stats);
    fold_counters(result.net_fault_stats, part.net_fault_stats);
    fold_counters(result.retry_stats, part.retry_stats);
    fold_counters(result.mirror_stats, part.mirror_stats);
    result.sim_events_dispatched += part.sim_events_dispatched;
    result.sim_wheel_cascades += part.sim_wheel_cascades;
    // A real cell's rings and reactor; per-ring arrays in cell order, which
    // is global device order.
    const UringSummary& rings = part.uring_summary;
    UringSummary& uring = result.uring_summary;
    uring.enabled = uring.enabled || rings.enabled;
    uring.devices += rings.devices;
    uring.direct_devices += rings.direct_devices;
    fold_counters(uring, rings);
    uring.per_device_completed.insert(uring.per_device_completed.end(),
                                      rings.per_device_completed.begin(),
                                      rings.per_device_completed.end());
    uring.per_device_setup_flags.insert(uring.per_device_setup_flags.end(),
                                        rings.per_device_setup_flags.begin(),
                                        rings.per_device_setup_flags.end());
    result.reactor_summary.enabled = result.reactor_summary.enabled || part.reactor_summary.enabled;
    fold_counters(result.reactor_summary, part.reactor_summary);
    result.breakdown.merge_from(part.breakdown);
    slo_windows.merge_from(cell.slo_windows);
    end_time = std::max(end_time, cell.end_time);
    if (cell.tracer) {
      // Shift each category of the cell-local track layout back into
      // global coordinates. Stream ids are scheduler-local per cell; they
      // spread at 0x4000 per cell inside the 16-bit stream window, which
      // only collides past 16k streams per cell (cosmetic, ids only).
      config.tracer->merge_from(*cell.tracer, [s = cell.slice, k](std::uint32_t tid) {
        if (tid >= 0x30000) return 0x30000 + (((tid - 0x30000) + k * 0x4000) & 0xFFFFU);
        if (tid >= 0x20000) return tid + s.logical_begin;
        if (tid >= 0x10000) return tid + s.ctrl_begin;
        if (tid >= 0x100) return tid + s.dev_begin;
        if (tid == obs::kSchedulerTrack) return obs::kSchedulerTrack + k;
        return tid;
      });
    }
    // Stitch private rings into one journal ordered by (ts, cell, seq).
    if (cell.flight) config.flight->merge_from(*cell.flight);
  }
  // Streams in spec order, whichever cell ran them, so the float sums and
  // the extremes do not depend on how streams spread over cells.
  double min_mbps = 1e18;
  for (const double mbps : result.stream_mbps) {
    result.total_mbps += mbps;
    min_mbps = std::min(min_mbps, mbps);
    result.max_stream_mbps = std::max(result.max_stream_mbps, mbps);
  }
  result.min_stream_mbps = result.stream_mbps.empty() ? 0.0 : min_mbps;
  result.raid_kind = config.topology.stack.raid.kind;
  if (config.sample_interval > 0) result.timeseries = merge_timeseries(cells);
  result.slo_report = obs::SloEngine::evaluate(config.slo, slo_windows, result.latency);
  if (config.flight != nullptr && result.slo_report.enabled && !result.slo_report.pass) {
    config.flight->record(obs::FlightCode::kSloBreach, end_time, 0,
                          result.slo_report.windows_breached,
                          result.slo_report.windows_evaluated);
  }
  return result;
}

}  // namespace sst::experiment
