#include "configio/loaders.hpp"

#include <algorithm>

#include "workload/generator.hpp"

namespace sst::configio {

namespace {

/// True when any stored key starts with `prefix`.
bool has_prefix(const Config& cfg, std::string_view prefix) {
  for (const auto& [key, value] : cfg.entries()) {
    if (key.size() >= prefix.size() && key.compare(0, prefix.size(), prefix) == 0) {
      return true;
    }
  }
  return false;
}

/// Split `text` on `sep`, dropping empty fields.
std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    const auto field = text.substr(start, end == std::string_view::npos
                                              ? std::string_view::npos
                                              : end - start);
    if (!field.empty()) out.emplace_back(field);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

/// Parse a base-10 unsigned device index; errors instead of throwing.
Result<std::uint32_t> parse_index(const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 9) {
    return make_error("expected a device index, got '" + text + "'");
  }
  return static_cast<std::uint32_t>(std::stoul(text));
}

}  // namespace

Result<disk::DiskParams> load_disk_params(const Config& cfg) {
  disk::DiskParams p = disk::DiskParams::wd800jd();
  p.geometry.capacity = cfg.get_bytes("disk.capacity", p.geometry.capacity);
  p.geometry.rpm = cfg.get_uint32("disk.rpm", p.geometry.rpm);
  p.geometry.heads = cfg.get_uint32("disk.heads", p.geometry.heads);
  p.geometry.num_zones = cfg.get_uint32("disk.zones", p.geometry.num_zones);
  p.geometry.outer_spt = cfg.get_uint32("disk.outer_spt", p.geometry.outer_spt);
  p.geometry.inner_spt = cfg.get_uint32("disk.inner_spt", p.geometry.inner_spt);
  p.seek.single_cylinder = cfg.get_duration("disk.seek_single", p.seek.single_cylinder);
  p.seek.average = cfg.get_duration("disk.seek_avg", p.seek.average);
  p.seek.full_stroke = cfg.get_duration("disk.seek_full", p.seek.full_stroke);
  p.cache.size = cfg.get_bytes("disk.cache.size", p.cache.size);
  p.cache.num_segments = cfg.get_uint32("disk.cache.segments", p.cache.num_segments);
  const std::string read_ahead = cfg.get_string("disk.cache.read_ahead", "");
  if (read_ahead == "segment" || read_ahead == "fill") {
    p.cache.read_ahead = disk::CacheParams::kFillSegment;
  } else {
    p.cache.read_ahead = cfg.get_bytes("disk.cache.read_ahead", p.cache.read_ahead);
  }
  p.interface_rate_bps = cfg.get_double("disk.interface_rate_mbps", 150.0) * 1e6;
  p.command_overhead = cfg.get_duration("disk.overhead", p.command_overhead);
  p.scheduler = cfg.get_choice("disk.scheduler", p.scheduler,
                               {{"fcfs", disk::SchedulerKind::kFcfs},
                                {"elevator", disk::SchedulerKind::kElevator},
                                {"sstf", disk::SchedulerKind::kSstf}});
  if (const Status read = cfg.status(false); !read.ok()) return read.error();
  if (p.geometry.inner_spt == 0 || p.geometry.outer_spt < p.geometry.inner_spt) {
    return make_error("disk zone sectors-per-track must satisfy outer >= inner > 0");
  }
  if (p.seek.single_cylinder > p.seek.average || p.seek.average > p.seek.full_stroke) {
    return make_error("disk seek curve must satisfy single <= average <= full");
  }
  return p;
}

Result<ctrl::ControllerParams> load_controller_params(const Config& cfg) {
  ctrl::ControllerParams p = ctrl::ControllerParams::bc4810();
  p.cache_size = cfg.get_bytes("ctrl.cache", p.cache_size);
  p.prefetch = cfg.get_bytes("ctrl.prefetch", p.prefetch);
  p.transfer_rate_bps = cfg.get_double("ctrl.rate_mbps", 450.0) * 1e6;
  p.command_overhead = cfg.get_duration("ctrl.overhead", p.command_overhead);
  if (const Status read = cfg.status(false); !read.ok()) return read.error();
  return p;
}

Result<core::SchedulerParams> load_scheduler_params(const Config& cfg) {
  core::SchedulerParams p;
  p.dispatch_set_size = cfg.get_uint32("sched.dispatch", p.dispatch_set_size);
  p.read_ahead = cfg.get_bytes("sched.read_ahead", p.read_ahead);
  p.requests_per_residency = cfg.get_uint32("sched.residency", p.requests_per_residency);
  p.memory_budget = cfg.get_bytes("sched.memory", p.memory_budget);
  p.policy = cfg.get_choice("sched.policy", p.policy,
                            {{"round-robin", core::DispatchPolicyKind::kRoundRobin},
                             {"nearest-offset", core::DispatchPolicyKind::kNearestOffset}});
  p.classifier.block_bytes =
      cfg.get_bytes("sched.classifier.block", p.classifier.block_bytes);
  p.classifier.offset_blocks =
      cfg.get_uint32("sched.classifier.offset_blocks", p.classifier.offset_blocks);
  p.classifier.detect_threshold =
      cfg.get_uint32("sched.classifier.threshold", p.classifier.detect_threshold);
  p.buffer_timeout = cfg.get_duration("sched.buffer_timeout", p.buffer_timeout);
  p.pending_timeout = cfg.get_duration("sched.pending_timeout", p.pending_timeout);
  p.stream_timeout = cfg.get_duration("sched.stream_timeout", p.stream_timeout);
  p.gc_period = cfg.get_duration("sched.gc_period", p.gc_period);
  p.materialize_buffers = cfg.get_bool("sched.materialize", p.materialize_buffers);
  p.device_fail_threshold = cfg.get_uint32("sched.fail_threshold", p.device_fail_threshold);
  if (const Status read = cfg.status(false); !read.ok()) return read.error();
  const Status valid = p.validate();
  if (!valid.ok()) return valid.error();
  return p;
}

Result<fault::FaultParams> load_fault_params(const Config& cfg) {
  fault::FaultParams p;
  p.seed = cfg.get_uint("fault.seed", p.seed);
  p.media_error_rate = cfg.get_double("fault.media_error_rate", p.media_error_rate);
  p.persistent_fraction =
      cfg.get_double("fault.persistent_fraction", p.persistent_fraction);
  p.transient_failures = cfg.get_uint32("fault.transient_failures", p.transient_failures);
  p.hang_prob = cfg.get_double("fault.hang_prob", p.hang_prob);
  p.spike_prob = cfg.get_double("fault.spike_prob", p.spike_prob);
  p.spike_delay = cfg.get_duration("fault.spike", p.spike_delay);
  // dev:offset:length[,dev:offset:length...]; offset/length take size
  // suffixes (e.g. "0:1G:64K").
  for (const std::string& entry : split(cfg.get_string("fault.bad_range", ""), ',')) {
    const auto fields = split(entry, ':');
    if (fields.size() != 3) {
      return make_error("fault.bad_range entry must be dev:offset:length, got '" + entry +
                        "'");
    }
    fault::BadRange range;
    const auto device = parse_index(fields[0]);
    if (!device.ok()) return make_error("fault.bad_range: " + device.error().message);
    range.device = device.value();
    const auto offset = Config::parse_bytes(fields[1]);
    if (!offset.ok()) return make_error("fault.bad_range: " + offset.error().message);
    range.offset = offset.value();
    const auto length = Config::parse_bytes(fields[2]);
    if (!length.ok()) return make_error("fault.bad_range: " + length.error().message);
    range.length = length.value();
    p.bad_ranges.push_back(range);
  }
  for (const std::string& entry : split(cfg.get_string("fault.devices", ""), ',')) {
    const auto device = parse_index(entry);
    if (!device.ok()) return make_error("fault.devices: " + device.error().message);
    p.devices.push_back(device.value());
  }
  if (const Status read = cfg.status(false); !read.ok()) return read.error();
  const Status valid = p.validate();
  if (!valid.ok()) return valid.error();
  return p;
}

Result<core::RetryParams> load_retry_params(const Config& cfg) {
  core::RetryParams p;
  p.command_timeout = cfg.get_duration("retry.timeout", p.command_timeout);
  p.max_retries = cfg.get_uint32("retry.retries", p.max_retries);
  p.backoff_base = cfg.get_duration("retry.backoff", p.backoff_base);
  p.backoff_cap = cfg.get_duration("retry.backoff_cap", p.backoff_cap);
  if (const Status read = cfg.status(false); !read.ok()) return read.error();
  const Status valid = p.validate();
  if (!valid.ok()) return valid.error();
  return p;
}

Result<net::LinkParams> load_link_params(const Config& cfg) {
  net::LinkParams p;
  p.latency = cfg.get_duration("net.latency", p.latency);
  p.bandwidth_bps = cfg.get_double("net.bandwidth_mbps", p.bandwidth_bps / 1e6) * 1e6;
  p.per_message_overhead = cfg.get_duration("net.overhead", p.per_message_overhead);
  p.header_bytes = cfg.get_bytes("net.header", p.header_bytes);
  p.responses_carry_data =
      cfg.get_bool("net.responses_carry_data", p.responses_carry_data);
  if (const Status read = cfg.status(false); !read.ok()) return read.error();
  if (p.bandwidth_bps <= 0.0) {
    return make_error("net.bandwidth_mbps must be > 0");
  }
  return p;
}

Result<io::StackSpec> load_stack_spec(const Config& cfg) {
  io::StackSpec spec;
  auto fault = load_fault_params(cfg);
  if (!fault.ok()) return fault.error();
  spec.fault = fault.value();
  // A disabled layer's keys are parsed and checked all the same.
  auto retry = load_retry_params(cfg);
  if (!retry.ok()) return retry.error();
  if (cfg.get_bool("retry.enable", has_prefix(cfg, "retry."))) spec.retry = retry.value();
  spec.raid.kind = cfg.get_choice("stack.raid", spec.raid.kind,
                                  {{"none", io::RaidSpec::Kind::kNone},
                                   {"mirror", io::RaidSpec::Kind::kMirror},
                                   {"stripe", io::RaidSpec::Kind::kStripe}});
  spec.raid.mirror_ways = cfg.get_uint32("stack.mirror.ways", spec.raid.mirror_ways);
  spec.raid.mirror_policy =
      cfg.get_choice("stack.mirror.policy", spec.raid.mirror_policy,
                     {{"round-robin", raid::ReadPolicy::kRoundRobin},
                      {"region-affine", raid::ReadPolicy::kRegionAffine}});
  spec.raid.mirror.fail_threshold =
      cfg.get_uint32("stack.mirror.fail_threshold", spec.raid.mirror.fail_threshold);
  spec.raid.stripe_unit = cfg.get_bytes("stack.stripe_unit", spec.raid.stripe_unit);
  auto link = load_link_params(cfg);
  if (!link.ok()) return link.error();
  if (cfg.get_bool("net.enable", has_prefix(cfg, "net."))) spec.network = link.value();
  if (const Status read = cfg.status(false); !read.ok()) return read.error();
  return spec;
}

Result<node::TopologySpec> load_topology_spec(const Config& cfg) {
  node::TopologySpec spec;
  spec.node = cfg.get_choice("topology.preset", spec.node,
                             {{"base", node::NodeConfig::base()},
                              {"medium", node::NodeConfig::medium()},
                              {"large", node::NodeConfig::large()}});
  spec.node.num_controllers =
      cfg.get_uint32("topology.controllers", spec.node.num_controllers);
  spec.node.disks_per_controller =
      cfg.get_uint32("topology.disks_per_controller", spec.node.disks_per_controller);
  if (const std::uint64_t seed = cfg.get_uint("topology.seed", 0); seed != 0) {
    spec.node.seed = seed;
  }
  if (spec.node.num_controllers == 0 || spec.node.disks_per_controller == 0) {
    return make_error("node topology must have at least one controller and disk");
  }
  auto disk_params = load_disk_params(cfg);
  if (!disk_params.ok()) return disk_params.error();
  spec.node.disk = disk_params.value();
  auto ctrl_params = load_controller_params(cfg);
  if (!ctrl_params.ok()) return ctrl_params.error();
  spec.node.controller = ctrl_params.value();

  auto stack = load_stack_spec(cfg);
  if (!stack.ok()) return stack.error();
  spec.stack = stack.value();
  for (const fault::BadRange& r : spec.stack.fault.bad_ranges) {
    if (r.device >= spec.node.total_disks()) {
      return make_error("fault.bad_range device " + std::to_string(r.device) +
                        " out of range (node has " +
                        std::to_string(spec.node.total_disks()) + " disks)");
    }
  }
  const Status valid = spec.validate();
  if (!valid.ok()) return valid.error();
  return spec;
}

Result<experiment::ExperimentConfig> load_experiment(const Config& cfg) {
  experiment::ExperimentConfig ec;
  auto topology = load_topology_spec(cfg);
  if (!topology.ok()) return topology.error();
  ec.topology = topology.value();

  // A disabled scheduler's keys are parsed and checked all the same.
  auto sched = load_scheduler_params(cfg);
  if (!sched.ok()) return sched.error();
  if (cfg.get_bool("sched.enable", has_prefix(cfg, "sched."))) ec.scheduler = sched.value();

  const std::uint32_t streams = cfg.get_uint32("workload.streams", 10);
  const Bytes request = cfg.get_bytes("workload.request", 64 * KiB);
  if (streams == 0) return make_error("workload.streams must be >= 1");
  if (request == 0 || request % kSectorSize != 0) {
    return make_error("workload.request must be a positive multiple of 512");
  }
  // Streams spread over the stack's logical device view: one striped volume
  // gets every stream, mirror groups share them like plain disks.
  ec.streams = workload::make_uniform_streams(streams, ec.topology.logical_device_count(),
                                              ec.topology.logical_device_capacity(), request);
  const std::uint32_t outstanding = cfg.get_uint32("workload.outstanding", 1);
  const SimTime think = cfg.get_duration("workload.think", 0);
  const SimTime jitter = cfg.get_duration("workload.think_jitter", 0);
  const SimTime period = cfg.get_duration("workload.issue_period", 0);
  for (auto& spec : ec.streams) {
    spec.outstanding = std::max<std::uint32_t>(1, outstanding);
    spec.think_time = think;
    spec.think_jitter = jitter;
    spec.issue_period = period;
  }
  if (const std::uint64_t seed = cfg.get_uint("workload.seed", 0); seed != 0) {
    ec.workload_seed = seed;
  }
  ec.warmup = cfg.get_duration("run.warmup", ec.warmup);
  ec.measure = cfg.get_duration("run.measure", ec.measure);
  ec.shards = cfg.get_uint32("sim.shards", ec.shards);
  if (ec.shards < 1) return make_error("sim.shards must be >= 1");
  ec.lookahead = cfg.get_duration("sim.lookahead", 0);

  // Tail-latency SLO: declaring an objective enables the engine.
  ec.slo.objective = cfg.get_duration("slo.objective", 0);
  ec.slo.quantile = cfg.get_double("slo.quantile", ec.slo.quantile);
  if (ec.slo.quantile <= 0.0 || ec.slo.quantile > 1.0) {
    return make_error("slo.quantile must be in (0, 1]");
  }
  ec.slo.window = cfg.get_duration("slo.window", ec.slo.window);
  if (ec.slo.enabled() && ec.slo.window == 0) {
    return make_error("slo.window must be > 0");
  }
  ec.slo.burn_rate = cfg.get_double("slo.burn_rate", ec.slo.burn_rate);
  if (ec.slo.burn_rate > 1.0) {
    return make_error("slo.burn_rate must be in [0, 1]");
  }
  ec.attribution = cfg.get_bool("obs.attribution", false);

  // Execution backend: sim (default, deterministic) or real (io_uring over
  // a backing file; requires a -DSST_WITH_URING=ON build).
  using Kind = experiment::BackendConfig::Kind;
  ec.backend.kind = cfg.get_choice("backend.kind", ec.backend.kind,
                                   {{"sim", Kind::kSim}, {"real", Kind::kReal}});
  ec.backend.path = cfg.get_string("backend.path", "");
  ec.backend.queue_depth = cfg.get_uint32("backend.queue_depth", ec.backend.queue_depth);
  if (ec.backend.queue_depth < 1) return make_error("backend.queue_depth must be >= 1");
  ec.backend.direct = cfg.get_bool("backend.direct", ec.backend.direct);
  ec.backend.reactors = cfg.get_uint32("backend.reactors", ec.backend.reactors);
  if (ec.backend.reactors < 1) return make_error("backend.reactors must be >= 1");
  // The one place a key no loader read is rejected.
  if (const Status read = cfg.status(true); !read.ok()) return read.error();
  if (ec.backend.kind == Kind::kReal && ec.backend.path.empty()) {
    return make_error("backend.kind=real requires backend.path");
  }
  return ec;
}

}  // namespace sst::configio
