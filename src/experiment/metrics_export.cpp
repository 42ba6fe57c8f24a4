// ExperimentResult -> JSON via the obs metrics registry: every per-layer
// stats struct registered under its own namespace through its counter
// table (common/counters.hpp), one deterministic document out.
#include "common/counters.hpp"
#include "experiment/runner.hpp"
#include "obs/metrics.hpp"

namespace sst::experiment {

std::string ExperimentResult::to_json() const {
  obs::MetricsRegistry reg;

  reg.gauge("throughput.total_mbps", total_mbps);
  reg.gauge("throughput.min_stream_mbps", min_stream_mbps);
  reg.gauge("throughput.max_stream_mbps", max_stream_mbps);
  reg.array("throughput.stream_mbps", stream_mbps);
  reg.counter("throughput.requests_completed", requests_completed);

  reg.histogram("latency", latency);

  // Attribution and SLO groups only appear when the feature ran, keeping
  // the export byte-identical for plain runs (golden parity).
  if (breakdown.enabled) {
    reg.counter("latency_breakdown.attributed", breakdown.attributed);
    reg.counter("latency_breakdown.staged_bytes_copied", breakdown.staged_copied);
    reg.histogram("latency_breakdown.ingress", breakdown.ingress);
    reg.histogram("latency_breakdown.queue", breakdown.queue);
    reg.histogram("latency_breakdown.staging", breakdown.staging);
    reg.histogram("latency_breakdown.uplink", breakdown.uplink);
    // Per-stage totals: the four stage sums partition the clients' summed
    // end-to-end response time (stage_sum_ms == end_to_end_sum_ms up to
    // floating-point rounding).
    reg.gauge("latency_breakdown.ingress_sum_ms", breakdown.ingress.total_ms());
    reg.gauge("latency_breakdown.queue_sum_ms", breakdown.queue.total_ms());
    reg.gauge("latency_breakdown.staging_sum_ms", breakdown.staging.total_ms());
    reg.gauge("latency_breakdown.uplink_sum_ms", breakdown.uplink.total_ms());
    reg.gauge("latency_breakdown.stage_sum_ms", breakdown.stage_sum_ms());
    reg.gauge("latency_breakdown.end_to_end_sum_ms", latency.total_ms());
    // Device-level views (whole run, decoupled from requests by prefetch).
    reg.histogram("latency_breakdown.disk_queue", breakdown.disk_queue);
    reg.histogram("latency_breakdown.disk_service", breakdown.disk_service);
    if (breakdown.net_response.count() > 0) {
      reg.histogram("latency_breakdown.net_response", breakdown.net_response);
    }
  }
  if (slo_report.enabled) {
    reg.text("slo.verdict", slo_report.pass ? "pass" : "fail");
    reg.gauge("slo.objective_ms", slo_report.objective_ms);
    reg.gauge("slo.quantile", slo_report.quantile);
    reg.gauge("slo.window_ms", slo_report.window_ms);
    reg.gauge("slo.burn_rate_allowed", slo_report.burn_rate_allowed);
    reg.gauge("slo.burn_rate_observed", slo_report.burn_rate_observed);
    reg.counter("slo.windows_evaluated", slo_report.windows_evaluated);
    reg.counter("slo.windows_breached", slo_report.windows_breached);
    reg.gauge("slo.worst_window_ms", slo_report.worst_window_ms);
    reg.gauge("slo.overall_ms", slo_report.overall_ms);
    reg.counter("slo.samples", slo_report.samples);
  }

  export_counters(reg, "disk", disk_totals);
  export_counters(reg, "controller", controller_totals);
  export_counters(reg, "scheduler", scheduler_stats);
  reg.counter("scheduler.devices_failed", devices_failed);

  reg.counter("sim.events_dispatched", sim_events_dispatched);
  reg.counter("sim.wheel_cascades", sim_wheel_cascades);

  // The shard group only appears when the run sharded, keeping the export
  // byte-identical for single-cell runs (golden parity).
  if (shard_summary.shards > 1) {
    reg.counter("sim.shard_count", shard_summary.shards);
    reg.counter("sim.shard_requested", shard_summary.requested);
    reg.counter("sim.shard_min_events", shard_summary.min_shard_events);
    reg.counter("sim.shard_max_events", shard_summary.max_shard_events);
  }

  // The uring/reactor groups only appear for real-backend runs, keeping
  // simulated exports byte-identical (golden parity).
  if (uring_summary.enabled) {
    reg.counter("uring.devices", uring_summary.devices);
    reg.counter("uring.direct_devices", uring_summary.direct_devices);
    export_counters(reg, "uring", uring_summary);
    const auto per_device = [](const auto& values) {
      return std::vector<double>(values.begin(), values.end());
    };
    reg.array("uring.device_completed", per_device(uring_summary.per_device_completed));
    reg.array("uring.setup_flags", per_device(uring_summary.per_device_setup_flags));
  }
  if (reactor_summary.enabled) {
    reg.counter("reactor.count", reactor_summary.reactors);
    reg.counter("reactor.requested", reactor_summary.requested);
    export_counters(reg, "reactor", reactor_summary);
  }

  export_counters(reg, "staging", staging_stats);
  export_counters(reg, "server", server_stats);
  export_counters(reg, "fault", fault_stats);
  export_counters(reg, "net", net_fault_stats);

  // The raid group only appears when a raid layer was stacked, keeping the
  // export byte-identical for the (default) flat device view.
  if (raid_kind != io::RaidSpec::Kind::kNone) {
    reg.text("raid.kind", to_string(raid_kind));
    if (raid_kind == io::RaidSpec::Kind::kMirror) export_counters(reg, "raid", mirror_stats);
  }

  export_counters(reg, "retry", retry_stats);
  reg.counter("workload.client_errors", client_errors);
  export_counters(reg, "classifier", classifier_stats);

  reg.gauge("host.cpu_utilization", host_cpu_utilization);
  reg.counter("host.peak_buffer_memory", peak_buffer_memory);

  return reg.to_json();
}

}  // namespace sst::experiment
