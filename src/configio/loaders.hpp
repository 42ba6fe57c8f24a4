// DiskSim-style parameter loading: build every parameter struct in the
// system from a flat key=value Config (file or command line), so whole
// experiments are reproducible from a single text description. Keys are
// namespaced with dotted prefixes; anything omitted keeps its documented
// default. Every loader returns its config's first error (a malformed,
// negative or out-of-range value, named by key), and load_experiment also
// rejects any key that no loader read.
//
//   # one controller, one WD800JD-class disk, the paper's Fig. 10 point
//   topology.controllers = 1
//   topology.disks_per_controller = 1
//   disk.capacity = 80G
//   disk.cache.size = 8M
//   sched.read_ahead = 8M
//   sched.memory = 800M
//   workload.streams = 100
//   workload.request = 64K
//   run.measure = 20s
#pragma once

#include "common/config.hpp"
#include "common/result.hpp"
#include "controller/params.hpp"
#include "core/params.hpp"
#include "core/reliable_device.hpp"
#include "disk/params.hpp"
#include "experiment/runner.hpp"
#include "fault/params.hpp"
#include "node/device_stack.hpp"
#include "node/storage_node.hpp"
#include "node/topology.hpp"

namespace sst::configio {

/// Keys: disk.capacity, disk.rpm, disk.heads, disk.zones, disk.outer_spt,
/// disk.inner_spt, disk.seek_single, disk.seek_avg, disk.seek_full,
/// disk.cache.size, disk.cache.segments, disk.cache.read_ahead
/// ("segment" = fill whole segment, or a size), disk.interface_rate_mbps,
/// disk.overhead, disk.scheduler (fcfs|elevator|sstf).
[[nodiscard]] Result<disk::DiskParams> load_disk_params(const Config& cfg);

/// Keys: ctrl.cache, ctrl.prefetch, ctrl.rate_mbps, ctrl.overhead.
[[nodiscard]] Result<ctrl::ControllerParams> load_controller_params(const Config& cfg);

/// Keys: sched.dispatch (D; 0 = derive from memory), sched.read_ahead (R),
/// sched.residency (N), sched.memory (M), sched.policy
/// (round-robin|nearest-offset), sched.classifier.block,
/// sched.classifier.offset_blocks, sched.classifier.threshold,
/// sched.buffer_timeout, sched.pending_timeout, sched.stream_timeout, sched.gc_period,
/// sched.materialize, sched.fail_threshold (device errors before eviction).
[[nodiscard]] Result<core::SchedulerParams> load_scheduler_params(const Config& cfg);

/// Keys: fault.seed, fault.media_error_rate, fault.persistent_fraction,
/// fault.transient_failures, fault.hang_prob, fault.spike_prob,
/// fault.spike (delay), fault.bad_range ("dev:offset:length[,...]"; offset
/// and length accept size suffixes), fault.devices ("0,2,5"; empty = all).
[[nodiscard]] Result<fault::FaultParams> load_fault_params(const Config& cfg);

/// Keys: retry.timeout (0 disables the per-command timer), retry.retries,
/// retry.backoff, retry.backoff_cap.
[[nodiscard]] Result<core::RetryParams> load_retry_params(const Config& cfg);

/// Keys: net.latency, net.bandwidth_mbps, net.overhead, net.header,
/// net.responses_carry_data.
[[nodiscard]] Result<net::LinkParams> load_link_params(const Config& cfg);

/// The declarative device stack above the node's disks. Keys: all fault.*
/// keys, retry.enable (default: true when any retry.* key is present;
/// faults alone enable default retries) + retry.* keys, net.enable
/// (default: true when any net.* key is present) + net.* keys (a disabled
/// layer's keys are still checked), and the raid aggregation: stack.raid
/// (none|mirror|stripe), stack.mirror.ways, stack.mirror.policy
/// (round-robin|region-affine), stack.mirror.fail_threshold,
/// stack.stripe_unit.
[[nodiscard]] Result<io::StackSpec> load_stack_spec(const Config& cfg);

/// The whole deployment: node plus stack. Keys: topology.preset
/// (base|medium|large), topology.controllers, topology.disks_per_controller,
/// topology.seed (0 = keep the built-in seed), all disk.*/ctrl.* keys, and
/// every stack key above.
[[nodiscard]] Result<node::TopologySpec> load_topology_spec(const Config& cfg);

/// Keys: all of the above plus workload.streams, workload.request,
/// workload.outstanding, workload.think, workload.think_jitter,
/// workload.seed (0 = keep the built-in default), workload.issue_period,
/// run.warmup, run.measure, sched.enable (default: true when any sched.*
/// key is present; a disabled scheduler's keys are still checked),
/// sim.shards (event-engine shards, 1 = single-threaded) and sim.lookahead
/// (cross-shard barrier horizon; 0 = derive from the network latency or the
/// built-in default). Tail latency: slo.objective (duration; > 0 enables
/// the SLO engine), slo.quantile (target quantile in (0,1], default 0.99),
/// slo.window (evaluation window, default 1s), slo.burn_rate (allowed
/// breaching-window fraction, default 0) and obs.attribution (bool;
/// per-request stage attribution, implied by an enabled SLO). Backend:
/// backend.kind (sim|real), backend.path, backend.queue_depth,
/// backend.direct and backend.reactors. Stream specs are sized against the
/// topology's logical device view (e.g. one striped volume). A key that
/// none of these loaders reads is an error.
[[nodiscard]] Result<experiment::ExperimentConfig> load_experiment(const Config& cfg);

}  // namespace sst::configio
