// Stat adders and a cell's scheduler share. merge_cells()
// (experiment/cell.hpp) folds every cell's counters into the one
// ExperimentResult with these adders, whatever the runner and cell count;
// slice_scheduler_params() sizes the server of a cell smaller than the node.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "experiment/runner.hpp"

namespace sst::experiment {

inline void add_disk_totals(node::NodeDiskTotals& a, const node::NodeDiskTotals& b) {
  a.bytes_requested += b.bytes_requested;
  a.bytes_from_media += b.bytes_from_media;
  a.commands += b.commands;
  a.cache_hits += b.cache_hits;
  a.cache_misses += b.cache_misses;
  a.wasted_prefetch_sectors += b.wasted_prefetch_sectors;
  a.seek_time += b.seek_time;
  a.busy_time += b.busy_time;
}

inline void add_controller_totals(node::NodeControllerTotals& a,
                                  const node::NodeControllerTotals& b) {
  a.commands += b.commands;
  a.bytes_to_host += b.bytes_to_host;
  a.bus_busy_time += b.bus_busy_time;
  a.cache_hits += b.cache_hits;
  a.cache_misses += b.cache_misses;
  a.cache_evictions += b.cache_evictions;
  a.prefetched_bytes += b.prefetched_bytes;
  a.wasted_prefetch_bytes += b.wasted_prefetch_bytes;
}

inline void add_scheduler_stats(core::SchedulerStats& a, const core::SchedulerStats& b) {
  a.streams_created += b.streams_created;
  a.streams_retired += b.streams_retired;
  a.disk_reads += b.disk_reads;
  a.bytes_prefetched += b.bytes_prefetched;
  a.client_completions += b.client_completions;
  a.bytes_served += b.bytes_served;
  a.buffer_hits += b.buffer_hits;
  a.rotations += b.rotations;
  a.dispatch_stalls += b.dispatch_stalls;
  a.gc_buffers_reclaimed += b.gc_buffers_reclaimed;
  a.gc_bytes_wasted += b.gc_bytes_wasted;
  a.gc_streams_retired += b.gc_streams_retired;
  a.fallback_direct_reads += b.fallback_direct_reads;
  a.escalated_reads += b.escalated_reads;
  a.prefetch_errors += b.prefetch_errors;
  a.streams_evicted += b.streams_evicted;
  a.requests_failed += b.requests_failed;
}

inline void add_server_stats(core::ServerStats& a, const core::ServerStats& b) {
  a.requests += b.requests;
  a.sequential_requests += b.sequential_requests;
  a.direct_reads += b.direct_reads;
  a.direct_writes += b.direct_writes;
  a.rejected_requests += b.rejected_requests;
}

inline void add_classifier_stats(core::ClassifierStats& a, const core::ClassifierStats& b) {
  a.requests_seen += b.requests_seen;
  a.regions_allocated += b.regions_allocated;
  a.regions_collected += b.regions_collected;
  a.streams_detected += b.streams_detected;
  a.bitmap_bytes += b.bitmap_bytes;
}

inline void add_staging_stats(core::StagingStats& a, const core::StagingStats& b) {
  a.bytes_copied += b.bytes_copied;
  a.zero_copy_hits += b.zero_copy_hits;
}

inline void add_fault_stats(fault::FaultStats& a, const fault::FaultStats& b) {
  a.commands_seen += b.commands_seen;
  a.media_errors += b.media_errors;
  a.persistent_errors += b.persistent_errors;
  a.hangs += b.hangs;
  a.spikes += b.spikes;
}

inline void add_net_fault_stats(net::NetFaultStats& a, const net::NetFaultStats& b) {
  a.dropped += b.dropped;
  a.spiked += b.spiked;
  a.transport_errors += b.transport_errors;
}

inline void add_retry_stats(core::RetryStats& a, const core::RetryStats& b) {
  a.commands += b.commands;
  a.retries_total += b.retries_total;
  a.timeouts += b.timeouts;
  a.media_errors += b.media_errors;
  a.recovered += b.recovered;
  a.giveups += b.giveups;
  a.backoff_time += b.backoff_time;
}

inline void add_mirror_stats(raid::MirrorStats& a, const raid::MirrorStats& b) {
  a.reads += b.reads;
  a.writes += b.writes;
  a.member_errors += b.member_errors;
  a.failovers += b.failovers;
  a.degraded_reads += b.degraded_reads;
  a.degraded_writes += b.degraded_writes;
  a.read_failures += b.read_failures;
  a.write_failures += b.write_failures;
}

/// The slice's proportional share of the host scheduler resources. The
/// dispatch set and the buffer budget both scale with the slice's share of
/// the logical devices (rounded, floor 1 / one read-ahead), then the
/// budget is raised to whatever the scaled dispatch set needs so the
/// params still validate.
inline core::SchedulerParams slice_scheduler_params(const core::SchedulerParams& params,
                                                    std::uint32_t slice_devices,
                                                    std::uint32_t total_devices) {
  core::SchedulerParams scaled = params;
  const double share =
      static_cast<double>(slice_devices) / static_cast<double>(total_devices);
  if (params.dispatch_set_size > 0) {
    scaled.dispatch_set_size = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(params.dispatch_set_size * share)));
  }
  scaled.memory_budget = std::max<Bytes>(
      static_cast<Bytes>(std::llround(static_cast<double>(params.memory_budget) * share)),
      scaled.read_ahead);
  const Bytes dispatch_need = static_cast<Bytes>(scaled.dispatch_set_size) *
                              scaled.read_ahead * scaled.requests_per_residency;
  scaled.memory_budget = std::max(scaled.memory_budget, dispatch_need);
  return scaled;
}

}  // namespace sst::experiment
