// The experiment API: an ExperimentConfig in, the numbers every paper
// figure needs out (aggregate and per-stream MB/s, response-time
// distribution, per-layer counters). run_experiment() is the one entry
// point for both backends. It assembles every run from experiment::Cell
// (experiment/cell.hpp): a device stack, an optional stream-scheduler
// server, closed-loop stream clients and their observers on one execution
// context. plan_cells() cuts the deployment into cells and homes every
// stream on the cell that owns its device; the backends differ only in
// what each cell runs on:
//
//   sim   one cell per controller group, each on its own sim::Simulator
//         and thread; one cell unless the run is sharded or splits
//         exactly (sharding.hpp);
//   real  one cell per reactor thread over io_uring rings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "blockdev/uring_block_device.hpp"
#include "core/params.hpp"
#include "core/reliable_device.hpp"
#include "core/scheduler.hpp"
#include "core/server.hpp"
#include "exec/real_context.hpp"
#include "net/network.hpp"
#include "node/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "raid/mirrored_volume.hpp"
#include "stats/histogram.hpp"
#include "workload/generator.hpp"

namespace sst::experiment {

/// Which execution backend carries the experiment (`backend.*` keys).
/// kSim is the default and the only deterministic one; kReal replays the
/// same scheduler/client wiring against real files through the io_uring
/// block device on a wall-clock ExecutionContext.
struct BackendConfig {
  enum class Kind : std::uint8_t { kSim, kReal };
  Kind kind = Kind::kSim;
  /// Backing file for kReal (`backend.path`), pre-formatted with
  /// scripts/mkpattern.py; carved into one slice per physical device.
  std::string path;
  /// Per-device io_uring depth (`backend.queue_depth`).
  std::uint32_t queue_depth = 64;
  /// Attempt O_DIRECT (`backend.direct`); buffered fallback is automatic
  /// on filesystems that refuse it (tmpfs).
  bool direct = true;
  /// Reactor threads for kReal (`backend.reactors`), at most one per
  /// device. > 1 splits the devices into contiguous per-reactor groups,
  /// planned like `sim.shards` (a mirror group stays on one reactor, a
  /// stripe runs on one), each a cell with its own RealContext, rings and
  /// clients on a dedicated thread. 1 (default) runs one such cell.
  std::uint32_t reactors = 1;
};

struct ExperimentConfig {
  /// The whole simulated deployment: the physical node plus the declarative
  /// device stack above it (fault injection, retry, raid, network link).
  node::TopologySpec topology;
  /// Present = route requests through the StorageServer (the paper's
  /// system); absent = clients hit the block devices directly (baseline).
  std::optional<core::SchedulerParams> scheduler;
  std::vector<workload::StreamSpec> streams;
  SimTime warmup = sec(4);
  SimTime measure = sec(20);
  /// Present = record request-lifecycle trace events into this tracer
  /// (owned by the caller; one tracer per experiment, so parallel sweep
  /// points can trace concurrently). Absent = zero tracing overhead.
  obs::Tracer* tracer = nullptr;
  /// > 0 = sample live gauges (dispatch-set occupancy, buffer-pool bytes,
  /// per-disk queue depth, windowed MB/s) every `sample_interval` of sim
  /// time into ExperimentResult::timeseries.
  SimTime sample_interval = 0;
  /// Simulated cells (the `sim.shards` key). 1 = the result of one
  /// Simulator over the whole node; a run that splits_exactly() gets it
  /// from one cell per usable CPU. > 1 = the deployment splits at
  /// controller boundaries into that many cells (clamped to the controller
  /// count and the raid layout), each with its own Simulator, thread,
  /// device-stack slice and share of the scheduler's dispatch set and
  /// memory, and each stream runs on the cell that owns its device. The
  /// result is still the one Simulator's when the config would split
  /// exactly at 1, and deterministic for a fixed seed and cell count
  /// otherwise.
  std::uint32_t shards = 1;
  /// Global workload seed (`workload.seed` key). Streams whose spec leaves
  /// `seed` at 0 get an independent per-stream seed derived from this and
  /// their spec ordinal (see experiment/sharding.hpp).
  std::uint64_t workload_seed = 0x53535457'4C4F4144ULL;  // "SSTWLOAD"
  /// Declarative tail-latency objective (`slo.*` keys). Enabled when
  /// `slo.objective > 0`: response times are additionally collected into
  /// per-window histograms and judged by the SloEngine after the run.
  obs::SloSpec slo;
  /// Per-request latency attribution (`obs.attribution` key, implied by an
  /// enabled SLO): stage timestamps are threaded through the request
  /// lifecycle and exported as the latency_breakdown metrics group.
  bool attribution = false;
  /// Present = journal request-lifecycle events into this flight recorder
  /// (owned by the caller, like the tracer). Runs of several cells record
  /// into per-cell rings merged back into this one after the cells finish.
  obs::FlightRecorder* flight = nullptr;
  /// Execution backend (`backend.*` keys). kSim unless configured
  /// otherwise; see run_experiment() for what kReal supports.
  BackendConfig backend;
};

/// io_uring counters folded over every ring of a real run by the
/// blockdev::UringStats table, plus what only the run knows. `enabled` only
/// when backend.kind = real executed, which gates the uring.* metrics group
/// (sim exports stay byte-identical).
struct UringSummary : blockdev::UringStats {
  bool enabled = false;
  std::uint32_t devices = 0;         ///< rings opened (one per physical device)
  std::uint32_t direct_devices = 0;  ///< rings whose backing fd took O_DIRECT
  /// Completed requests per ring (global physical device order) — the
  /// balance figure the multi-reactor CI smoke asserts on.
  std::vector<std::uint64_t> per_device_completed;
  /// IORING_SETUP_* flags per ring (global physical device order):
  /// multiplexed rings open without the taskrun flags.
  std::vector<std::uint32_t> per_device_setup_flags;
};

/// Reactor wakeup accounting folded over every RealContext of a real run;
/// `enabled` gates the reactor.* metrics group like UringSummary.
struct ReactorSummary : exec::ReactorStats {
  bool enabled = false;
  std::uint32_t reactors = 1;   ///< effective reactor count
  std::uint32_t requested = 1;  ///< configured value before clamping
};

/// Cell counts of a sharded run; `shards` stays 1 (and nothing is
/// exported) for a run whose result is one Simulator's.
struct ShardSummary {
  std::uint32_t shards = 1;     ///< effective cell count
  std::uint32_t requested = 1;  ///< configured value before clamping
  std::uint64_t min_shard_events = 0;  ///< least-loaded cell's events
  std::uint64_t max_shard_events = 0;  ///< most-loaded cell's events
};

struct ExperimentResult {
  double total_mbps = 0.0;
  double min_stream_mbps = 0.0;
  double max_stream_mbps = 0.0;
  /// Per-stream throughput, in the order of ExperimentConfig::streams.
  std::vector<double> stream_mbps;
  std::uint64_t requests_completed = 0;
  stats::LatencyHistogram latency;  ///< merged over all streams
  node::NodeDiskTotals disk_totals;
  node::NodeControllerTotals controller_totals;
  core::SchedulerStats scheduler_stats;    ///< zeros when no scheduler
  core::ServerStats server_stats;          ///< zeros when no scheduler
  core::ClassifierStats classifier_stats;  ///< zeros when no scheduler
  core::StagingStats staging_stats;        ///< zeros when no scheduler
  /// Event-engine counters for the whole run (warm-up + measurement).
  std::uint64_t sim_events_dispatched = 0;
  std::uint64_t sim_wheel_cascades = 0;
  double host_cpu_utilization = 0.0;
  Bytes peak_buffer_memory = 0;
  fault::FaultStats fault_stats;     ///< zeros when fault injection is off
  core::RetryStats retry_stats;      ///< summed over devices; zeros when off
  net::NetFaultStats net_fault_stats;  ///< zeros without network faults
  /// Raid aggregation in effect for this run (kNone = flat device view; the
  /// "raid" metrics group is only exported when a raid layer was active).
  io::RaidSpec::Kind raid_kind = io::RaidSpec::Kind::kNone;
  raid::MirrorStats mirror_stats;    ///< summed over groups; zeros without kMirror
  std::uint64_t devices_failed = 0;  ///< declared failed by the scheduler
  std::uint64_t client_errors = 0;   ///< client requests completed in error
  /// Cell counts; exported as sim.shard_* only when the run sharded
  /// (keeping single-cell exports byte-identical).
  ShardSummary shard_summary;
  /// Real-backend ring counters; exported as uring.* only for real runs.
  UringSummary uring_summary;
  /// Real-backend reactor counters; exported as reactor.* only for real runs.
  ReactorSummary reactor_summary;
  /// Sampled gauges; empty unless ExperimentConfig::sample_interval > 0.
  obs::TimeSeries timeseries;
  /// SLO verdict; `enabled` only when the config declared an objective.
  obs::SloReport slo_report;
  /// Per-stage latency attribution; `enabled` only when attribution ran.
  obs::LatencyBreakdown breakdown;

  [[nodiscard]] double per_disk_mbps(std::uint32_t disks) const {
    return disks ? total_mbps / disks : 0.0;
  }

  /// Complete metrics export (throughput, latency quantiles and histogram
  /// buckets, disk/controller/scheduler/server counters) as one JSON
  /// document. Deterministic: same result, same bytes.
  [[nodiscard]] std::string to_json() const;
};

/// Run one configuration to completion. Deterministic: same config, same
/// result (sim.wheel_cascades aside, which counts per cell and so depends on
/// how many cells an exactly splitting run uses) — except with
/// backend.kind = kReal, where wall-clock timing makes every run unique.
///
/// A real run puts one UringBlockDevice slice of `backend.path` under each
/// physical device, with the same cells and device stack (fault injection,
/// retry, raid) as the simulation, on wall-clock execution contexts. Its
/// reactors are planned like sim cells over one device per controller.
/// It rejects the simulated network link and sim.shards > 1, throwing
/// std::runtime_error for those, when the backend is unavailable, or when
/// the backing file doesn't fit the topology. A failing cell's exception
/// reaches the caller with its own type, on either backend.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// True when the library was built with the io_uring backend
/// (-DSST_WITH_URING=ON); backend.kind = real is rejected otherwise.
[[nodiscard]] bool real_backend_available();

}  // namespace sst::experiment
