// The experiment cell: everything that runs on one execution context, built
// by one constructor and harvested into plain data. A cell holds
//
//   - the io::DeviceStack above its leaf devices: a simulated node slice on
//     the sim backend, io_uring rings opened by the real backend's cell
//     runner; both go through the same io::DeviceStackBuilder;
//   - the optional StorageServer with its share of the scheduler resources;
//   - the StreamClients of its plan, made resident by the constructor, each
//     behind the one attribution/flight wrapper when attribution is on;
//   - the SLO windows, and a private tracer and flight ring when the
//     experiment has more than one cell;
//   - the one gauge set of the time-series sampler.
//
// One pipeline runs every experiment (runner.hpp): plan_cells() cuts the
// deployment, run_experiment() runs each cell through a CellRunner, which
// is all that differs between the backends, and merge_cells() folds the
// outcomes into the result.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/sharding.hpp"

namespace sst::experiment {

/// Where a cell sits in the experiment, and what runs on it.
struct CellPlan {
  std::uint32_t id = 0;     ///< cell index
  std::uint32_t count = 1;  ///< cells in the experiment
  /// The cell's devices in global coordinates: names the disk gauges and
  /// shifts a private tracer's tracks back into the global layout.
  ShardSlice slice;
  /// The deployment slice the cell builds: node and device stack.
  node::TopologySpec topology;
  /// Spec ordinals of the streams homed on the cell, in spec order. The
  /// cell makes each resident: the ordinal keys its result slot and
  /// request ids, and its spec is seeded_stream()'s with the device index
  /// rebased into the slice.
  std::vector<std::uint32_t> streams;
  /// Real backend: the opened leaf devices (owned by the cell runner),
  /// which replace the simulated node of `topology`.
  std::vector<blockdev::BlockDevice*> devices;
};

/// Cut `topology` into at most `requested` cells at controller boundaries
/// (a controller and its disks never straddle cells): clamped to the
/// controller count, and toward fewer cells when the raid layout couples
/// devices across a proposed boundary (any striping, or a mirror group
/// splitting). Each cell gets its slice, the sub-topology it builds with
/// fault seeds and bad ranges rebased into the slice
/// (node::TopologySpec::shard_slice), and every stream of `config` homed on
/// the cell that owns its device (the first cell for a device none owns,
/// whose set-up then fails). Both backends plan their cells through it.
[[nodiscard]] std::vector<CellPlan> plan_cells(const ExperimentConfig& config,
                                               const node::TopologySpec& topology,
                                               std::uint32_t requested);

/// Plain-data result of one cell, produced on the thread that ran it. The
/// counters sit in an ExperimentResult of their own: the resident clients'
/// throughput (one stream_mbps entry per resident), latency and request
/// counts, the stats of the cell's server and devices, its time series and
/// latency breakdown.
struct CellOutcome {
  ExperimentResult part;
  std::vector<std::uint32_t> ordinals;  ///< spec ordinal of each part.stream_mbps entry
  ShardSlice slice;
  SimTime end_time = 0;  ///< the cell's clock at harvest
  obs::WindowedLatencyRecorder slo_windows{1};
  std::unique_ptr<obs::Tracer> tracer;          ///< private tracer (count > 1)
  std::unique_ptr<obs::FlightRecorder> flight;  ///< private ring (count > 1)
};

class Cell {
 public:
  /// Build the cell's device stack, server and observers on `ctx`, and make
  /// the plan's streams resident. The config, the context and the plan's
  /// leaf devices must outlive the cell.
  Cell(exec::ExecutionContext& ctx, const ExperimentConfig& config, CellPlan plan);
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;
  ~Cell();

  /// Top of the cell's stack: where requests for its devices enter.
  [[nodiscard]] const workload::RequestSink& entry() const { return entry_; }
  [[nodiscard]] core::StorageServer* server() { return server_.get(); }
  [[nodiscard]] Bytes device_capacity(std::uint32_t device) const;

  /// Make a client resident on this cell; its requests enter at entry().
  /// The constructor does this for the plan's streams.
  void add_client(std::uint32_t ordinal, const workload::StreamSpec& spec, Bytes capacity);

  /// Start the resident clients, then the gauges.
  void start();
  /// End of warm-up: reset the clients, the attribution stages and the
  /// gauge baselines.
  void begin_measurement();
  /// Drop requests arriving at entry() from now on, so in-flight I/O can
  /// drain before teardown.
  void close() { closed_ = true; }
  /// The cell's numbers for the window [t0, t1]; ends the cell's run.
  [[nodiscard]] CellOutcome harvest(SimTime t0, SimTime t1);

 private:
  class ScratchBuffers;
  /// The one gauge set, in sampling order.
  [[nodiscard]] std::vector<std::pair<std::string, std::function<double()>>> gauges();

  exec::ExecutionContext& ctx_;
  const ExperimentConfig& config_;
  CellPlan plan_;
  bool attribution_;
  std::unique_ptr<node::StorageNode> node_;  ///< sim leaf
  std::unique_ptr<io::DeviceStack> stack_;
  std::unique_ptr<obs::Tracer> own_tracer_;
  std::unique_ptr<obs::FlightRecorder> own_flight_;
  obs::Tracer* tracer_;
  obs::FlightRecorder* flight_;
  std::unique_ptr<core::StorageServer> server_;
  std::unique_ptr<ScratchBuffers> scratch_;  ///< real raw path only
  obs::WindowedLatencyRecorder slo_windows_;
  obs::LatencyAttributor attributor_;
  bool closed_ = false;
  workload::RequestSink entry_;
  std::vector<std::uint32_t> ordinals_;
  std::vector<std::unique_ptr<workload::StreamClient>> clients_;
  /// Gauge baselines: the windowed MB/s and rolling percentiles report the
  /// change since the previous tick, or since begin_measurement().
  Bytes tick_bytes_ = 0;
  SimTime tick_time_ = 0;
  stats::LatencyHistogram tick_latency_;
  stats::LatencyHistogram tick_delta_;
  obs::TimeSeriesSampler sampler_;
};

/// The spec of stream `ordinal` with the seed every cell gives it: chain
/// 0 of the workload seed, keyed by the position in spec order.
[[nodiscard]] workload::StreamSpec seeded_stream(const ExperimentConfig& config,
                                                 std::uint32_t ordinal);

/// Fold the cells' outcomes into one result: streams in spec order, stats
/// through their counter tables (common/counters.hpp), ring and reactor
/// counters too with the per-ring arrays joined in cell order, the busiest
/// cell's host CPU, private tracers and flight rings into the caller's,
/// time series column-wise with a summed `mbps`, breakdown and SLO windows
/// into one verdict.
[[nodiscard]] ExperimentResult merge_cells(const ExperimentConfig& config,
                                           std::vector<CellOutcome>& cells);

/// What a cell runs on, the cell included. A CellRunner builds it; it is
/// torn down once the cells are merged, on the thread that built it.
class CellModel {
 public:
  CellModel() = default;
  CellModel(const CellModel&) = delete;
  CellModel& operator=(const CellModel&) = delete;
  virtual ~CellModel() = default;
};

/// Builds, runs and harvests one cell on the calling thread, leaving what
/// the cell ran on in `model`: all that differs between the backends.
using CellRunner =
    std::function<CellOutcome(CellPlan plan, std::unique_ptr<CellModel>& model)>;

/// The real backend's CellRunner: on a fresh exec::RealContext, it opens one
/// UringBlockDevice slice of `backend.path` per device of the cell,
/// pre-warms and registers the staging memory, runs the window, drains the
/// rings and reports their counters and the reactor's measured CPU. Throws
/// std::runtime_error at once when the backend is unavailable, the config
/// asks for a network link or sim.shards > 1, or the backing file does not
/// fit the topology.
[[nodiscard]] CellRunner real_cell_runner(const ExperimentConfig& config);

}  // namespace sst::experiment
