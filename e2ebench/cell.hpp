// The traced run: the same experiment run_experiment builds, assembled
// here from the public layer APIs (sim::Simulator + node::Topology, or
// exec::RealContext + UringBlockDevice, then core::StorageServer and
// workload::StreamClient) with the probes of probe.hpp at every layer
// boundary. The untraced run goes through run_experiment itself; the
// difference between the two is the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "probe.hpp"
#include "stats/histogram.hpp"

namespace sst::bench {

/// The model's answers for one repetition. On sim workloads these are a
/// pure function of the config: repetitions, and the traced and untraced
/// runs of sim_staged, must agree exactly.
struct ModelOutputs {
  double total_mbps = 0.0;
  double min_stream_mbps = 0.0;
  double write_mbps = 0.0;  ///< MB/s of the streams that write
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  std::uint64_t requests_completed = 0;
  std::uint64_t client_errors = 0;

  bool operator==(const ModelOutputs&) const = default;
};

[[nodiscard]] ModelOutputs model_outputs(const experiment::ExperimentConfig& config,
                                         const experiment::ExperimentResult& result);

/// Everything one traced repetition measured, merged over its reactor
/// groups.
struct CellReport {
  ModelOutputs model;
  experiment::ExperimentResult result;  ///< the harvested subset run_experiment reports
  SpanRecorder spans{0};
  DeviceLedger devices;
  stats::LatencyHistogram issue_to_done;  ///< client probe, context clock
  std::uint64_t run_cpu_ns = 0;   ///< thread CPU of the event-loop calls
  std::uint64_t run_wall_ns = 0;  ///< wall time of the same calls
  /// Events the event loops dispatched: simulator events, or reactor
  /// timer tasks plus the I/O completions it delivered.
  std::uint64_t events = 0;
  double setup_devices_ms = 0.0;
  double setup_server_ms = 0.0;
  double setup_clients_ms = 0.0;
  SimTime elapsed = 0;  ///< context time the repetition covered
};

/// Run `config` once with every probe attached. Real configs run one cell
/// per reactor group, each on its own thread, and verify read data against
/// the backing file's pattern.
[[nodiscard]] CellReport run_traced(const experiment::ExperimentConfig& config);

}  // namespace sst::bench
