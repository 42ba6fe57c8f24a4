// A cell's scheduler share, and by-name aliases of the counter fold.
// merge_cells() (experiment/cell.hpp) folds every cell's counters into the
// one ExperimentResult through the per-layer counter tables
// (common/counters.hpp), whatever the backend and cell count;
// slice_scheduler_params() sizes the server of a cell smaller than the node.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/counters.hpp"
#include "experiment/runner.hpp"

namespace sst::experiment {

// e2ebench/ folds these four by name.
inline constexpr auto& add_scheduler_stats = fold_counters<core::SchedulerStats>;
inline constexpr auto& add_server_stats = fold_counters<core::ServerStats>;
inline constexpr auto& add_classifier_stats = fold_counters<core::ClassifierStats>;
inline constexpr auto& add_staging_stats = fold_counters<core::StagingStats>;

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
