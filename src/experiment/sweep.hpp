// Parallel sweep engine: every paper figure is a grid of independent,
// deterministic simulations, so the most profitable parallelism is across
// grid points. run_sweep fans experiment runs over a fixed-size thread pool
// while keeping results in input order, bit-identical to a serial run. A
// simulated run on a pool worker keeps its cells on that worker
// (on_sweep_worker()); a real run still gives each reactor a thread.
#pragma once

#include <functional>
#include <vector>

#include "experiment/runner.hpp"

namespace sst::experiment {

/// Worker count used when run_sweep is called with workers == 0: the
/// SST_BENCH_THREADS environment variable when set to a positive integer,
/// otherwise std::thread::hardware_concurrency (at least 1).
[[nodiscard]] unsigned default_sweep_workers();

/// Run every configuration across up to `workers` threads (0 = the
/// default_sweep_workers() policy). Results come back in input order and
/// are bit-identical to running each config serially — run_experiment is
/// deterministic and shares no mutable state between runs. The first
/// exception thrown by any run is rethrown after outstanding work drains.
[[nodiscard]] std::vector<ExperimentResult> run_sweep(
    const std::vector<ExperimentConfig>& configs, unsigned workers = 0);

/// True on a thread run_sweep_jobs() runs jobs on in parallel. A simulated
/// run there runs its cells in order on that thread instead of starting
/// threads of its own: the sweep already keeps a worker per CPU busy. A
/// real run's reactors run together in wall time, so they still get a
/// thread each.
[[nodiscard]] bool on_sweep_worker();

/// Generalized fan-out for sweeps whose points are not plain
/// ExperimentConfigs (custom harnesses around the simulator). Each job must
/// be independent and deterministic; same ordering/exception contract as
/// run_sweep.
[[nodiscard]] std::vector<ExperimentResult> run_sweep_jobs(
    const std::vector<std::function<ExperimentResult()>>& jobs, unsigned workers = 0);

}  // namespace sst::experiment
