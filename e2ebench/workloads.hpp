// The benchmark's four workloads and the seeded inputs each one runs.
//
// Every workload is closed loop with one outstanding request per stream
// (the paper's xdd emulation) and uses at most three threads. The seed is
// the only randomized input: it shifts each stream's start inside its slot
// by a request-aligned amount and, in sim_raw_rw, picks which streams
// write. The program under test receives only the generated StreamSpecs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "experiment/runner.hpp"

namespace sst::bench {

/// The real workloads read slices of one pattern-formatted, page-cached
/// regular file (seed 0, the bytes scripts/mkpattern.py writes).
inline constexpr Bytes kBackingBytes = 1 * GiB;
inline constexpr std::uint64_t kBackingSeed = 0;
inline constexpr std::uint32_t kRealDevices = 4;

struct Workload {
  std::string_view name;
  bool real = false;
  /// Simulated warm-up before each measured window (real workloads run
  /// without one, so a call's whole CPU divides by its requests).
  SimTime warmup = 0;
  /// One repetition's measured window: simulated time on sim workloads,
  /// wall time on real ones. Fixed, so every repetition of a seed does the
  /// same work and sim model outputs are comparable exactly.
  SimTime window = 0;
  /// The traced run's window (real workloads trace longer windows).
  SimTime traced_window = 0;
  /// Short windows for the schema smoke test.
  SimTime smoke_window = 0;
  std::uint32_t streams = 0;
  /// The traced run also times this experiment on 2 shards against 1
  /// (sim.shard2_slowdown).
  bool times_sharding = false;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The full experiment for one repetition of `w` under `seed`, measuring
/// `window` after the workload's warm-up. `backing_file` is used by the
/// real workloads only.
[[nodiscard]] experiment::ExperimentConfig make_config(const Workload& w, std::uint64_t seed,
                                                       SimTime window,
                                                       const std::string& backing_file);

}  // namespace sst::bench
