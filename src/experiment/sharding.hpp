// Cell planning terms: the slice of the deployment a cell owns, when a
// simulated run may split by itself because nothing couples its
// controllers, and the workload seed chain every stream's seed derives
// from. plan_cells() (experiment/cell.hpp) cuts a TopologySpec into those
// slices for both backends. Pure config-time logic (no simulator), so
// tests can pin the planning rules directly.
#pragma once

#include <cstdint>

#include "common/random.hpp"
#include "common/types.hpp"
#include "node/topology.hpp"

namespace sst::experiment {

/// One cell's contiguous slab of the deployment, in controller, physical
/// device, and logical (post-raid) device coordinates.
struct ShardSlice {
  std::uint32_t ctrl_begin = 0;
  std::uint32_t ctrl_count = 0;
  std::uint32_t dev_begin = 0;  ///< physical devices (controller-major)
  std::uint32_t dev_count = 0;
  std::uint32_t logical_begin = 0;  ///< flat logical view indices
  std::uint32_t logical_count = 0;
};

struct ExperimentConfig;

/// True when nothing in a simulated `config` couples its controllers or
/// journals across them, so cells split at controller boundaries return
/// exactly what one Simulator over the whole node returns (apart from
/// sim.wheel_cascades): the sim backend, sim.shards <= 1, and no scheduler
/// (one dispatch set and memory budget span the node), network link (one
/// link carries every device), stripe (one volume spans every spindle),
/// fault injection (its decisions are keyed per slice), tracer or flight
/// recorder (one journal in event order) or sampling (one gauge set).
/// run_experiment() splits such a run by itself.
[[nodiscard]] bool splits_exactly(const ExperimentConfig& config);

/// The workload seed chain: global seed ⊕ chain id through the mix64
/// chain. Every cell seeds stream `ordinal` (its position in spec order)
/// from chain 0, so a stream's seed does not depend on the cell it runs on.
[[nodiscard]] constexpr std::uint64_t shard_workload_seed(std::uint64_t workload_seed,
                                                          std::uint32_t shard) {
  return derive_seed(workload_seed ^ shard, 0x53484152ULL /* "SHAR" */);
}

/// Per-stream seed within a chain, keyed by the stream's ordinal.
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t shard_seed,
                                                  std::uint32_t ordinal) {
  return derive_seed(shard_seed, ordinal);
}

}  // namespace sst::experiment
