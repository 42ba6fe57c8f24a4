// Cell planning for the experiment runners: how a TopologySpec splits into
// per-cell device-stack slices at controller boundaries, when a simulated
// run may split by itself because nothing couples its controllers, and the
// workload seed chain every stream's seed derives from. Pure config-time
// logic (no simulator), separated from the runners so tests can pin the
// planning rules directly.
#pragma once

#include <cstdint>
#include <vector>

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

struct ShardPlan {
  std::uint32_t requested = 1;  ///< configured cells before clamping
  std::vector<ShardSlice> slices;

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(slices.size());
  }

  /// Which cell owns logical device `device`.
  [[nodiscard]] std::uint32_t shard_of_logical(std::uint32_t device) const {
    for (std::uint32_t k = 0; k < shard_count(); ++k) {
      const ShardSlice& s = slices[k];
      if (device >= s.logical_begin && device < s.logical_begin + s.logical_count) {
        return k;
      }
    }
    return 0;
  }
};

/// Split `topology` into at most `requested` cells at controller
/// boundaries (a controller and its disks never straddle cells). Clamps to
/// the controller count; falls back toward fewer cells when the raid
/// layout couples devices across a proposed boundary (any striping, or a
/// mirror group splitting).
[[nodiscard]] ShardPlan plan_shards(const node::TopologySpec& topology,
                                    std::uint32_t requested);

struct ExperimentConfig;
struct ExperimentResult;

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
/// chain. Every runner seeds stream `ordinal` (its position in spec order)
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
