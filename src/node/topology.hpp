// A topology is the whole simulated deployment as one declarative value:
// the physical node (controllers x disks, `topology.*` keys) plus the
// device stack layered above it (`stack.*` keys). Constructing a Topology
// builds the node and its stack together so benches and examples compose
// devices the same way instead of hand-wiring wrappers; experiment::Cell
// takes the same two steps, with real devices in place of the node.
//
// TopologySpec is config-time only (no simulator needed), so workload
// generators can size streams against the logical device view before
// anything is built.
#pragma once

#include <cstdint>
#include <memory>

#include "common/random.hpp"
#include "node/device_stack.hpp"
#include "node/storage_node.hpp"

namespace sst::node {

struct TopologySpec {
  NodeConfig node;
  io::StackSpec stack;

  /// Devices in the flat logical view the host software sees (after raid
  /// aggregation). Stream specs index into this view.
  [[nodiscard]] std::uint32_t logical_device_count() const {
    switch (stack.raid.kind) {
      case io::RaidSpec::Kind::kNone: return node.total_disks();
      case io::RaidSpec::Kind::kMirror:
        return node.total_disks() / stack.raid.mirror_ways;
      case io::RaidSpec::Kind::kStripe: return 1;
    }
    return node.total_disks();
  }

  /// Capacity of each logical device (uniform: all disks share DiskParams).
  [[nodiscard]] Bytes logical_device_capacity() const {
    const Bytes disk = node.disk.geometry.capacity;
    switch (stack.raid.kind) {
      case io::RaidSpec::Kind::kNone: return disk;
      case io::RaidSpec::Kind::kMirror: return disk;  // replicas, not capacity
      case io::RaidSpec::Kind::kStripe: return disk * node.total_disks();
    }
    return disk;
  }

  /// Shard-aware assembly: the sub-topology covering `ctrl_count`
  /// controllers starting at `ctrl_begin`, as its own self-contained spec.
  /// The slice keeps the global identity of its devices — the content seed
  /// advances by the first physical disk index (StorageNode seeds device i
  /// with seed + i), and fault config is rebased into the slice-local
  /// device space (ranges and filters for other slices drop out) — so the
  /// union of all slices describes exactly the original deployment.
  [[nodiscard]] TopologySpec shard_slice(std::uint32_t ctrl_begin,
                                         std::uint32_t ctrl_count) const {
    TopologySpec slice = *this;
    slice.node.num_controllers = ctrl_count;
    const std::uint32_t dev_begin = ctrl_begin * node.disks_per_controller;
    const std::uint32_t dev_count = ctrl_count * node.disks_per_controller;
    slice.node.seed = node.seed + dev_begin;
    // The injector keys its decisions on (seed, local device index); give
    // each slice a derived seed so shards don't replay one fault pattern.
    if (dev_begin != 0) {
      slice.stack.fault.seed = derive_seed(stack.fault.seed, dev_begin);
    }
    slice.stack.fault.bad_ranges.clear();
    for (fault::BadRange range : stack.fault.bad_ranges) {
      if (range.device < dev_begin || range.device >= dev_begin + dev_count) continue;
      range.device -= dev_begin;
      slice.stack.fault.bad_ranges.push_back(range);
    }
    slice.stack.fault.devices.clear();
    for (const std::uint32_t device : stack.fault.devices) {
      if (device < dev_begin || device >= dev_begin + dev_count) continue;
      slice.stack.fault.devices.push_back(device - dev_begin);
    }
    // An explicit device filter that excludes this whole slice must not
    // degenerate into "empty = every device": disable the probabilistic
    // sources instead.
    if (!stack.fault.devices.empty() && slice.stack.fault.devices.empty()) {
      slice.stack.fault.media_error_rate = 0.0;
      slice.stack.fault.hang_prob = 0.0;
      slice.stack.fault.spike_prob = 0.0;
    }
    return slice;
  }

  [[nodiscard]] Status validate() const {
    if (node.total_disks() == 0) {
      return make_error("topology must have at least one disk");
    }
    if (stack.raid.kind == io::RaidSpec::Kind::kMirror) {
      if (stack.raid.mirror_ways < 2) {
        return make_error("stack.mirror.ways must be >= 2");
      }
      if (node.total_disks() % stack.raid.mirror_ways != 0) {
        return make_error("disk count must divide into mirror groups of " +
                          std::to_string(stack.raid.mirror_ways));
      }
    }
    if (stack.raid.kind == io::RaidSpec::Kind::kStripe) {
      if (stack.raid.stripe_unit == 0 || stack.raid.stripe_unit % kSectorSize != 0) {
        return make_error("stack.stripe_unit must be a positive multiple of 512");
      }
    }
    return Status::success();
  }
};

/// The built deployment: the storage node plus its device stack.
class Topology {
 public:
  Topology(exec::ExecutionContext& simulator, const TopologySpec& spec)
      : node_(simulator, spec.node),
        stack_(io::DeviceStackBuilder(simulator, node_.devices())
                   .apply(spec.stack)
                   .build()) {}
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] StorageNode& node() { return node_; }
  [[nodiscard]] const StorageNode& node() const { return node_; }
  [[nodiscard]] io::DeviceStack& stack() { return *stack_; }
  [[nodiscard]] const io::DeviceStack& stack() const { return *stack_; }

  /// Flat logical device view (top of the stack).
  [[nodiscard]] const std::vector<blockdev::BlockDevice*>& devices() const {
    return stack_->devices();
  }
  [[nodiscard]] Bytes device_capacity(std::size_t index) const {
    return stack_->devices().at(index)->capacity();
  }

 private:
  StorageNode node_;
  std::unique_ptr<io::DeviceStack> stack_;
};

}  // namespace sst::node
