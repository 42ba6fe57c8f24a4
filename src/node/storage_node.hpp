// A storage node: controllers, their disks, and the flat device view the
// host software (stream scheduler or raw clients) talks to. Mirrors the
// paper's three simulated hierarchies plus the real 8-disk testbed:
//
//   base:    1 controller x 1 disk
//   medium:  2 controllers x 4 disks   (the real testbed: 8 SATA disks)
//   large:  16 controllers x 4 disks   (the 60+ disk configuration)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blockdev/sim_block_device.hpp"
#include "common/counters.hpp"
#include "common/types.hpp"
#include "controller/controller.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "disk/disk.hpp"
#include "exec/execution_context.hpp"

namespace sst::node {

struct NodeConfig {
  std::uint32_t num_controllers = 1;
  std::uint32_t disks_per_controller = 1;
  disk::DiskParams disk = disk::DiskParams::wd800jd();
  ctrl::ControllerParams controller = ctrl::ControllerParams::bc4810();
  /// Seed for device content patterns (device i uses seed + i).
  std::uint64_t seed = 0x5353544F52455F31ULL;

  [[nodiscard]] std::uint32_t total_disks() const {
    return num_controllers * disks_per_controller;
  }

  [[nodiscard]] static NodeConfig base() { return NodeConfig{}; }
  [[nodiscard]] static NodeConfig medium() {
    NodeConfig cfg;
    cfg.num_controllers = 2;
    cfg.disks_per_controller = 4;
    return cfg;
  }
  [[nodiscard]] static NodeConfig large() {
    NodeConfig cfg;
    cfg.num_controllers = 16;
    cfg.disks_per_controller = 4;
    return cfg;
  }
};

/// Aggregated counters across every controller of the node (transfer path
/// plus extent-cache behaviour).
struct NodeControllerTotals {
  std::uint64_t commands = 0;
  Bytes bytes_to_host = 0;
  SimTime bus_busy_time = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  Bytes prefetched_bytes = 0;
  Bytes wasted_prefetch_bytes = 0;
  /// Exported as controller.*.
  static constexpr counters::Counter<NodeControllerTotals> kCounters[] = {
      {"commands", &NodeControllerTotals::commands},
      {"bytes_to_host", &NodeControllerTotals::bytes_to_host},
      {"bus_busy_time_ms", &NodeControllerTotals::bus_busy_time, counters::kSum,
       counters::kMillis},
      {"cache_hits", &NodeControllerTotals::cache_hits},
      {"cache_misses", &NodeControllerTotals::cache_misses},
      {"cache_evictions", &NodeControllerTotals::cache_evictions},
      {"prefetched_bytes", &NodeControllerTotals::prefetched_bytes},
      {"wasted_prefetch_bytes", &NodeControllerTotals::wasted_prefetch_bytes},
  };
};

/// Aggregated counters across every disk of the node.
struct NodeDiskTotals {
  Bytes bytes_requested = 0;
  Bytes bytes_from_media = 0;
  std::uint64_t commands = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  Lba wasted_prefetch_sectors = 0;  ///< prefetched, evicted unread
  SimTime seek_time = 0;
  SimTime busy_time = 0;
  /// Exported as disk.*.
  static constexpr counters::Counter<NodeDiskTotals> kCounters[] = {
      {"bytes_requested", &NodeDiskTotals::bytes_requested},
      {"bytes_from_media", &NodeDiskTotals::bytes_from_media},
      {"commands", &NodeDiskTotals::commands},
      {"cache_hits", &NodeDiskTotals::cache_hits},
      {"cache_misses", &NodeDiskTotals::cache_misses},
      {"wasted_prefetch_sectors", &NodeDiskTotals::wasted_prefetch_sectors},
      {"seek_time_ms", &NodeDiskTotals::seek_time, counters::kSum, counters::kMillis},
      {"busy_time_ms", &NodeDiskTotals::busy_time, counters::kSum, counters::kMillis},
  };
};

class StorageNode {
 public:
  StorageNode(exec::ExecutionContext& simulator, NodeConfig config);
  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  [[nodiscard]] const NodeConfig& config() const { return config_; }
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }

  /// Flat device list (controller-major order) for servers and generators.
  [[nodiscard]] std::vector<blockdev::BlockDevice*> devices();
  [[nodiscard]] blockdev::SimBlockDevice& device(std::size_t index) {
    return *devices_.at(index);
  }
  [[nodiscard]] ctrl::Controller& controller(std::size_t index) {
    return *controllers_.at(index);
  }
  [[nodiscard]] std::size_t controller_count() const { return controllers_.size(); }
  /// The disk behind flat device `index`.
  [[nodiscard]] disk::Disk& disk_of(std::size_t index);

  /// Construct a storage server bound to all of this node's devices.
  [[nodiscard]] std::unique_ptr<core::StorageServer> make_server(core::SchedulerParams params);

  [[nodiscard]] NodeDiskTotals disk_totals() const;
  [[nodiscard]] NodeControllerTotals controller_totals() const;
  void reset_stats();

  /// Attach a per-experiment tracer to every controller and disk (nullptr
  /// detaches). The tracer must outlive the node.
  void attach_tracer(obs::Tracer* tracer);

 private:
  exec::ExecutionContext& sim_;
  NodeConfig config_;
  std::vector<std::unique_ptr<ctrl::Controller>> controllers_;
  std::vector<std::unique_ptr<blockdev::SimBlockDevice>> devices_;
};

}  // namespace sst::node
