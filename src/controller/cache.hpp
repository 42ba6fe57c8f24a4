// Controller read cache: a byte-budgeted collection of variable-length
// extents (one per prefetch operation), evicted LRU. Unlike the disk's
// fixed segment array, controller firmware manages a heap of buffers, so
// extent sizes follow the configured prefetch.
//
// Buffer space is RESERVED WHEN THE PREFETCH IS ISSUED, not when the data
// arrives — a controller cannot read 4 MB off a disk without 4 MB to put
// it in. Under `streams x prefetch > cache` pressure, new reservations
// evict extents (filled or still in flight) before their data is consumed:
// that is precisely the Fig. 8 collapse, and the waste counters quantify
// it.
//
// A large node keeps hundreds of extents per controller, so every
// operation is O(log n) and allocation-free once warm (DESIGN §12.4):
//   * Extents live in reused slots; a reservation id names its slot and the
//     slot's generation, so an id resolves in O(1) and an id from an
//     evicted reservation never matches a later extent in the same slot.
//   * The extents of one disk never overlap: reserve() drops every extent
//     overlapping the new one before inserting it. An ordered map keyed by
//     (disk, start LBA) therefore finds the one extent that can contain a
//     range, and the extents a range overlaps, by binary search. Its nodes
//     are recycled through a spare list, so a warm cache never allocates.
//   * An indexed binary heap yields the LRU victim: the least last_access;
//     among equal last_access, the extent most recently reserved or hit.
//     mark_filled() updates last_access but does not count as a touch.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace sst::ctrl {

struct CtrlCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inflight_evictions = 0;  ///< reservations evicted unfilled
  Bytes prefetched_bytes = 0;
  Bytes wasted_prefetch_bytes = 0;
};

class ExtentCache {
 public:
  /// Token identifying a reservation; 0 is never issued, and no token is
  /// issued twice.
  using ExtentId = std::uint64_t;

  explicit ExtentCache(Bytes capacity);

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes used_bytes() const { return used_; }

  /// Full-containment lookup over FILLED extents; refreshes LRU and
  /// advances the consumed watermark on hit.
  [[nodiscard]] bool lookup(std::uint32_t disk, Lba lba, Lba sectors, SimTime now);

  /// Reserve buffer space for a read of [lba, lba+sectors) about to be
  /// issued to the disk; `request_sectors` is the demanded prefix. Evicts
  /// LRU extents (including unfilled reservations) until the new one fits;
  /// extents larger than the whole cache are truncated. Returns 0 when the
  /// cache is disabled.
  ExtentId reserve(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors,
                   SimTime now);

  /// The reserved read completed. Returns false when the reservation was
  /// evicted while in flight (the data has nowhere to live and is dropped).
  bool mark_filled(ExtentId id, SimTime now);

  /// reserve() + mark_filled() in one step — data already at hand.
  void install(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors, SimTime now);

  /// Drop cached data overlapping a written extent.
  void invalidate(std::uint32_t disk, Lba lba, Lba sectors);

  [[nodiscard]] std::size_t extent_count() const { return lru_.size(); }
  [[nodiscard]] const CtrlCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CtrlCacheStats{}; }

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNone = ~Slot{0};
  /// Extents of all disks by (disk, start LBA). Only zero-length extents
  /// (a cache smaller than one sector) can share a key.
  using Index = std::multimap<std::pair<std::uint32_t, Lba>, Slot>;

  struct Extent {
    ExtentId id = 0;               ///< 0 while the slot is free
    std::uint32_t generation = 0;  ///< bumped on every release of the slot
    std::uint32_t disk = 0;
    Lba start = 0;
    Lba length = 0;
    Lba consumed = 0;
    SimTime last_access = 0;
    std::uint64_t touched = 0;  ///< touches_ at the last reserve or hit
    Index::iterator where;      ///< this extent's index entry
    std::uint32_t lru_pos = 0;  ///< position in lru_
    bool filled = false;
  };

  [[nodiscard]] Slot slot_of(ExtentId id) const;
  /// The filled extent a lookup of [lba, lba+sectors) hits, or kNone.
  [[nodiscard]] Slot containing(std::uint32_t disk, Lba lba, Lba sectors) const;
  /// The last extent of `disk` starting at or before `lba`, or kNone.
  [[nodiscard]] Slot floor(std::uint32_t disk, Lba lba) const;
  void drop_overlapping(std::uint32_t disk, Lba lo, Lba hi, bool wasted);
  void account_waste(const Extent& extent);
  void release(Slot s, bool wasted);

  [[nodiscard]] bool evicts_before(Slot a, Slot b) const;
  void lru_push(Slot s);
  void lru_erase(Slot s);
  void lru_sift(std::uint32_t pos);

  std::vector<Extent> slots_;
  std::vector<Slot> free_;
  std::vector<Slot> lru_;  ///< binary heap, victim first
  Index index_;
  std::vector<Index::node_type> spare_;  ///< released index nodes, reused
  std::uint64_t touches_ = 0;
  Bytes capacity_ = 0;
  Bytes used_ = 0;
  CtrlCacheStats stats_;
};

}  // namespace sst::ctrl
