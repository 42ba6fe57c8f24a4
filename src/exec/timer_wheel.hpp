// The task store every execution context schedules into.
//
// sim::Simulator and exec::RealContext each own one TimerWheel, so a
// simulated and a real run fire the same callback graph under the same
// ordering rule: tasks fire by due time, equal due times fire in
// scheduling order (a monotone sequence number breaks ties), and a task
// scheduled while a batch fires joins a later batch, never the current one.
//
// Each scheduled task occupies a reusable slab slot holding its callback
// inline (no heap allocation for closures up to TaskFn::kInlineBytes).
// Pending tasks are indexed by a hierarchical timer wheel — kLevels levels
// of kSlots buckets, one 64-bit occupancy bitmap per level — whose buckets
// are intrusive doubly-linked lists threaded through the slab slots, so
// insert, cancel (O(1) unlink) and dispatch perform no per-task heap
// allocation and no comparison-sort maintenance. Tasks beyond the wheel
// horizon (2^48 ns ≈ 3 days) overflow into a small binary min-heap. The
// tasks due at one time are collected into one batch, ordered by sequence
// number, and fired back to back. Handles address tasks by (slot,
// generation), so a recycled slot invalidates stale handles without shared
// ownership.
//
// The wheel keeps no clock of its own: its cursor is the due time of the
// last collected batch, and nothing may be inserted before it. The owning
// context decides when a batch is due — the simulator jumps its clock to
// the cursor, RealContext collects whatever the wall clock has reached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "exec/task_fn.hpp"

namespace sst::exec {

class TimerWheel {
 public:
  /// A task's slab address; the owning context wraps it in a TaskHandle.
  struct Id {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Insert `fn` due at `when`, which must not precede cursor(). Takes
  /// `fn` by rvalue reference so it is relocated once, into its slot.
  Id insert(SimTime when, TaskFn&& fn);

  /// True while (slot, generation) names a task that has neither fired nor
  /// been cancelled.
  [[nodiscard]] bool pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           slots_[slot].alive;
  }

  /// Cancel a pending task; stale or repeated cancels are no-ops. A
  /// wheel-resident task unlinks in O(1); one parked in the overflow heap
  /// or the current batch releases its callback at once and leaves a stale
  /// record that is skipped when reached.
  void cancel(std::uint32_t slot, std::uint32_t generation);

  /// Exact due time of the earliest pending task, or kSimTimeMax when none
  /// is pending. Walks only the lowest occupied bucket. The previous batch
  /// must have been fired.
  [[nodiscard]] SimTime next_time();

  /// Gather every task due at next_time() into the batch, sorted by
  /// scheduling order, and move the cursor there — one pass over the one
  /// bucket that holds the minimum (due tasks go straight into the batch,
  /// the rest cascade toward level 0). False when nothing is pending at or
  /// before `deadline`; the structure is left untouched in that case. The
  /// previous batch must have been fired.
  bool collect_batch(SimTime deadline);

  /// Fire batch members in order; stops after `limit` live tasks. Returns
  /// the number fired. Each slot is recycled before its callback runs, so
  /// the callback may insert again.
  std::uint64_t fire_batch(std::uint64_t limit);

  /// The simulator's loop: fire what is left of the current batch, then
  /// collect and fire batches due at or before `deadline`, setting `clock`
  /// to each batch's time before it fires. Stops after `limit` tasks;
  /// returns the number fired.
  std::uint64_t advance(SimTime deadline, SimTime& clock, std::uint64_t limit);

  /// The due time of the last collected batch; inserts may not precede it.
  [[nodiscard]] SimTime cursor() const { return cur_tick_; }
  /// Inserted tasks that have neither fired nor been cancelled.
  [[nodiscard]] std::size_t size() const { return live_count_; }
  [[nodiscard]] std::uint64_t fired() const { return executed_; }
  /// Tasks relocated from a higher level toward level 0 as the cursor
  /// advanced (each task cascades at most kLevels-1 times in its life).
  [[nodiscard]] std::uint64_t cascades() const { return cascades_; }
  /// Tasks inserted beyond the wheel horizon into the overflow heap.
  [[nodiscard]] std::uint64_t overflowed() const { return overflowed_; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  /// Wheel geometry: kLevels levels of 64 buckets; level L buckets are
  /// 64^L ns wide, so the wheel spans 2^(6*kLevels) ns before the overflow
  /// heap takes over.
  static constexpr std::uint32_t kSlotBits = 6;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;
  static constexpr std::uint32_t kLevels = 8;
  static constexpr std::uint64_t kBucketMask = kSlots - 1;

  /// Where a slot currently lives; drives the cancel/unlink path.
  enum class Where : std::uint8_t { kFree, kWheel, kHeap, kBatch };

  /// One slab slot: the callback, the generation outstanding handles must
  /// match, the task's key, and the intrusive wheel-bucket linkage. Free
  /// slots chain through `next`.
  struct Slot {
    TaskFn fn;
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNoSlot;
    std::uint32_t prev = kNoSlot;
    std::uint32_t generation = 0;
    std::uint8_t level = 0;
    std::uint8_t bucket = 0;
    Where where = Where::kFree;
    bool alive = false;
  };

  /// Overflow-heap records are plain data; the callback stays in the slab.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// A batch member: one task of the tick being fired, ordered by seq.
  struct BatchEntry {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// Link `index` into the wheel bucket or overflow heap for `when`.
  void enqueue_slot(std::uint32_t index, SimTime when);
  /// Remove a wheel-resident slot from its bucket list.
  void unlink(std::uint32_t index);

  /// The first wheel level with an occupied bucket; kLevels when none.
  [[nodiscard]] std::uint32_t lowest_level() const;
  /// The lowest occupied bucket of `level`.
  [[nodiscard]] std::uint32_t lowest_bucket(std::uint32_t level) const;
  /// Earliest due time in the lowest occupied bucket (`level`, `bucket`)
  /// and the overflow heap's top; kSimTimeMax when both are empty.
  [[nodiscard]] SimTime earliest(std::uint32_t level, std::uint32_t bucket) const;
  /// Drop cancelled records off the top of the overflow heap.
  void purge_dead_heap_tops();

  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cascades_ = 0;
  std::uint64_t overflowed_ = 0;
  std::size_t live_count_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;

  /// Bucket list heads and per-level occupancy bitmaps (bit b = bucket b
  /// non-empty). heads_[L][b] indexes the first slot of the bucket's list.
  std::uint64_t occupancy_[kLevels] = {};
  std::uint32_t heads_[kLevels][kSlots];
  /// Wheel cursor: the time the bucket layout is relative to.
  SimTime cur_tick_ = 0;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> overflow_;

  /// The current same-time batch (sorted by seq) and the next member to
  /// fire. Reused across ticks; no steady-state allocation.
  std::vector<BatchEntry> batch_;
  std::size_t batch_pos_ = 0;
};

}  // namespace sst::exec
