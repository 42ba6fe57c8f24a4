#include "exec/timer_wheel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sst::exec {

namespace {

/// Wheel level a task at `when` belongs to, relative to cursor `cur`: the
/// level of the highest bit in which the two differ. Equal times are level
/// 0; level >= kLevels means beyond the wheel horizon.
inline std::uint32_t level_of(SimTime when, SimTime cur, std::uint32_t slot_bits) {
  const std::uint64_t diff = when ^ cur;
  if (diff == 0) return 0;
  return (63u - static_cast<std::uint32_t>(std::countl_zero(diff))) / slot_bits;
}

}  // namespace

TimerWheel::TimerWheel() {
  for (auto& level : heads_) {
    std::fill(std::begin(level), std::end(level), kNoSlot);
  }
  // One-time capacity so a rare wide tick (many same-time tasks) never
  // allocates on the dispatch path.
  batch_.reserve(kSlots * 4);
}

std::uint32_t TimerWheel::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void TimerWheel::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.reset();
  slot.alive = false;
  slot.where = Where::kFree;
  ++slot.generation;  // invalidates every outstanding handle and queue record
  slot.next = free_head_;
  free_head_ = index;
}

void TimerWheel::enqueue_slot(std::uint32_t index, SimTime when) {
  Slot& slot = slots_[index];
  const std::uint32_t level = level_of(when, cur_tick_, kSlotBits);
  if (level >= kLevels) {
    slot.where = Where::kHeap;
    overflow_.push(HeapEntry{when, slot.seq, index, slot.generation});
    ++overflowed_;
    return;
  }
  const auto bucket =
      static_cast<std::uint32_t>((when >> (level * kSlotBits)) & kBucketMask);
  slot.level = static_cast<std::uint8_t>(level);
  slot.bucket = static_cast<std::uint8_t>(bucket);
  slot.where = Where::kWheel;
  slot.prev = kNoSlot;
  slot.next = heads_[level][bucket];
  if (slot.next != kNoSlot) slots_[slot.next].prev = index;
  heads_[level][bucket] = index;
  occupancy_[level] |= std::uint64_t{1} << bucket;
}

void TimerWheel::unlink(std::uint32_t index) {
  Slot& slot = slots_[index];
  assert(slot.where == Where::kWheel);
  if (slot.prev != kNoSlot) {
    slots_[slot.prev].next = slot.next;
  } else {
    heads_[slot.level][slot.bucket] = slot.next;
  }
  if (slot.next != kNoSlot) slots_[slot.next].prev = slot.prev;
  if (heads_[slot.level][slot.bucket] == kNoSlot) {
    occupancy_[slot.level] &= ~(std::uint64_t{1} << slot.bucket);
  }
}

TimerWheel::Id TimerWheel::insert(SimTime when, TaskFn&& fn) {
  assert(when >= cur_tick_ && "cannot insert before the cursor");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.when = when;
  slot.seq = next_seq_++;
  slot.alive = true;
  ++live_count_;
  const std::uint32_t generation = slot.generation;
  enqueue_slot(index, when);
  return {index, generation};
}

void TimerWheel::cancel(std::uint32_t index, std::uint32_t generation) {
  if (!pending(index, generation)) return;
  if (slots_[index].where == Where::kWheel) unlink(index);
  // Heap/batch residents leave a stale record behind; the generation bump
  // from release_slot makes it skippable when reached.
  --live_count_;
  release_slot(index);
}

std::uint32_t TimerWheel::lowest_level() const {
  std::uint32_t level = 0;
  while (level < kLevels && occupancy_[level] == 0) ++level;
  return level;
}

std::uint32_t TimerWheel::lowest_bucket(std::uint32_t level) const {
  return level < kLevels ? static_cast<std::uint32_t>(std::countr_zero(occupancy_[level])) : 0;
}

void TimerWheel::purge_dead_heap_tops() {
  while (!overflow_.empty() &&
         slots_[overflow_.top().slot].generation != overflow_.top().generation) {
    overflow_.pop();
  }
}

SimTime TimerWheel::earliest(std::uint32_t level, std::uint32_t bucket) const {
  // The earliest wheel task lives in the lowest occupied bucket of the
  // first non-empty level: all level-L tasks share the cursor's digits
  // above L, so buckets order them, and level-L tasks all lie beyond the
  // level-(L-1) window.
  SimTime when = kSimTimeMax;
  if (level < kLevels) {
    if (level == 0) {
      // A level-0 bucket maps to exactly one time.
      when = (cur_tick_ & ~kBucketMask) | bucket;
    } else {
      // A higher bucket spans many times and its list is unordered.
      for (std::uint32_t node = heads_[level][bucket]; node != kNoSlot;
           node = slots_[node].next) {
        when = std::min(when, slots_[node].when);
      }
    }
  }
  if (!overflow_.empty()) when = std::min(when, overflow_.top().when);
  return when;
}

SimTime TimerWheel::next_time() {
  assert(batch_pos_ >= batch_.size() && "previous batch not fully fired");
  if (live_count_ == 0) return kSimTimeMax;
  purge_dead_heap_tops();
  const std::uint32_t level = lowest_level();
  return earliest(level, lowest_bucket(level));
}

bool TimerWheel::collect_batch(SimTime deadline) {
  assert(batch_pos_ >= batch_.size() && "previous batch not fully fired");
  if (live_count_ == 0) return false;
  purge_dead_heap_tops();
  const std::uint32_t level = lowest_level();
  const std::uint32_t bucket = lowest_bucket(level);
  const SimTime when = earliest(level, bucket);
  if (when > deadline) return false;

  assert(when >= cur_tick_);
  cur_tick_ = when;
  batch_.clear();
  batch_pos_ = 0;

  // A level > 0 minimum bucket is detached whole and redistributed against
  // the new cursor: due tasks go straight into the batch, the rest
  // re-enqueue at a lower level. (Also when the minimum came from the
  // overflow heap: the cursor moved, so the bucket's layout did too.)
  if (level > 0 && level < kLevels) {
    std::uint32_t node = heads_[level][bucket];
    heads_[level][bucket] = kNoSlot;
    occupancy_[level] &= ~(std::uint64_t{1} << bucket);
    while (node != kNoSlot) {
      Slot& slot = slots_[node];
      const std::uint32_t next = slot.next;
      if (slot.when == when) {
        slot.where = Where::kBatch;
        batch_.push_back(BatchEntry{slot.seq, node, slot.generation});
      } else {
        enqueue_slot(node, slot.when);
        ++cascades_;
      }
      node = next;
    }
  }
  // Drain the due level-0 bucket (the level-0 minimum; also tasks inserted
  // at the current time while the previous batch fired).
  const auto bucket0 = static_cast<std::uint32_t>(when & kBucketMask);
  if ((occupancy_[0] & (std::uint64_t{1} << bucket0)) != 0) {
    std::uint32_t node = heads_[0][bucket0];
    heads_[0][bucket0] = kNoSlot;
    occupancy_[0] &= ~(std::uint64_t{1} << bucket0);
    while (node != kNoSlot) {
      Slot& slot = slots_[node];
      assert(slot.when == when && slot.alive && slot.where == Where::kWheel);
      slot.where = Where::kBatch;
      batch_.push_back(BatchEntry{slot.seq, node, slot.generation});
      node = slot.next;
    }
  }
  while (!overflow_.empty() && overflow_.top().when == when) {
    const HeapEntry top = overflow_.top();
    overflow_.pop();
    Slot& slot = slots_[top.slot];
    if (slot.generation != top.generation) continue;  // cancelled: stale record
    assert(slot.when == when && slot.alive && slot.where == Where::kHeap);
    slot.where = Where::kBatch;
    batch_.push_back(BatchEntry{top.seq, top.slot, top.generation});
  }
  assert(!batch_.empty());
  // Same-time tasks fire in scheduling order; bucket lists and the heap
  // run are unordered, so one small sort per tick restores it.
  if (batch_.size() > 1) {
    std::sort(batch_.begin(), batch_.end(),
              [](const BatchEntry& a, const BatchEntry& b) { return a.seq < b.seq; });
  }
  return true;
}

std::uint64_t TimerWheel::fire_batch(std::uint64_t limit) {
  std::uint64_t fired = 0;
  while (fired < limit && batch_pos_ < batch_.size()) {
    const BatchEntry entry = batch_[batch_pos_++];
    Slot& slot = slots_[entry.slot];
    if (slot.generation != entry.generation) continue;  // cancelled mid-batch
    assert(slot.alive && slot.where == Where::kBatch);
    TaskFn fn = std::move(slot.fn);
    --live_count_;
    release_slot(entry.slot);  // recycle before invoking: fn may insert again
    ++executed_;
    fn();  // may grow slots_; `slot` is not touched afterwards
    ++fired;
  }
  return fired;
}

std::uint64_t TimerWheel::advance(SimTime deadline, SimTime& clock, std::uint64_t limit) {
  std::uint64_t fired = fire_batch(limit);
  while (fired < limit && collect_batch(deadline)) {
    clock = cur_tick_;
    fired += fire_batch(limit - fired);
  }
  return fired;
}

}  // namespace sst::exec
