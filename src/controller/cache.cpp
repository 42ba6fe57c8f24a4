#include "controller/cache.hpp"

#include <algorithm>
#include <iterator>

namespace sst::ctrl {

ExtentCache::ExtentCache(Bytes capacity) : capacity_(capacity) {}

bool ExtentCache::lookup(std::uint32_t disk, Lba lba, Lba sectors, SimTime now) {
  const Slot s = containing(disk, lba, sectors);
  if (s == kNone) {
    ++stats_.misses;
    return false;
  }
  Extent& ext = slots_[s];
  ext.last_access = now;
  ext.consumed = std::max(ext.consumed, lba + sectors - ext.start);
  ext.touched = ++touches_;
  lru_sift(ext.lru_pos);
  ++stats_.hits;
  return true;
}

ExtentCache::Slot ExtentCache::containing(std::uint32_t disk, Lba lba, Lba sectors) const {
  const auto holds = [&](Slot s) {
    return s != kNone && slots_[s].filled &&
           lba + sectors <= slots_[s].start + slots_[s].length;
  };
  // Extents of one disk are disjoint, so only the last one starting at or
  // before lba can hold a non-empty range.
  const Slot s = floor(disk, lba);
  Slot hit = holds(s) ? s : kNone;
  // An empty range where one extent ends and the next starts lies in both;
  // the more recently touched one is the hit.
  if (sectors == 0 && s != kNone && slots_[s].start == lba && lba > 0) {
    const Slot prev = floor(disk, lba - 1);
    if (holds(prev) && (hit == kNone || slots_[prev].touched > slots_[hit].touched)) {
      hit = prev;
    }
  }
  return hit;
}

void ExtentCache::account_waste(const Extent& extent) {
  if (extent.length > extent.consumed) {
    stats_.wasted_prefetch_bytes += sectors_to_bytes(extent.length - extent.consumed);
  }
  if (!extent.filled) ++stats_.inflight_evictions;
}

ExtentCache::ExtentId ExtentCache::reserve(std::uint32_t disk, Lba lba, Lba sectors,
                                           Lba request_sectors, SimTime now) {
  if (!enabled() || sectors == 0) return 0;
  const Lba keep = std::min(sectors, bytes_to_sectors(capacity_));
  // Replace any extent this one supersedes (same stream moving forward).
  drop_overlapping(disk, lba, lba + keep, /*wasted=*/true);
  while (used_ + sectors_to_bytes(keep) > capacity_ && !lru_.empty()) {
    ++stats_.evictions;
    release(lru_.front(), /*wasted=*/true);
  }

  Slot s = kNone;
  if (free_.empty()) {
    s = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
  } else {
    s = free_.back();
    free_.pop_back();
  }
  Extent& ext = slots_[s];
  ext.id = (ExtentId{ext.generation} << 32) | (ExtentId{s} + 1);
  ext.disk = disk;
  ext.start = lba;
  ext.length = keep;
  ext.consumed = std::min(request_sectors, keep);
  ext.filled = false;
  ext.last_access = now;
  ext.touched = ++touches_;
  if (spare_.empty()) {
    ext.where = index_.emplace(std::pair{disk, lba}, s);
  } else {
    Index::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = {disk, lba};
    node.mapped() = s;
    ext.where = index_.insert(std::move(node));
  }
  lru_push(s);
  used_ += sectors_to_bytes(keep);
  if (sectors > request_sectors) {
    stats_.prefetched_bytes += sectors_to_bytes(sectors - request_sectors);
  }
  return ext.id;
}

bool ExtentCache::mark_filled(ExtentId id, SimTime now) {
  const Slot s = slot_of(id);
  if (s == kNone) return false;  // evicted while in flight
  slots_[s].filled = true;
  slots_[s].last_access = now;
  lru_sift(slots_[s].lru_pos);
  return true;
}

void ExtentCache::install(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors,
                          SimTime now) {
  const ExtentId id = reserve(disk, lba, sectors, request_sectors, now);
  (void)mark_filled(id, now);
}

void ExtentCache::invalidate(std::uint32_t disk, Lba lba, Lba sectors) {
  drop_overlapping(disk, lba, lba + sectors, /*wasted=*/false);
}

ExtentCache::Slot ExtentCache::slot_of(ExtentId id) const {
  // The low half is slot + 1, so id 0 maps to kNone.
  const Slot s = static_cast<Slot>(id) - Slot{1};
  return s < slots_.size() && slots_[s].id == id ? s : kNone;
}

void ExtentCache::drop_overlapping(std::uint32_t disk, Lba lo, Lba hi, bool wasted) {
  const auto overlaps = [&](Slot s) {
    return lo < slots_[s].start + slots_[s].length && slots_[s].start < hi;
  };
  // Of the extents starting at or before lo only the last can reach into
  // [lo, hi); the rest of the overlap is the run starting inside it.
  if (const Slot first = floor(disk, lo); first != kNone && overlaps(first)) {
    release(first, wasted);
  }
  for (auto it = index_.lower_bound({disk, lo});
       it != index_.end() && it->first.first == disk && overlaps(it->second);) {
    release((it++)->second, wasted);
  }
}

void ExtentCache::release(Slot s, bool wasted) {
  Extent& ext = slots_[s];
  if (wasted) account_waste(ext);
  used_ -= sectors_to_bytes(ext.length);
  spare_.push_back(index_.extract(ext.where));
  lru_erase(s);
  ext.id = 0;
  // A slot whose generations are used up is retired, so no id recurs.
  if (++ext.generation != 0) free_.push_back(s);
}

ExtentCache::Slot ExtentCache::floor(std::uint32_t disk, Lba lba) const {
  const auto it = index_.upper_bound({disk, lba});
  if (it == index_.begin()) return kNone;
  const auto& [key, slot] = *std::prev(it);
  return key.first == disk ? slot : kNone;
}

bool ExtentCache::evicts_before(Slot a, Slot b) const {
  const Extent& x = slots_[a];
  const Extent& y = slots_[b];
  return x.last_access != y.last_access ? x.last_access < y.last_access : x.touched > y.touched;
}

void ExtentCache::lru_push(Slot s) {
  slots_[s].lru_pos = static_cast<std::uint32_t>(lru_.size());
  lru_.push_back(s);
  lru_sift(slots_[s].lru_pos);
}

void ExtentCache::lru_erase(Slot s) {
  const std::uint32_t pos = slots_[s].lru_pos;
  const Slot last = lru_.back();
  lru_.pop_back();
  if (pos < lru_.size()) {
    lru_[pos] = last;
    slots_[last].lru_pos = pos;
    lru_sift(pos);
  }
}

void ExtentCache::lru_sift(std::uint32_t pos) {
  const Slot s = lru_[pos];
  const auto place = [&](Slot slot, std::uint32_t at) {
    lru_[at] = slot;
    slots_[slot].lru_pos = at;
  };
  while (pos > 0 && evicts_before(s, lru_[(pos - 1) / 2])) {
    place(lru_[(pos - 1) / 2], pos);
    pos = (pos - 1) / 2;
  }
  const auto size = static_cast<std::uint32_t>(lru_.size());
  for (std::uint32_t child = 2 * pos + 1; child < size; child = 2 * pos + 1) {
    if (child + 1 < size && evicts_before(lru_[child + 1], lru_[child])) ++child;
    if (!evicts_before(lru_[child], s)) break;
    place(lru_[child], pos);
    pos = child;
  }
  place(s, pos);
}

}  // namespace sst::ctrl
