#include "common/extent_slab.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <mutex>

namespace sst {

namespace {

/// Backing memory of destroyed slabs, by size class. glibc may trim freed
/// extents back to the kernel, so without it each run's set-up would fault
/// its whole staging working set in again.
struct SpareMemory {
  std::mutex mutex;
  std::array<std::vector<ExtentSlab::Memory>, 64> by_class;
};

SpareMemory& spare_memory() {
  static SpareMemory spare;
  return spare;
}

}  // namespace

ExtentSlab::~ExtentSlab() {
  SpareMemory& spare = spare_memory();
  const std::lock_guard lock(spare.mutex);
  for (Extent& e : extents_) spare.by_class[e.size_class].push_back(std::move(e.mem));
}

std::uint32_t ExtentSlab::class_of(Bytes size) {
  const Bytes rounded = std::bit_ceil(std::max(size, kMinExtent));
  return static_cast<std::uint32_t>(std::countr_zero(rounded));
}

ExtentRef ExtentSlab::allocate(Bytes size) {
  assert(size > 0);
  const std::uint32_t cls = class_of(size);
  if (cls >= free_lists_.size()) free_lists_.resize(cls + 1);

  std::uint32_t index;
  auto& free_list = free_lists_[cls];
  if (!free_list.empty()) {
    index = free_list.back();
    free_list.pop_back();
    ++stats_.recycles;
  } else {
    const Bytes capacity = Bytes{1} << cls;
    index = static_cast<std::uint32_t>(extents_.size());
    Extent& e = extents_.emplace_back();
    {
      SpareMemory& spare = spare_memory();
      const std::lock_guard lock(spare.mutex);
      auto& parked = spare.by_class[cls];
      if (!parked.empty()) {
        e.mem = std::move(parked.back());
        parked.pop_back();
      }
    }
    if (e.mem == nullptr) {
      void* mem = ::operator new[](capacity, std::align_val_t{kAlignment});
      e.mem.reset(static_cast<std::byte*>(mem));
    }
    e.capacity = capacity;
    e.size_class = cls;
    ++stats_.fresh_allocations;
    stats_.reserved_bytes += capacity;
    stats_.peak_reserved = std::max(stats_.peak_reserved, stats_.reserved_bytes);
  }

  Extent& e = extents_[index];
  assert(e.refs == 0);
  e.refs = 1;
  ++live_;
  live_bytes_ += e.capacity;
  return ExtentRef(this, index);
}

void ExtentSlab::release(std::uint32_t index) {
  Extent& e = extents_[index];
  assert(e.refs > 0);
  if (--e.refs == 0) {
    assert(live_ > 0);
    --live_;
    live_bytes_ -= e.capacity;
    free_lists_[e.size_class].push_back(index);
  }
}

}  // namespace sst
