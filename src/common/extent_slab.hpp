// Refcounted extent allocator for zero-copy staging. An extent is a
// pointer-stable block of bytes drawn from power-of-two size classes; a
// free list per class recycles returned extents, so steady-state staging
// churn never touches the heap. ExtentRef is the shared handle: copies
// bump a refcount, and the memory goes back to its class free list only
// when the last reference drops — which is what lets the staging area hand
// prefetched data to clients by reference (the client's slice keeps the
// extent alive after the staging buffer itself is reaped).
//
// A destroyed slab's backing memory passes to a process-wide spare list per
// size class, which the next slab draws from before allocating, so a
// process that builds run after run faults its staging pages in once.
// Extent memory is 4096-aligned, so staged reads into it can take O_DIRECT,
// and never zeroed: a new extent holds whatever its last user (or the heap)
// left there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/slab.hpp"
#include "common/types.hpp"

namespace sst {

class ExtentSlab;

struct ExtentSlabStats {
  std::uint64_t fresh_allocations = 0;  ///< extents added to this slab
  std::uint64_t recycles = 0;           ///< extents served from a free list
  Bytes reserved_bytes = 0;             ///< memory held (live + free lists)
  Bytes peak_reserved = 0;
};

/// Shared handle to a slab extent. Copyable (shares ownership), movable,
/// empty-constructible (== no extent). Not thread-safe: the simulator is
/// single-threaded per run, so a plain counter suffices.
class ExtentRef {
 public:
  ExtentRef() = default;
  ExtentRef(const ExtentRef& other) noexcept;
  ExtentRef(ExtentRef&& other) noexcept
      : slab_(other.slab_), index_(other.index_) {
    other.slab_ = nullptr;
  }
  ExtentRef& operator=(const ExtentRef& other) noexcept;
  ExtentRef& operator=(ExtentRef&& other) noexcept {
    if (this != &other) {
      reset();
      slab_ = other.slab_;
      index_ = other.index_;
      other.slab_ = nullptr;
    }
    return *this;
  }
  ~ExtentRef() { reset(); }

  /// Drop this reference (recycling the extent if it was the last one).
  void reset();

  [[nodiscard]] explicit operator bool() const { return slab_ != nullptr; }
  [[nodiscard]] std::byte* data() const;
  [[nodiscard]] Bytes capacity() const;
  /// Number of live references to this extent (0 for an empty ref).
  [[nodiscard]] std::uint32_t use_count() const;

 private:
  friend class ExtentSlab;
  ExtentRef(ExtentSlab* slab, std::uint32_t index) : slab_(slab), index_(index) {}

  ExtentSlab* slab_ = nullptr;
  std::uint32_t index_ = 0;
};

/// The allocator. Extent control blocks live in a flat vector (indexed, so
/// ExtentRef survives vector growth); backing memory is recycled through
/// per-class free lists while the slab lives and passes to the spare list
/// when it is destroyed. No ExtentRef may outlive its slab.
class ExtentSlab {
 public:
  /// Smallest size class; requests round up to the next power of two.
  static constexpr Bytes kMinExtent = 4 * KiB;
  /// Alignment of every extent's memory: what O_DIRECT asks of a buffer.
  static constexpr std::size_t kAlignment = 4096;

  struct AlignedDelete {
    void operator()(std::byte* mem) const {
      ::operator delete[](mem, std::align_val_t{kAlignment});
    }
  };
  /// One extent's backing memory.
  using Memory = std::unique_ptr<std::byte[], AlignedDelete>;

  ExtentSlab() = default;
  ExtentSlab(const ExtentSlab&) = delete;
  ExtentSlab& operator=(const ExtentSlab&) = delete;
  ~ExtentSlab();

  /// Allocate an extent of at least `size` bytes (refcount 1).
  [[nodiscard]] ExtentRef allocate(Bytes size);

  [[nodiscard]] const ExtentSlabStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t live_extents() const { return live_; }
  [[nodiscard]] Bytes live_bytes() const { return live_bytes_; }

  /// Every backing allocation the slab owns (live or parked on a free
  /// list), as (base, capacity) pairs. The slab keeps its backing memory
  /// until it is destroyed, so the pointers stay valid for its lifetime —
  /// which is what lets a real-I/O backend register them once as fixed DMA
  /// buffers.
  [[nodiscard]] std::vector<std::pair<std::byte*, Bytes>> regions() const {
    std::vector<std::pair<std::byte*, Bytes>> out;
    out.reserve(extents_.size());
    for (const auto& extent : extents_) {
      out.emplace_back(extent.mem.get(), extent.capacity);
    }
    return out;
  }

 private:
  friend class ExtentRef;

  struct Extent {
    Memory mem;
    Bytes capacity = 0;
    std::uint32_t refs = 0;
    std::uint32_t size_class = 0;
  };

  void retain(std::uint32_t index) { ++extents_[index].refs; }
  void release(std::uint32_t index);
  [[nodiscard]] static std::uint32_t class_of(Bytes size);

  std::vector<Extent> extents_;
  /// Free extents by size class (index = log2 of class capacity).
  std::vector<std::vector<std::uint32_t>> free_lists_;
  std::size_t live_ = 0;
  Bytes live_bytes_ = 0;
  ExtentSlabStats stats_;
};

inline ExtentRef::ExtentRef(const ExtentRef& other) noexcept
    : slab_(other.slab_), index_(other.index_) {
  if (slab_ != nullptr) slab_->retain(index_);
}

inline ExtentRef& ExtentRef::operator=(const ExtentRef& other) noexcept {
  if (this != &other) {
    if (other.slab_ != nullptr) other.slab_->retain(other.index_);
    reset();
    slab_ = other.slab_;
    index_ = other.index_;
  }
  return *this;
}

inline void ExtentRef::reset() {
  if (slab_ != nullptr) {
    slab_->release(index_);
    slab_ = nullptr;
  }
}

inline std::byte* ExtentRef::data() const {
  return slab_ != nullptr ? slab_->extents_[index_].mem.get() : nullptr;
}

inline Bytes ExtentRef::capacity() const {
  return slab_ != nullptr ? slab_->extents_[index_].capacity : 0;
}

inline std::uint32_t ExtentRef::use_count() const {
  return slab_ != nullptr ? slab_->extents_[index_].refs : 0;
}

}  // namespace sst
