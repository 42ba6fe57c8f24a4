// ExtentSlab: size-class rounding, refcount lifecycle (drop-to-zero
// recycling), allocation-free steady state under churn, pointer stability
// while references are held, 4096-aligned extent memory, and the
// hand-over of a destroyed slab's memory to the next slab.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/extent_slab.hpp"

namespace sst {
namespace {

TEST(ExtentSlab, RoundsUpToPowerOfTwoClasses) {
  ExtentSlab slab;
  EXPECT_EQ(slab.allocate(1).capacity(), ExtentSlab::kMinExtent);
  EXPECT_EQ(slab.allocate(4 * KiB).capacity(), 4 * KiB);
  EXPECT_EQ(slab.allocate(4 * KiB + 1).capacity(), 8 * KiB);
  EXPECT_EQ(slab.allocate(512 * KiB).capacity(), 512 * KiB);
  EXPECT_EQ(slab.allocate(700 * KiB).capacity(), 1 * MiB);
}

TEST(ExtentSlab, RefcountSharesAndReleases) {
  ExtentSlab slab;
  ExtentRef a = slab.allocate(8 * KiB);
  EXPECT_EQ(a.use_count(), 1u);
  ExtentRef b = a;  // copy shares
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(a.data(), b.data());
  ExtentRef c = std::move(b);  // move does not bump
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  c.reset();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(slab.live_extents(), 1u);
  a.reset();
  EXPECT_EQ(slab.live_extents(), 0u);
  EXPECT_EQ(slab.live_bytes(), 0u);
}

TEST(ExtentSlab, DropToZeroRecyclesTheExtent) {
  ExtentSlab slab;
  ExtentRef a = slab.allocate(64 * KiB);
  std::byte* const mem = a.data();
  a.reset();
  // Same class: the recycled extent (same memory) comes back, no new alloc.
  ExtentRef b = slab.allocate(64 * KiB);
  EXPECT_EQ(b.data(), mem);
  EXPECT_EQ(slab.stats().fresh_allocations, 1u);
  EXPECT_EQ(slab.stats().recycles, 1u);
}

TEST(ExtentSlab, HeldReferenceBlocksRecycling) {
  ExtentSlab slab;
  ExtentRef a = slab.allocate(16 * KiB);
  ExtentRef held = a;
  a.reset();
  // One reference survives: a new allocation must not reuse the extent.
  ExtentRef b = slab.allocate(16 * KiB);
  EXPECT_NE(b.data(), held.data());
  EXPECT_EQ(slab.stats().fresh_allocations, 2u);
  EXPECT_EQ(slab.live_extents(), 2u);
}

TEST(ExtentSlab, ChurnIsAllocationFreeAtSteadyState) {
  ExtentSlab slab;
  ExtentRef warm = slab.allocate(128 * KiB);
  warm.reset();
  const std::uint64_t fresh = slab.stats().fresh_allocations;
  for (int i = 0; i < 1000; ++i) {
    ExtentRef e = slab.allocate(128 * KiB);
    ASSERT_NE(e.data(), nullptr);
  }
  EXPECT_EQ(slab.stats().fresh_allocations, fresh);  // all served by recycling
  EXPECT_EQ(slab.stats().recycles, 1000u);
  EXPECT_EQ(slab.live_extents(), 0u);
}

TEST(ExtentSlab, PointersStayStableAcrossGrowth) {
  ExtentSlab slab;
  std::vector<ExtentRef> held;
  std::vector<std::byte*> ptrs;
  for (int i = 0; i < 300; ++i) {
    held.push_back(slab.allocate(4 * KiB));
    held.back().data()[0] = static_cast<std::byte>(i);
    ptrs.push_back(held.back().data());
  }
  // The control-block vector reallocated several times; every data pointer
  // and every written byte must have survived.
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(held[static_cast<std::size_t>(i)].data(), ptrs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][0], static_cast<std::byte>(i));
  }
  EXPECT_EQ(slab.live_bytes(), 300u * 4 * KiB);
}

TEST(ExtentSlab, AccountingTracksPeakReserved) {
  ExtentSlab slab;
  ExtentRef a = slab.allocate(4 * KiB);
  ExtentRef b = slab.allocate(8 * KiB);
  EXPECT_EQ(slab.stats().reserved_bytes, 12 * KiB);
  EXPECT_EQ(slab.stats().peak_reserved, 12 * KiB);
  a.reset();
  b.reset();
  // Reserved memory is recycled, never returned to the heap.
  EXPECT_EQ(slab.stats().reserved_bytes, 12 * KiB);
  EXPECT_EQ(slab.live_bytes(), 0u);
}

TEST(ExtentSlab, ExtentMemoryIsPageAligned) {
  // O_DIRECT takes only 4096-aligned buffers: a staged read into a
  // misaligned extent silently falls back to buffered I/O.
  ExtentSlab slab;
  std::vector<ExtentRef> held;
  for (const Bytes size : {Bytes{1}, 4 * KiB, 8 * KiB, 64 * KiB, 512 * KiB, 1 * MiB, 4 * MiB}) {
    for (int i = 0; i < 4; ++i) {
      held.push_back(slab.allocate(size));
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(held.back().data()) % 4096, 0u)
          << size << " bytes, extent " << i;
    }
  }
}

TEST(ExtentSlab, DestroyedSlabMemoryPassesToTheNextSlab) {
  // A size class no other test in this binary uses, so the spare list's
  // newest entry of the class is the one this test parks.
  constexpr Bytes kSize = 32 * MiB;
  std::byte* parked = nullptr;
  {
    ExtentSlab first;
    ExtentRef e = first.allocate(kSize);
    parked = e.data();
    e.data()[0] = std::byte{0x5a};
  }
  ExtentSlab second;
  ExtentRef e = second.allocate(kSize);
  EXPECT_EQ(e.data(), parked);
  // Spare memory is handed over as is, not zeroed.
  EXPECT_EQ(e.data()[0], std::byte{0x5a});
  EXPECT_EQ(second.stats().fresh_allocations, 1u);
  EXPECT_EQ(second.stats().recycles, 0u);
}

}  // namespace
}  // namespace sst
