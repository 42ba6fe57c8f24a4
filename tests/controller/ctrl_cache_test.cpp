#include "controller/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <utility>
#include <vector>

#include "common/random.hpp"

namespace sst::ctrl {
namespace {

TEST(ExtentCache, DisabledAtZeroCapacity) {
  ExtentCache c(0);
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(c.lookup(0, 0, 8, 0));
}

TEST(ExtentCache, MissThenHit) {
  ExtentCache c(1 * MiB);
  EXPECT_FALSE(c.lookup(0, 100, 8, usec(1)));
  c.install(0, 100, 512, 8, usec(2));
  EXPECT_TRUE(c.lookup(0, 100, 8, usec(3)));
  EXPECT_TRUE(c.lookup(0, 356, 256, usec(4)));  // tail of the extent
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(ExtentCache, DiskIdDisambiguates) {
  ExtentCache c(1 * MiB);
  c.install(0, 100, 512, 8, usec(1));
  EXPECT_FALSE(c.lookup(1, 100, 8, usec(2)));
}

TEST(ExtentCache, UsedBytesTracked) {
  ExtentCache c(1 * MiB);
  c.install(0, 0, 512, 8, usec(1));  // 256 KB
  EXPECT_EQ(c.used_bytes(), 256 * KiB);
  c.install(0, 10000, 512, 8, usec(2));
  EXPECT_EQ(c.used_bytes(), 512 * KiB);
}

TEST(ExtentCache, LruEvictionWhenFull) {
  ExtentCache c(512 * KiB);  // room for two 256 KB extents
  c.install(0, 0, 512, 8, usec(1));
  c.install(0, 10000, 512, 8, usec(2));
  EXPECT_TRUE(c.lookup(0, 0, 8, usec(3)));  // refresh extent A
  c.install(0, 20000, 512, 8, usec(4));     // evicts extent B (LRU)
  EXPECT_TRUE(c.lookup(0, 0, 8, usec(5)));
  EXPECT_FALSE(c.lookup(0, 10000, 8, usec(6)));
  EXPECT_TRUE(c.lookup(0, 20000, 8, usec(7)));
}

TEST(ExtentCache, WasteAccountedOnEviction) {
  ExtentCache c(256 * KiB);
  c.install(0, 0, 512, 8, usec(1));       // 8 demanded, 504 speculative
  c.install(0, 10000, 512, 8, usec(2));   // evicts the first
  EXPECT_EQ(c.stats().wasted_prefetch_bytes, sectors_to_bytes(504));
}

TEST(ExtentCache, OversizedExtentTruncatedToCapacity) {
  ExtentCache c(256 * KiB);  // 512 sectors
  c.install(0, 0, 2048, 2048, usec(1));
  EXPECT_TRUE(c.lookup(0, 0, 512, usec(2)));
  EXPECT_FALSE(c.lookup(0, 512, 8, usec(3)));
  EXPECT_LE(c.used_bytes(), c.capacity());
}

TEST(ExtentCache, OverlappingInstallReplaces) {
  ExtentCache c(1 * MiB);
  c.install(0, 0, 512, 8, usec(1));
  c.install(0, 256, 512, 8, usec(2));  // overlaps the first extent
  EXPECT_TRUE(c.lookup(0, 256, 8, usec(3)));
  EXPECT_FALSE(c.lookup(0, 0, 8, usec(4)));
  EXPECT_EQ(c.extent_count(), 1u);
}

TEST(ExtentCache, InvalidateDropsOverlapOnly) {
  ExtentCache c(1 * MiB);
  c.install(0, 0, 512, 512, usec(1));
  c.install(0, 10000, 512, 512, usec(2));
  c.invalidate(0, 100, 8);
  EXPECT_FALSE(c.lookup(0, 0, 8, usec(3)));
  EXPECT_TRUE(c.lookup(0, 10000, 8, usec(4)));
}

TEST(ExtentCache, ConsumedTrackingPreventsPhantomWaste) {
  ExtentCache c(256 * KiB);
  c.install(0, 0, 512, 8, usec(1));
  // Consume the whole extent through hits.
  for (Lba off = 0; off + 64 <= 512; off += 64) {
    EXPECT_TRUE(c.lookup(0, off, 64, usec(2)));
  }
  c.install(0, 10000, 512, 8, usec(3));  // evicts fully consumed extent
  EXPECT_EQ(c.stats().wasted_prefetch_bytes, 0u);
}

TEST(ExtentCache, PrefetchedBytesCounted) {
  ExtentCache c(1 * MiB);
  c.install(0, 0, 512, 128, usec(1));
  EXPECT_EQ(c.stats().prefetched_bytes, sectors_to_bytes(384));
}

TEST(ExtentCache, ReserveIsNotVisibleUntilFilled) {
  ExtentCache c(1 * MiB);
  const auto id = c.reserve(0, 0, 512, 8, usec(1));
  ASSERT_NE(id, 0u);
  EXPECT_FALSE(c.lookup(0, 0, 8, usec(2)));  // in flight: no hit
  EXPECT_TRUE(c.mark_filled(id, usec(3)));
  EXPECT_TRUE(c.lookup(0, 0, 8, usec(4)));
}

TEST(ExtentCache, ReservationEvictedInFlight) {
  ExtentCache c(256 * KiB);  // room for exactly one 512-sector extent
  const auto first = c.reserve(0, 0, 512, 8, usec(1));
  const auto second = c.reserve(0, 100000, 512, 8, usec(2));  // evicts first
  ASSERT_NE(second, 0u);
  EXPECT_FALSE(c.mark_filled(first, usec(3)));  // nowhere to put the data
  EXPECT_TRUE(c.mark_filled(second, usec(4)));
  EXPECT_EQ(c.stats().inflight_evictions, 1u);
}

TEST(ExtentCache, ReserveAccountsCapacityImmediately) {
  ExtentCache c(1 * MiB);
  (void)c.reserve(0, 0, 512, 8, usec(1));
  EXPECT_EQ(c.used_bytes(), 256 * KiB);  // committed before the data lands
}

TEST(ExtentCache, ReserveDisabledCacheReturnsZero) {
  ExtentCache c(0);
  EXPECT_EQ(c.reserve(0, 0, 512, 8, usec(1)), 0u);
  EXPECT_FALSE(c.mark_filled(0, usec(2)));
}

TEST(ExtentCache, ThrashWastesInflightReservations) {
  // streams x prefetch > cache: every reservation evicts a predecessor
  // before its data is consumed (the Fig. 8 collapse mechanism).
  ExtentCache c(1 * MiB);
  for (int i = 0; i < 32; ++i) {
    const auto id =
        c.reserve(0, static_cast<Lba>(i) * 100000, 512, 8, usec(10 + i));
    (void)c.mark_filled(id, usec(10 + i));
  }
  EXPECT_GT(c.stats().evictions, 20u);
  EXPECT_GT(c.stats().wasted_prefetch_bytes, 20u * sectors_to_bytes(504));
}

TEST(ExtentCache, ResetStats) {
  ExtentCache c(1 * MiB);
  (void)c.lookup(0, 0, 8, 0);
  c.reset_stats();
  EXPECT_EQ(c.stats().misses, 0u);
}

TEST(ExtentCache, TiesEvictTheMostRecentlyTouched) {
  // Room for two 256 KB extents. All three reservations share a timestamp,
  // as every stream's first prefetch does at t=0: the victim among equal
  // last_access is the most recently reserved one still cached.
  ExtentCache c(512 * KiB);
  const auto first = c.reserve(0, 0, 512, 8, usec(1));
  const auto second = c.reserve(1, 0, 512, 8, usec(1));
  const auto third = c.reserve(2, 0, 512, 8, usec(1));
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_TRUE(c.mark_filled(first, usec(2)));
  EXPECT_FALSE(c.mark_filled(second, usec(2)));
  EXPECT_TRUE(c.mark_filled(third, usec(2)));
}

TEST(ExtentCache, StaleIdNeverMatchesAReusedSlot) {
  // Room for one extent: each reservation evicts the last one, whose slot
  // it takes over.
  ExtentCache c(256 * KiB);
  std::vector<ExtentCache::ExtentId> issued;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto id = c.reserve(0, i * 1000, 512, 8, usec(i));
    ASSERT_NE(id, 0u);
    for (const auto old : issued) {
      ASSERT_NE(old, id);
      EXPECT_FALSE(c.mark_filled(old, usec(i)));
    }
    issued.push_back(id);
  }
  EXPECT_EQ(c.extent_count(), 1u);
  // A slot freed by a write, not an eviction, is reused the same way.
  c.invalidate(0, 63 * 1000, 8);
  EXPECT_EQ(c.extent_count(), 0u);
  const auto next = c.reserve(0, 0, 512, 8, usec(100));
  EXPECT_FALSE(c.mark_filled(issued.back(), usec(101)));
  EXPECT_TRUE(c.mark_filled(next, usec(101)));
}

/// The list-based cache the indexed one replaced, kept as the reference:
/// one list, most recently reserved or hit first, walked in full by every
/// operation.
class ReferenceCache {
 public:
  using ExtentId = std::uint64_t;

  explicit ReferenceCache(Bytes capacity) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] Bytes used_bytes() const { return used_; }
  [[nodiscard]] std::size_t extent_count() const { return extents_.size(); }
  [[nodiscard]] const CtrlCacheStats& stats() const { return stats_; }

  bool lookup(std::uint32_t disk, Lba lba, Lba sectors, SimTime now) {
    if (!enabled()) {
      ++stats_.misses;
      return false;
    }
    for (auto it = extents_.begin(); it != extents_.end(); ++it) {
      if (it->disk != disk || !it->filled) continue;
      if (lba >= it->start && lba + sectors <= it->start + it->length) {
        it->last_access = now;
        it->consumed = std::max(it->consumed, lba + sectors - it->start);
        extents_.splice(extents_.begin(), extents_, it);
        ++stats_.hits;
        return true;
      }
    }
    ++stats_.misses;
    return false;
  }

  ExtentId reserve(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors,
                   SimTime now) {
    if (!enabled() || sectors == 0) return 0;
    const Lba keep = std::min(sectors, bytes_to_sectors(capacity_));
    for (auto it = extents_.begin(); it != extents_.end();) {
      const bool overlap =
          it->disk == disk && lba < it->start + it->length && it->start < lba + keep;
      if (overlap) {
        account_waste(*it);
        used_ -= sectors_to_bytes(it->length);
        it = extents_.erase(it);
      } else {
        ++it;
      }
    }
    while (used_ + sectors_to_bytes(keep) > capacity_ && !extents_.empty()) {
      evict_lru();
    }
    Extent ext;
    ext.id = next_id_++;
    ext.disk = disk;
    ext.start = lba;
    ext.length = keep;
    ext.consumed = std::min(request_sectors, keep);
    ext.last_access = now;
    used_ += sectors_to_bytes(keep);
    extents_.push_front(ext);
    if (sectors > request_sectors) {
      stats_.prefetched_bytes += sectors_to_bytes(sectors - request_sectors);
    }
    return ext.id;
  }

  bool mark_filled(ExtentId id, SimTime now) {
    if (id == 0) return false;
    for (auto& ext : extents_) {
      if (ext.id == id) {
        ext.filled = true;
        ext.last_access = now;
        return true;
      }
    }
    return false;
  }

  void install(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors, SimTime now) {
    (void)mark_filled(reserve(disk, lba, sectors, request_sectors, now), now);
  }

  void invalidate(std::uint32_t disk, Lba lba, Lba sectors) {
    for (auto it = extents_.begin(); it != extents_.end();) {
      const bool overlap =
          it->disk == disk && lba < it->start + it->length && it->start < lba + sectors;
      if (overlap) {
        used_ -= sectors_to_bytes(it->length);
        it = extents_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  struct Extent {
    ExtentId id = 0;
    std::uint32_t disk = 0;
    Lba start = 0;
    Lba length = 0;
    Lba consumed = 0;
    bool filled = false;
    SimTime last_access = 0;
  };

  void evict_lru() {
    auto victim = extents_.begin();
    for (auto it = extents_.begin(); it != extents_.end(); ++it) {
      if (it->last_access < victim->last_access) victim = it;
    }
    ++stats_.evictions;
    account_waste(*victim);
    used_ -= sectors_to_bytes(victim->length);
    extents_.erase(victim);
  }

  void account_waste(const Extent& extent) {
    if (extent.length > extent.consumed) {
      stats_.wasted_prefetch_bytes += sectors_to_bytes(extent.length - extent.consumed);
    }
    if (!extent.filled) ++stats_.inflight_evictions;
  }

  std::list<Extent> extents_;
  Bytes capacity_ = 0;
  Bytes used_ = 0;
  ExtentId next_id_ = 1;
  CtrlCacheStats stats_;
};

void expect_same_state(const ExtentCache& cache, const ReferenceCache& ref, int op) {
  const CtrlCacheStats& a = cache.stats();
  const CtrlCacheStats& b = ref.stats();
  ASSERT_EQ(a.hits, b.hits) << "op " << op;
  ASSERT_EQ(a.misses, b.misses) << "op " << op;
  ASSERT_EQ(a.evictions, b.evictions) << "op " << op;
  ASSERT_EQ(a.inflight_evictions, b.inflight_evictions) << "op " << op;
  ASSERT_EQ(a.prefetched_bytes, b.prefetched_bytes) << "op " << op;
  ASSERT_EQ(a.wasted_prefetch_bytes, b.wasted_prefetch_bytes) << "op " << op;
  ASSERT_EQ(cache.used_bytes(), ref.used_bytes()) << "op " << op;
  ASSERT_EQ(cache.extent_count(), ref.extent_count()) << "op " << op;
}

/// Drives both caches with one seeded operation sequence over four disks
/// and compares every return value and the whole observable state after
/// every operation. Time mostly stands still (LRU ties) and sometimes
/// steps back; some extents exceed the capacity (truncation); 30% of the
/// reserves and installs continue a recent reservation, as a sequential
/// stream does, so extents abut; reservations are often left unfilled
/// until evicted, and mark_filled draws from every id ever issued (stale
/// ones included) and from 0.
void run_against_reference(Bytes capacity, std::uint64_t seed) {
  constexpr int kOps = 20000;
  constexpr std::uint32_t kDisks = 4;
  ExtentCache cache(capacity);
  ReferenceCache ref(capacity);
  Rng rng(seed);
  const Lba cap_sectors = bytes_to_sectors(capacity);
  const Lba span = 6 * cap_sectors;  // per disk
  struct Issued {
    ExtentCache::ExtentId id;
    ReferenceCache::ExtentId ref_id;
    std::uint32_t disk;
    Lba lba;
    Lba kept;  ///< sectors after truncation to the capacity
  };
  std::vector<Issued> issued;
  const auto recent = [&]() -> const Issued& {
    return issued[issued.size() - 1 -
                  rng.next_below(std::min<std::size_t>(issued.size(), 32))];
  };
  const auto maybe_continue_recent = [&](std::uint32_t& disk, Lba& lba) {
    if (issued.empty() || !rng.next_bool(0.3)) return;
    const Issued& r = recent();
    disk = r.disk;
    lba = r.lba + r.kept;
  };
  // Mostly a small share of the capacity, so dozens of extents coexist;
  // one in twenty is larger than the whole cache.
  const auto extent_sectors = [&] {
    return rng.next_bool(0.05) ? rng.next_in(cap_sectors, 2 * cap_sectors)
                               : rng.next_in(1, cap_sectors / 8);
  };
  std::size_t peak_extents = 0;
  SimTime now = usec(1);
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t step = rng.next_below(10);
    if (step >= 8) now += usec(step - 7);
    if (step == 0 && now > usec(2)) now -= usec(1);
    std::uint32_t disk = static_cast<std::uint32_t>(rng.next_below(kDisks));
    Lba lba = rng.next_below(span);
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2: {  // lookup, half of them at the start, end or inside a reservation
        if (!issued.empty() && rng.next_bool(0.5)) {
          const Issued& r = recent();
          const Lba offsets[] = {0, r.kept, rng.next_below(r.kept + 1)};
          disk = r.disk;
          lba = r.lba + offsets[rng.next_below(3)];
        }
        const Lba sectors = rng.next_bool(0.1) ? 0 : rng.next_below(65);
        ASSERT_EQ(cache.lookup(disk, lba, sectors, now), ref.lookup(disk, lba, sectors, now))
            << "op " << op;
        break;
      }
      case 3:
      case 4: {  // reserve, left in flight
        maybe_continue_recent(disk, lba);
        const Lba sectors = extent_sectors();
        const Lba request = rng.next_below(sectors + 1);
        const auto id = cache.reserve(disk, lba, sectors, request, now);
        const auto ref_id = ref.reserve(disk, lba, sectors, request, now);
        ASSERT_EQ(id == 0, ref_id == 0) << "op " << op;
        if (id != 0) {
          issued.push_back({id, ref_id, disk, lba, std::min(sectors, cap_sectors)});
        }
        break;
      }
      case 5:
      case 6:
      case 7: {  // mark_filled: usually a recent id, sometimes a stale one or 0
        if (issued.empty() || rng.next_bool(0.05)) {
          ASSERT_EQ(cache.mark_filled(0, now), ref.mark_filled(0, now)) << "op " << op;
          break;
        }
        const std::size_t back = rng.next_bool(0.8)
                                     ? rng.next_below(std::min<std::size_t>(issued.size(), 4))
                                     : rng.next_below(issued.size());
        const Issued& r = issued[issued.size() - 1 - back];
        ASSERT_EQ(cache.mark_filled(r.id, now), ref.mark_filled(r.ref_id, now))
            << "op " << op;
        break;
      }
      case 8: {
        maybe_continue_recent(disk, lba);
        const Lba sectors = extent_sectors();
        const Lba request = rng.next_below(sectors + 1);
        cache.install(disk, lba, sectors, request, now);
        ref.install(disk, lba, sectors, request, now);
        break;
      }
      default: {
        const Lba sectors = rng.next_below(cap_sectors / 2);
        cache.invalidate(disk, lba, sectors);
        ref.invalidate(disk, lba, sectors);
        break;
      }
    }
    expect_same_state(cache, ref, op);
    if (::testing::Test::HasFatalFailure()) return;
    peak_extents = std::max(peak_extents, ref.extent_count());
  }
  EXPECT_GE(peak_extents, 16u);
  EXPECT_GT(ref.stats().hits, 0u);
  EXPECT_GT(ref.stats().inflight_evictions, 0u);
}

TEST(ExtentCache, MatchesTheListReferenceOnRandomOperations) {
  // Small, not a sector multiple (an extent truncated to it overfills it
  // by part of a sector), and roomy.
  const Bytes capacities[] = {64 * KiB, 256 * KiB + 300, 1 * MiB};
  for (const Bytes capacity : capacities) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << "capacity " << capacity << " seed " << seed);
      run_against_reference(capacity, seed);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace sst::ctrl
