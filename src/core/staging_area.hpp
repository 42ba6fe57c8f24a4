// The staging area (paper §4.3): owns the memory budget M through the
// BufferPool, keeps every stream's staged read-ahead extents sorted, and
// maintains the buffered-set membership counter incrementally. All buffer
// lifecycle — stage, fill, consume, reap, timeout reclamation — lives here;
// the scheduler facade only decides *when* each transition happens.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "core/buffer_pool.hpp"
#include "core/stream.hpp"

namespace sst::core {

struct StagingStats {
  Bytes bytes_copied = 0;            ///< memcpy'd into client destinations
  std::uint64_t zero_copy_hits = 0;  ///< requests served without any copy
  /// Exported as staging.*.
  static constexpr counters::Counter<StagingStats> kCounters[] = {
      {"bytes_copied", &StagingStats::bytes_copied},
      {"zero_copy_hits", &StagingStats::zero_copy_hits},
  };
};

class StagingArea {
 public:
  StagingArea(Bytes memory_budget, bool materialize)
      : pool_(memory_budget, materialize) {}
  StagingArea(const StagingArea&) = delete;
  StagingArea& operator=(const StagingArea&) = delete;

  /// Does the union of (optionally only filled) staged ranges cover
  /// [off, off+len)? Binary-searches the starting buffer instead of walking
  /// the whole staged set.
  [[nodiscard]] static bool covers(const std::vector<std::unique_ptr<IoBuffer>>& buffers,
                                   ByteOffset off, Bytes len, bool filled_only);

  /// Allocate a buffer for the stream's next read-ahead extent and insert
  /// it sorted by offset. Returns the raw buffer, or nullptr when the
  /// memory budget M is exhausted (the caller bounces the dispatch).
  [[nodiscard]] IoBuffer* stage(Stream& stream, ByteOffset offset, Bytes len, SimTime now);

  /// A read-ahead landed: mark the (unique) unfilled buffer at `offset`.
  void mark_filled(Stream& stream, ByteOffset offset, SimTime now);

  /// A read-ahead failed: drop its never-filled buffer at `offset`.
  void drop_unfilled(Stream& stream, ByteOffset offset);

  /// Serve [offset, offset+length) from the staged buffers covering it.
  /// The caller guarantees coverage (covers(..., filled_only=true)). With a
  /// `data` destination the range is memcpy'd (legacy copy path); without
  /// one the request is zero-copy — materialized extents are handed to
  /// `sink` by reference instead of being copied. A latency-attribution
  /// `trace`, when present, is stamped with the bytes copied.
  void consume(Stream& stream, ByteOffset offset, Bytes length, std::byte* data,
               SimTime now, const DataSink& sink = nullptr,
               obs::RequestTrace* trace = nullptr);

  /// Release fully consumed buffers; updates buffered-set membership.
  void reap(Stream& stream);

  struct ReclaimResult {
    std::uint64_t buffers_reclaimed = 0;
    Bytes bytes_wasted = 0;  ///< staged-but-unread bytes reclaimed
  };

  /// GC sweep over one stream: reclaim filled buffers idle since before
  /// `horizon` unless a parked request still needs them (the prefetch
  /// cursor never revisits a reclaimed range). In-flight reads survive.
  ReclaimResult reclaim_expired(Stream& stream, SimTime horizon);

  /// Drop every buffer that carries no future device write: timing-only
  /// buffers and filled ones. Unfilled materialized buffers survive — an
  /// in-flight read still holds a pointer into them.
  void drop_inert_buffers(Stream& stream);

  /// Release everything the stream staged (it is being retired).
  void release_all(Stream& stream);

  /// Membership predicate for the maintained buffered-set counter.
  [[nodiscard]] static bool counts_as_buffered(const Stream& s) {
    return s.state == StreamState::kBuffered && !s.buffers.empty();
  }

  /// Re-evaluate `stream`'s buffered-set membership after a mutation;
  /// `was` is counts_as_buffered() captured before the mutation.
  void note_buffered(const Stream& stream, bool was) {
    const bool now = counts_as_buffered(stream);
    if (was && !now) {
      --buffered_count_;
    } else if (!was && now) {
      ++buffered_count_;
    }
  }

  /// Forget a stream that is leaving the scheduler entirely.
  void on_retire(const Stream& stream) {
    if (counts_as_buffered(stream)) --buffered_count_;
  }

  [[nodiscard]] std::size_t buffered_count() const { return buffered_count_; }
  [[nodiscard]] const BufferPool& pool() const { return pool_; }
  /// Mutable pool access for backends that pre-warm and register the
  /// extent slab as DMA buffers before I/O starts.
  [[nodiscard]] BufferPool& pool() { return pool_; }
  [[nodiscard]] std::size_t live_buffers() const { return pool_.live_buffers(); }
  [[nodiscard]] const StagingStats& stats() const { return stats_; }

 private:
  BufferPool pool_;
  StagingStats stats_;
  /// Streams holding staged data while not dispatched (the buffered set),
  /// maintained incrementally at every state/buffer transition.
  std::size_t buffered_count_ = 0;
};

}  // namespace sst::core
