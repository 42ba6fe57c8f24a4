// Per-device interval index mapping a byte offset to the stream that
// claims it (paper §4.1: incoming requests must be matched to a detected
// stream before they can ride its read-ahead). One ordered map per device,
// keyed by range_start and holding the claiming Stream itself, so a lookup
// is a single predecessor search — O(log n) in the number of streams on
// that device, never a linear scan, and no second lookup by stream id. The
// microbench (`bench_find_stream`) asserts the scaling.
//
// The index does not own streams. Its owner must unclaim a stream before
// destroying it; claims are compared by address, so a stream that lost its
// anchor to a later one never removes the later one's claim.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "core/stream.hpp"

namespace sst::core {

class StreamIndex {
 public:
  explicit StreamIndex(std::size_t device_count) : per_device_(device_count) {}

  /// Claim [stream.range_start, ...) on the stream's device (replacing any
  /// previous claim anchored at the same offset).
  void claim(Stream& stream) {
    assert(stream.device < per_device_.size());
    per_device_[stream.device].insert_or_assign(stream.range_start, &stream);
  }

  /// Drop the stream's claim, but only if it still owns its anchor (a later
  /// stream may have re-claimed the same offset).
  void unclaim(const Stream& stream) {
    assert(stream.device < per_device_.size());
    auto& idx = per_device_[stream.device];
    const auto entry = idx.find(stream.range_start);
    if (entry != idx.end() && entry->second == &stream) idx.erase(entry);
  }

  /// Find the stream claiming `offset` on `device`, or nullptr. Only the
  /// predecessor claim is examined: streams are detected left-to-right and
  /// a request beyond the predecessor's match window belongs to no stream
  /// (it restarts detection).
  [[nodiscard]] Stream* find(std::uint32_t device, ByteOffset offset,
                             Bytes read_ahead) const {
    assert(device < per_device_.size());
    const auto& idx = per_device_[device];
    auto it = idx.upper_bound(offset);
    if (it == idx.begin()) return nullptr;
    --it;
    Stream* const s = it->second;
    return offset < s->match_end(read_ahead) ? s : nullptr;
  }

  [[nodiscard]] std::size_t device_count() const { return per_device_.size(); }

 private:
  std::vector<std::map<ByteOffset, Stream*>> per_device_;
};

}  // namespace sst::core
