// Always-on flight recorder: a fixed-capacity ring buffer journaling
// request-lifecycle and fault events at near-zero steady-state cost.
//
// record() writes into a preallocated slot — no allocation, no branching
// beyond the null-check producers already do for the tracer — so it can
// stay enabled in production-style runs. The ring keeps the most recent
// `capacity` events; on an SLO breach, a device failure, or an explicit
// --flight-dump the buffer is serialized to JSON for post-mortem analysis.
//
// Runs of several cells give each cell a private recorder (same
// single-writer discipline as the per-cell tracers); merge_from() stitches
// them into one chronological journal after the cells finish.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace sst::obs {

/// What happened. Codes are stable across runs (used by tests and tooling).
enum class FlightCode : std::uint8_t {
  kIssue = 1,          ///< client issued a request (a = device, b = offset)
  kAdmit = 2,          ///< server admitted it (a = device, b = route)
  kServe = 3,          ///< scheduler served from staging (a = device, b = bytes)
  kComplete = 4,       ///< client saw the completion (a = latency ns, b = ok)
  kRequestFailed = 5,  ///< scheduler failed the request (a = device, b = status)
  kStreamEvicted = 6,  ///< stream evicted under pool pressure (a = device)
  kDeviceFailed = 7,   ///< fault layer marked a device dead (a = device)
  kSloBreach = 8,      ///< SLO engine verdict = fail (a = breached windows)
};

[[nodiscard]] constexpr const char* to_string(FlightCode code) {
  switch (code) {
    case FlightCode::kIssue: return "issue";
    case FlightCode::kAdmit: return "admit";
    case FlightCode::kServe: return "serve";
    case FlightCode::kComplete: return "complete";
    case FlightCode::kRequestFailed: return "request_failed";
    case FlightCode::kStreamEvicted: return "stream_evicted";
    case FlightCode::kDeviceFailed: return "device_failed";
    case FlightCode::kSloBreach: return "slo_breach";
  }
  return "?";
}

/// One journal slot. `seq` is per-recorder and monotone, so merged shard
/// journals sort stably by (ts, shard, seq).
struct FlightEvent {
  SimTime ts = 0;
  std::uint64_t rid = 0;  ///< request id; 0 for non-request events
  std::uint64_t a = 0;    ///< code-specific payload (see FlightCode)
  std::uint64_t b = 0;
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  FlightCode code = FlightCode::kIssue;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity > 0 ? capacity : 1) {}

  /// O(1), allocation-free: overwrite the oldest slot once full.
  void record(FlightCode code, SimTime ts, std::uint64_t rid, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    FlightEvent& slot = ring_[recorded_ % ring_.size()];
    slot.ts = ts;
    slot.rid = rid;
    slot.a = a;
    slot.b = b;
    slot.seq = recorded_;
    slot.shard = shard_;
    slot.code = code;
    ++recorded_;
  }

  /// Tag subsequently recorded events with the owning shard id.
  void set_shard(std::uint32_t shard) { shard_ = shard; }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Total events ever recorded; values above capacity() mean the ring
  /// wrapped and `recorded() - capacity()` oldest events were dropped.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  /// Surviving events, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// Fold another recorder's surviving events into this ring: the combined
  /// set is ordered by (ts, shard, seq) and the newest `capacity()` kept.
  void merge_from(const FlightRecorder& other);

  void clear() { recorded_ = 0; }

  /// {"capacity":..,"recorded":..,"dropped":..,"events":[...]} — events in
  /// chronological order.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;
  /// Write the JSON dump to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::vector<FlightEvent> ring_;
  std::uint64_t recorded_ = 0;
  std::uint32_t shard_ = 0;
};

}  // namespace sst::obs
