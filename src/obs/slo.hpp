// Tail-latency observability: per-request latency attribution and the SLO
// engine.
//
// Attribution threads a compact stage-timestamp record (RequestTrace,
// pooled — no steady-state allocation) through the request lifecycle:
//
//   issue -> [ingress: network downlink] -> admit
//         -> [queue: scheduler queue + disk queue + seek/rotation/transfer
//             as observed by this request] -> serve
//         -> [staging: buffer consume + host CPU completion charge] -> done
//         -> [uplink: response transit back to the client]
//         -> client completion
//
// The four stages partition the client-observed response time contiguously,
// so their per-request sums reconcile with the end-to-end latency by
// construction. A request stays on the cell that owns its device from issue
// to completion, so its stamps form one causal chain under a request id
// that keys on the stream's global ordinal.
//
// The SLO engine evaluates a declarative objective (latency bound at a
// target quantile, windowed, with an allowed burn rate) against streaming
// log-bucketed histograms collected per evaluation window.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slab.hpp"
#include "common/types.hpp"
#include "stats/histogram.hpp"

namespace sst::obs {

/// Which route the storage server gave a request (RequestTrace::route).
enum class RequestRoute : std::uint8_t {
  kUnknown = 0,
  kStream = 1,       ///< matched / created a sequential stream
  kDirectRead = 2,   ///< non-sequential read, straight to the device
  kDirectWrite = 3,  ///< write, straight to the device
  kRejected = 4,     ///< failed fast against a dead device
};

[[nodiscard]] constexpr const char* to_string(RequestRoute r) {
  switch (r) {
    case RequestRoute::kUnknown: return "unknown";
    case RequestRoute::kStream: return "stream";
    case RequestRoute::kDirectRead: return "direct_read";
    case RequestRoute::kDirectWrite: return "direct_write";
    case RequestRoute::kRejected: return "rejected";
  }
  return "?";
}

/// Per-request stage timestamps. Slots are pooled by the LatencyAttributor
/// and travel with the request (ClientRequest::trace) across layers and
/// shards; every producer stamps its own field, null-checked, so the record
/// costs nothing when attribution is off.
struct RequestTrace {
  std::uint64_t rid = 0;  ///< stable request id: (client ordinal << 24) | seq
  SimTime issue = 0;      ///< client handed the request to its sink
  SimTime admit = 0;      ///< StorageServer::submit saw it
  SimTime serve = 0;      ///< scheduler began serving from staged data
  SimTime done = 0;       ///< server-side completion (before response uplink)
  Bytes staged_copied = 0;  ///< bytes memcpy'd while staging (0 = zero-copy)
  RequestRoute route = RequestRoute::kUnknown;
};

/// Build the stable request id from a client's ordinal (its position in the
/// experiment's stream-spec order — shard-count invariant) and that
/// client's issue sequence number.
[[nodiscard]] constexpr std::uint64_t make_request_id(std::uint32_t client_ordinal,
                                                      std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client_ordinal + 1) << 24) | (seq & 0xFFFFFF);
}

/// Windowed streaming latency collection: one log-bucketed histogram per
/// fixed evaluation window of sim time (windows are indexed by absolute
/// time, so per-shard recorders merge window-by-window).
class WindowedLatencyRecorder {
 public:
  explicit WindowedLatencyRecorder(SimTime window) : window_(window > 0 ? window : 1) {}

  void record(SimTime now, SimTime latency);
  /// Drop everything collected so far (start of the measurement window).
  void reset() { windows_.clear(); }
  void merge_from(const WindowedLatencyRecorder& other);

  [[nodiscard]] SimTime window() const { return window_; }
  /// One slot per window ordinal since the first recorded sample; empty
  /// windows stay default-constructed.
  [[nodiscard]] const std::vector<stats::LatencyHistogram>& windows() const {
    return windows_;
  }
  /// Ordinal (now / window) of windows_[0]; 0 when nothing was recorded.
  [[nodiscard]] std::uint64_t first_ordinal() const { return first_ordinal_; }

 private:
  SimTime window_;
  std::uint64_t first_ordinal_ = 0;
  bool any_ = false;
  std::vector<stats::LatencyHistogram> windows_;
};

/// Stage histograms aggregated over attributed requests. The first four
/// partition the response time (their per-request durations sum to the
/// end-to-end latency); the rest are informational device-level views
/// filled by the experiment runner from the disk and network layers.
struct LatencyBreakdown {
  bool enabled = false;
  std::uint64_t attributed = 0;  ///< successful requests folded in
  Bytes staged_copied = 0;       ///< bytes memcpy'd on the staging path
  stats::LatencyHistogram ingress;  ///< issue -> admit
  stats::LatencyHistogram queue;    ///< admit -> serve (sched + disk + media)
  stats::LatencyHistogram staging;  ///< serve -> done (consume + CPU charge)
  stats::LatencyHistogram uplink;   ///< done -> client completion
  /// Device-level attribution (whole run, per disk command / net response —
  /// decoupled from individual requests by prefetching):
  stats::LatencyHistogram disk_queue;    ///< command submit -> service start
  stats::LatencyHistogram disk_service;  ///< service start -> data available
  stats::LatencyHistogram net_response;  ///< response entering -> leaving link

  void merge_from(const LatencyBreakdown& other);
  /// Sum over the four additive stages, milliseconds.
  [[nodiscard]] double stage_sum_ms() const {
    return ingress.total_ms() + queue.total_ms() + staging.total_ms() +
           uplink.total_ms();
  }
};

/// Owns the pooled RequestTrace slots and folds completed records into the
/// stage histograms (and, when attached, the windowed recorder feeding the
/// SLO engine). One attributor per shard: acquire/complete run on the
/// request's home shard, intermediate stamps on the owning shard — the
/// barrier orders them.
class LatencyAttributor {
 public:
  [[nodiscard]] RequestTrace* acquire(std::uint64_t rid, SimTime issue_ts);
  /// Fold the record into the stage histograms (successful completions
  /// only) and recycle the slot.
  void complete(RequestTrace* trace, SimTime client_ts, bool ok);

  /// Discard warm-up stage data; in-flight records keep their stamps and
  /// fold fully on completion (matching the clients' latency meters).
  void begin_measurement();

  void attach_window(WindowedLatencyRecorder* recorder) { window_ = recorder; }

  [[nodiscard]] const LatencyBreakdown& breakdown() const { return breakdown_; }
  [[nodiscard]] LatencyBreakdown& breakdown() { return breakdown_; }

 private:
  Slab<RequestTrace> slab_;
  LatencyBreakdown breakdown_;
  WindowedLatencyRecorder* window_ = nullptr;
};

/// Declarative SLO: "quantile `quantile` of the response time must stay
/// under `objective` in every `window`, with at most `burn_rate` of the
/// evaluated windows allowed to breach".
struct SloSpec {
  SimTime objective = 0;     ///< latency bound; 0 = SLO disabled
  double quantile = 0.99;    ///< target quantile in (0, 1], e.g. 0.999
  SimTime window = sec(1);   ///< evaluation window
  double burn_rate = 0.0;    ///< allowed breaching-window fraction [0, 1]

  [[nodiscard]] bool enabled() const { return objective > 0; }
};

/// The verdict: exported under the "slo" metrics group and turned into a
/// nonzero CLI exit code on failure.
struct SloReport {
  bool enabled = false;
  bool pass = true;
  double objective_ms = 0.0;
  double quantile = 0.0;
  double window_ms = 0.0;
  double burn_rate_allowed = 0.0;
  double burn_rate_observed = 0.0;
  std::uint64_t windows_evaluated = 0;  ///< windows holding >= 1 sample
  std::uint64_t windows_breached = 0;
  double worst_window_ms = 0.0;   ///< max windowed quantile seen
  double overall_ms = 0.0;        ///< quantile over the whole measurement
  std::uint64_t samples = 0;
};

class SloEngine {
 public:
  /// Evaluate `spec` against the windowed samples; `overall` is the
  /// whole-measurement histogram for the headline quantile.
  [[nodiscard]] static SloReport evaluate(const SloSpec& spec,
                                          const WindowedLatencyRecorder& windows,
                                          const stats::LatencyHistogram& overall);
};

}  // namespace sst::obs
