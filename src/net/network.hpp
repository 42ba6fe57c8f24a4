// Client-to-storage-node network model. The paper's testbed connects
// client machines to the storage node over 1 Gbit/s Ethernet with TCP/IP,
// and §5 notes that "responses to and from storage nodes do not include
// the data of read/write requests" so the network never bottlenecks the
// experiment. This model reproduces that setup: a full-duplex link with a
// propagation delay, a per-message processing overhead, and per-direction
// serialization at the configured bandwidth; response payloads are
// optional exactly like the paper's.
//
// RemoteSink wraps any RequestSink (typically StorageServer::submit) so
// that generators experience client-side response times: request message
// uplink -> server processing -> response downlink.
#pragma once

#include <cstdint>
#include <functional>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "fault/injector.hpp"
#include "exec/execution_context.hpp"
#include "stats/histogram.hpp"
#include "workload/generator.hpp"

namespace sst::net {

struct LinkParams {
  /// One-way propagation + switching latency.
  SimTime latency = usec(50);
  /// Link bandwidth per direction (1 GbE minus framing ~ 117 MB/s).
  double bandwidth_bps = 117e6;
  /// Per-message host processing (TCP/IP stack, interrupt) on each side.
  SimTime per_message_overhead = usec(20);
  /// Bytes of protocol header per message (request descriptors, acks).
  Bytes header_bytes = 128;
  /// When true, read responses carry their payload across the link; the
  /// paper's evaluation disables this so the network is not a bottleneck.
  bool responses_carry_data = false;
};

struct LinkStats {
  std::uint64_t messages = 0;
  Bytes bytes_transferred = 0;
  SimTime busy_time = 0;  ///< aggregate over both directions
};

/// Faults the link itself injected (see RemoteSink::set_fault_injector).
struct NetFaultStats {
  std::uint64_t dropped = 0;           ///< requests lost in transit (hangs)
  std::uint64_t spiked = 0;            ///< requests delayed by a spike
  std::uint64_t transport_errors = 0;  ///< failed without reaching the server
  /// Exported as net.*.
  static constexpr counters::Counter<NetFaultStats> kCounters[] = {
      {"dropped_requests", &NetFaultStats::dropped},
      {"spiked_requests", &NetFaultStats::spiked},
      {"transport_errors", &NetFaultStats::transport_errors},
  };
};

/// One direction of a full-duplex link: serializes message transmissions.
class Channel {
 public:
  Channel(exec::ExecutionContext& simulator, const LinkParams& params)
      : sim_(simulator), params_(params) {}

  /// Deliver `payload_bytes` (+ header) to the far side; `deliver` fires at
  /// arrival time.
  void send(Bytes payload_bytes, std::function<void()> deliver);

  [[nodiscard]] const LinkStats& stats() const { return stats_; }

 private:
  exec::ExecutionContext& sim_;
  LinkParams params_;
  SimTime busy_until_ = 0;
  LinkStats stats_;
};

/// Wraps a server-side RequestSink behind a simulated network link. All
/// clients sharing a RemoteSink share its two channels (one per direction),
/// like client machines behind one NIC.
class RemoteSink {
 public:
  RemoteSink(exec::ExecutionContext& simulator, workload::RequestSink server, LinkParams params);

  /// The sink to hand to generators (issues travel uplink; completions
  /// return downlink).
  [[nodiscard]] workload::RequestSink sink();

  [[nodiscard]] const LinkStats& uplink_stats() const { return uplink_.stats(); }
  [[nodiscard]] const LinkStats& downlink_stats() const { return downlink_.stats(); }
  /// Per-response transit time across the downlink (server completion ->
  /// client delivery), for the latency_breakdown.net_response export.
  [[nodiscard]] const stats::LatencyHistogram& response_transit() const {
    return response_transit_;
  }

  /// Let the link consult a fault injector, keyed as `device_index` (the
  /// experiment runner uses the first index past the disks — the "NIC").
  /// A media-error decision fails the request in transport (error
  /// completion, never reaches the server); a hang drops it outright (no
  /// completion — a lost RPC with no client timeout starves that stream's
  /// outstanding slot, exactly like a real lost request); a spike delays
  /// the uplink by the decision's extra delay. `injector` must outlive the
  /// sink; nullptr detaches.
  void set_fault_injector(fault::FaultInjector* injector, std::uint32_t device_index) {
    fault_ = injector;
    fault_device_ = device_index;
  }
  [[nodiscard]] const NetFaultStats& fault_stats() const { return fault_stats_; }

 private:
  exec::ExecutionContext& sim_;
  workload::RequestSink server_;
  LinkParams params_;
  Channel uplink_;
  Channel downlink_;
  fault::FaultInjector* fault_ = nullptr;
  std::uint32_t fault_device_ = 0;
  NetFaultStats fault_stats_;
  stats::LatencyHistogram response_transit_;
};

}  // namespace sst::net
