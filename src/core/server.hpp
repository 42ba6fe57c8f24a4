// Storage-server front end (paper Fig. 9): every client request enters
// here. Requests belonging to a known sequential stream are handed to the
// stream scheduler; unclaimed reads are recorded by the classifier (which
// may detect a new stream); everything else — writes and non-sequential
// reads — is issued directly to the device.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/counters.hpp"
#include "common/types.hpp"
#include "core/classifier.hpp"
#include "core/scheduler.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/tracer.hpp"
#include "exec/execution_context.hpp"

namespace sst::core {

struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t sequential_requests = 0;  ///< routed to a stream
  std::uint64_t direct_reads = 0;
  std::uint64_t direct_writes = 0;
  /// Requests failed on arrival because their device was declared failed.
  std::uint64_t rejected_requests = 0;
  /// Exported as server.*.
  static constexpr counters::Counter<ServerStats> kCounters[] = {
      {"requests", &ServerStats::requests},
      {"sequential_requests", &ServerStats::sequential_requests},
      {"direct_reads", &ServerStats::direct_reads},
      {"direct_writes", &ServerStats::direct_writes},
      {"rejected_requests", &ServerStats::rejected_requests},
  };
};

class StorageServer {
 public:
  /// Devices must outlive the server; they are indexed by position in
  /// `devices` (ClientRequest::device).
  StorageServer(exec::ExecutionContext& simulator, std::vector<blockdev::BlockDevice*> devices,
                SchedulerParams params);

  /// Entry point for client requests. The request must fit the device.
  void submit(ClientRequest request);

  /// Attach a per-experiment tracer (nullptr detaches); forwarded to the
  /// stream scheduler. The tracer must outlive the server.
  void set_tracer(obs::Tracer* tracer);

  /// Attach a flight recorder (nullptr detaches); forwarded to the stream
  /// scheduler. The recorder must outlive the server.
  void set_flight_recorder(obs::FlightRecorder* flight);

  [[nodiscard]] StreamScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const StreamScheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] Classifier& classifier() { return classifier_; }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }

 private:
  /// Wrap the request's completion so its full lifetime (arrival -> client
  /// completion) lands on the device's request track as a complete span.
  /// `kind` names the route taken and must be a string literal.
  void trace_request(ClientRequest& request, const char* kind);
  /// Latency attribution: record the route and wrap the completion to stamp
  /// the server-side done time (fires before the response leaves the
  /// server) and emit per-stage breakdown spans. Requires request.trace.
  void stamp_request(ClientRequest& request, obs::RequestRoute route);

  exec::ExecutionContext& sim_;
  std::vector<blockdev::BlockDevice*> devices_;
  Classifier classifier_;
  StreamScheduler scheduler_;
  ServerStats stats_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace sst::core
