#include "core/server.hpp"

#include <cassert>
#include <string>
#include <utility>

namespace sst::core {

StorageServer::StorageServer(exec::ExecutionContext& simulator,
                             std::vector<blockdev::BlockDevice*> devices,
                             SchedulerParams params)
    : sim_(simulator),
      devices_(devices),
      classifier_(params.classifier),
      scheduler_(simulator, std::move(devices), params) {}

void StorageServer::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  scheduler_.set_tracer(tracer);
  if (tracer_ != nullptr) {
    for (std::size_t dev = 0; dev < devices_.size(); ++dev) {
      tracer_->name_track(obs::request_track(static_cast<std::uint32_t>(dev)),
                          "requests dev " + std::to_string(dev));
    }
  }
}

void StorageServer::set_flight_recorder(obs::FlightRecorder* flight) {
  flight_ = flight;
  scheduler_.set_flight_recorder(flight);
}

void StorageServer::trace_request(ClientRequest& request, const char* kind) {
  const auto tid = obs::request_track(request.device);
  request.on_complete = [this, tid, kind, start = sim_.now(),
                         prev = std::move(request.on_complete)](SimTime done,
                                                                IoStatus status) {
    tracer_->complete(tid, "request", kind, start, done);
    if (prev) prev(done, status);
  };
}

void StorageServer::stamp_request(ClientRequest& request, obs::RequestRoute route) {
  obs::RequestTrace* trace = request.trace;
  trace->route = route;
  request.on_complete = [this, trace, tid = obs::request_track(request.device),
                         prev = std::move(request.on_complete)](SimTime done,
                                                                IoStatus status) {
    trace->done = done;
    // Per-stage spans for stream-served requests: queue (admit -> serve)
    // and staging (serve -> done). Other routes never pass serve_request.
    if (tracer_ != nullptr && io_ok(status) && trace->serve >= trace->admit &&
        trace->serve > 0) {
      tracer_->complete(tid, "breakdown", "queue", trace->admit, trace->serve);
      tracer_->complete(tid, "breakdown", "staging", trace->serve, done);
    }
    if (prev) prev(done, status);
  };
}

void StorageServer::submit(ClientRequest request) {
  assert(request.device < devices_.size());
  assert(request.length > 0);
  assert(request.offset + request.length <= devices_[request.device]->capacity());
  ++stats_.requests;

  if (request.trace != nullptr) request.trace->admit = sim_.now();
  if (flight_ != nullptr) {
    flight_->record(obs::FlightCode::kAdmit, sim_.now(),
                    request.trace != nullptr ? request.trace->rid : 0,
                    request.device, request.id);
  }

  // Classifier regions age out alongside the scheduler's GC; piggyback a
  // sweep on a deterministic request cadence to avoid a second timer.
  if ((stats_.requests & 0x3FF) == 0) {
    classifier_.collect_garbage(sim_.now());
  }

  // Fail fast against a device the retry hierarchy already declared dead:
  // complete with an error instead of queueing work that cannot finish.
  if (scheduler_.device_failed(request.device)) {
    ++stats_.rejected_requests;
    if (tracer_ != nullptr) trace_request(request, "rejected");
    if (request.trace != nullptr) stamp_request(request, obs::RequestRoute::kRejected);
    if (request.on_complete) request.on_complete(sim_.now(), IoStatus::kDeviceFailed);
    return;
  }

  if (request.op == IoOp::kWrite) {
    ++stats_.direct_writes;
    if (tracer_ != nullptr) trace_request(request, "direct_write");
    if (request.trace != nullptr) {
      stamp_request(request, obs::RequestRoute::kDirectWrite);
    }
    devices_[request.device]->submit(to_block_request(std::move(request)));
    return;
  }

  if (Stream* stream = scheduler_.find_stream(request.device, request.offset)) {
    ++stats_.sequential_requests;
    if (tracer_ != nullptr) trace_request(request, "stream_read");
    if (request.trace != nullptr) stamp_request(request, obs::RequestRoute::kStream);
    scheduler_.enqueue(*stream, std::move(request));
    return;
  }

  const auto detected =
      classifier_.record(request.device, request.offset, request.length, sim_.now());
  if (detected.has_value()) {
    // Read-ahead starts exactly where the triggering request ends: the
    // classifier's block-rounded end may overshoot it, and a stream whose
    // cursor starts past the client's next read would strand that request.
    const ByteOffset next_read = request.offset + request.length;
    if (tracer_ != nullptr) {
      tracer_->instant(obs::kSchedulerTrack, "classifier", "stream_detected",
                       sim_.now(), "device", static_cast<double>(detected->device));
    }
    Stream& stream =
        scheduler_.create_stream(detected->device, detected->start, next_read);
    // The triggering request itself lies below the new stream's read-ahead
    // start; enqueue() routes it to the device directly while the stream
    // begins prefetching from the detection end.
    ++stats_.sequential_requests;
    if (tracer_ != nullptr) trace_request(request, "stream_read");
    if (request.trace != nullptr) stamp_request(request, obs::RequestRoute::kStream);
    scheduler_.enqueue(stream, std::move(request));
    return;
  }

  ++stats_.direct_reads;
  if (tracer_ != nullptr) trace_request(request, "direct_read");
  if (request.trace != nullptr) stamp_request(request, obs::RequestRoute::kDirectRead);
  devices_[request.device]->submit(to_block_request(std::move(request)));
}

}  // namespace sst::core
