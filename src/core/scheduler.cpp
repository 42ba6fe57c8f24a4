#include "core/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/logging.hpp"
#include "core/dispatch_policy.hpp"
#include "obs/slo.hpp"

namespace sst::core {

namespace {
constexpr std::string_view kLog = "scheduler";
}  // namespace

StreamScheduler::StreamScheduler(exec::ExecutionContext& simulator,
                                 std::vector<blockdev::BlockDevice*> devices,
                                 SchedulerParams params)
    : sim_(simulator),
      devices_(std::move(devices)),
      params_(params),
      staging_(params.memory_budget, params.materialize_buffers),
      cpu_(simulator, params.host),
      dispatch_(make_policy(params.policy), devices_.size()),
      index_(devices_.size()),
      device_errors_(devices_.size(), 0) {
  assert(!devices_.empty());
  const Status valid = params_.validate();
  assert(valid.ok());
  (void)valid;
}

StreamScheduler::~StreamScheduler() { gc_event_.cancel(); }

void StreamScheduler::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) tracer_->name_track(obs::kSchedulerTrack, "scheduler");
}

void StreamScheduler::arm_gc() {
  if (gc_event_.pending()) return;
  gc_event_ = sim_.schedule_after(params_.gc_period, [this]() {
    collect_garbage();
    if (!streams_.empty()) arm_gc();
  });
}

Stream* StreamScheduler::find_stream(std::uint32_t device, ByteOffset offset) {
  return index_.find(device, offset, params_.read_ahead,
                     [this](StreamId id) -> Stream& { return stream_ref(id); });
}

Stream& StreamScheduler::create_stream(std::uint32_t device, ByteOffset range_start,
                                       ByteOffset detection_end) {
  assert(device < devices_.size());
  auto stream = std::make_unique<Stream>();
  stream->id = next_stream_id_++;
  stream->device = device;
  stream->range_start = range_start;
  stream->prefetch_pos = std::min<ByteOffset>(detection_end, devices_[device]->capacity());
  stream->served_upto = detection_end;
  stream->last_activity = sim_.now();
  Stream& ref = *stream;
  index_.claim(device, range_start, stream->id);
  streams_.emplace(stream->id, std::move(stream));
  ++stats_.streams_created;
  arm_gc();
  if (tracer_ != nullptr) {
    tracer_->name_track(obs::stream_track(ref.id), "stream " + std::to_string(ref.id));
    tracer_->instant(obs::kSchedulerTrack, "scheduler", "stream_created", sim_.now(),
                     "stream", static_cast<double>(ref.id));
  }
  LogMessage(LogLevel::kDebug, kLog, sim_.now())
      << "stream " << ref.id << " created on dev " << device << " at " << range_start;
  return ref;
}

Stream& StreamScheduler::stream_ref(StreamId id) {
  const auto it = streams_.find(id);
  assert(it != streams_.end());
  return *it->second;
}

const Stream* StreamScheduler::stream_by_id(StreamId id) const {
  const auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : it->second.get();
}

std::size_t StreamScheduler::buffered_count() const {
#ifndef NDEBUG
  std::size_t n = 0;
  for (const auto& [id, s] : streams_) {
    if (StagingArea::counts_as_buffered(*s)) ++n;
  }
  assert(n == staging_.buffered_count() && "buffered-set counter out of sync");
#endif
  return staging_.buffered_count();
}

void StreamScheduler::enqueue(Stream& stream, ClientRequest request) {
  assert(request.device == stream.device);
  assert(request.op == IoOp::kRead && "writes take the direct path in the server");
  if (device_failed(stream.device)) {
    // Fail fast: the retry hierarchy already exhausted itself against this
    // device; queueing more work would only stall the client.
    fail_request(request, IoStatus::kDeviceFailed);
    return;
  }
  stream.last_activity = sim_.now();
  ++stream.stats.client_requests;

  // 1. Already staged? Serve immediately (a buffered-set or dispatch-set hit).
  if (StagingArea::covers(stream.buffers, request.offset, request.length,
                          /*filled_only=*/true)) {
    ++stream.stats.buffer_hits;
    ++stats_.buffer_hits;
    serve_request(stream, std::move(request));
    reap_buffers(stream);  // frees memory; may unblock stalled dispatches
    return;
  }

  // 2. Covered by in-flight read-ahead, or starting at/after the prefetch
  //    cursor: park it; it completes when data lands. A request merely
  //    *straddling* the cursor would never be fully covered by future
  //    read-ahead, so it must not be parked (it falls through to 3).
  const bool inflight_covers = StagingArea::covers(stream.buffers, request.offset,
                                                   request.length, /*filled_only=*/false);
  const bool ahead = request.offset >= stream.prefetch_pos;
  if (inflight_covers || (ahead && !stream.at_device_end)) {
    request.arrival = sim_.now();  // parking time governs escalation
    PendingRequest* const node = request_slab_.acquire(std::move(request));
    // Sorted insert by offset; closed-loop arrivals are nearly in order, so
    // scanning from the tail is O(1) amortized.
    PendingRequest* pos = stream.pending.back();
    while (pos != nullptr && pos->req.offset > node->req.offset) {
      pos = PendingList::prev_of(*pos);
    }
    if (pos == nullptr) {
      stream.pending.push_front(*node);
    } else {
      stream.pending.insert_after(*pos, *node);
    }
    if (!inflight_covers) make_candidate(stream);
    pump();
    return;
  }

  // 3. Behind the prefetch cursor with no staged copy (reclaimed by GC, or
  //    past the device end): fall back to a direct device read. A streak of
  //    consecutive sequential fallbacks means the client rewound (e.g.
  //    looped playout) — re-aim the prefetch cursor at the new position.
  ++stats_.fallback_direct_reads;
  if (request.offset == stream.last_fallback_end) {
    ++stream.fallback_streak;
  } else {
    stream.fallback_streak = 1;
  }
  stream.last_fallback_end = request.offset + request.length;
  if (stream.fallback_streak >= 3) {
    stream.fallback_streak = 0;
    stream.prefetch_pos = stream.last_fallback_end;
    stream.served_upto = stream.last_fallback_end;
    stream.at_device_end = false;
  }
  devices_[stream.device]->submit(to_block_request(std::move(request)));
}

void StreamScheduler::make_candidate(Stream& stream) {
  if (stream.state == StreamState::kDispatched || stream.state == StreamState::kCandidate) {
    return;
  }
  const bool was = StagingArea::counts_as_buffered(stream);
  stream.state = StreamState::kCandidate;
  staging_.note_buffered(stream, was);
  dispatch_.push_back(stream);
}

void StreamScheduler::pump() {
  const std::uint32_t slots = params_.effective_dispatch_size();
  while (dispatch_.has_free_slot(slots) && dispatch_.has_candidates()) {
    if (!dispatch(dispatch_.pop_next())) {
      // Dispatch bounced on memory; retry later when buffers free up.
      break;
    }
  }
}

bool StreamScheduler::dispatch(Stream& stream) {
  assert(stream.state == StreamState::kCandidate);
  stream.state = StreamState::kDispatched;
  dispatch_.begin_residency();
  stream.issued_in_residency = 0;
  ++stream.stats.residencies;
  stream.dispatched_at = sim_.now();
  return issue_next(stream);
}

bool StreamScheduler::issue_next(Stream& stream) {
  assert(stream.state == StreamState::kDispatched);
  if (stream.issued_in_residency >= params_.requests_per_residency) {
    rotate_out(stream);
    return true;
  }
  const Bytes capacity = devices_[stream.device]->capacity();
  if (stream.prefetch_pos >= capacity) {
    stream.at_device_end = true;
    rotate_out(stream);
    return true;
  }
  const Bytes len = std::min<Bytes>(params_.read_ahead, capacity - stream.prefetch_pos);

  IoBuffer* raw = staging_.stage(stream, stream.prefetch_pos, len, sim_.now());
  if (raw == nullptr) {
    ++stats_.dispatch_stalls;
    if (tracer_ != nullptr) {
      tracer_->instant(obs::kSchedulerTrack, "scheduler", "dispatch_stall", sim_.now(),
                       "stream", static_cast<double>(stream.id));
    }
    const bool first_issue = stream.issued_in_residency == 0;
    // Leave the dispatch set; on a first-issue bounce go back to the head
    // of the candidate queue and stall the pump until memory frees.
    dispatch_.end_residency();
    ++stats_.rotations;
    stream.state = StreamState::kCandidate;
    if (first_issue) {
      dispatch_.push_front(stream);
    } else {
      dispatch_.push_back(stream);
    }
    return false;
  }

  const ByteOffset issue_offset = stream.prefetch_pos;
  stream.prefetch_pos += len;
  ++stream.issued_in_residency;
  ++stream.inflight;
  ++stream.stats.disk_reads;
  stream.stats.bytes_prefetched += len;
  ++stats_.disk_reads;
  stats_.bytes_prefetched += len;
  dispatch_.note_issue(stream.device, issue_offset + len);

  const StreamId sid = stream.id;
  const std::uint32_t dev = stream.device;
  cpu_.execute(cpu_.issue_cost(staging_.live_buffers()), [this, sid, dev, issue_offset,
                                                          len, data = raw->data()]() {
    blockdev::BlockRequest req;
    req.offset = issue_offset;
    req.length = len;
    req.op = IoOp::kRead;
    req.data = data;
    req.on_complete = [this, sid, issue_offset,
                       issued_at = sim_.now()](SimTime, IoStatus status) {
      on_read_complete(sid, issue_offset, issued_at, status);
    };
    devices_[dev]->submit(std::move(req));
  });
  return true;
}

void StreamScheduler::rotate_out(Stream& stream) {
  assert(stream.state == StreamState::kDispatched);
  dispatch_.end_residency();
  ++stats_.rotations;
  if (tracer_ != nullptr) {
    tracer_->complete(obs::stream_track(stream.id), "scheduler", "residency",
                      stream.dispatched_at, sim_.now(), "issued",
                      static_cast<double>(stream.issued_in_residency));
    tracer_->instant(obs::kSchedulerTrack, "scheduler", "rotation", sim_.now(), "stream",
                     static_cast<double>(stream.id));
  }
  // Streams with unmet demand re-enter the candidate queue (round-robin
  // tail); satisfied streams park in the buffered set.
  const bool unmet = std::any_of(
      stream.pending.begin(), stream.pending.end(), [&stream](const PendingRequest& p) {
        return !StagingArea::covers(stream.buffers, p.req.offset, p.req.length,
                                    /*filled_only=*/false);
      });
  if (unmet && !stream.at_device_end) {
    stream.state = StreamState::kCandidate;
    dispatch_.push_back(stream);
  } else {
    stream.state = StreamState::kBuffered;
    staging_.note_buffered(stream, /*was=*/false);  // was kDispatched
  }
}

void StreamScheduler::on_read_complete(StreamId stream_id, ByteOffset buffer_offset,
                                       SimTime issued_at, IoStatus status) {
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    // Completion for a stream already evicted and retired.
    pump();
    return;
  }
  Stream* stream = it->second.get();
  assert(stream->inflight > 0);
  --stream->inflight;

  if (!io_ok(status)) {
    ++stats_.prefetch_errors;
    if (tracer_ != nullptr) {
      tracer_->instant(obs::kSchedulerTrack, "scheduler", "prefetch_error", sim_.now(),
                       "device", static_cast<double>(stream->device));
    }
    // The failed read-ahead's buffer never received data; drop it. The
    // completion being delivered guarantees nothing below will write into
    // it anymore (ReliableDevice bounces abandoned attempts).
    staging_.drop_unfilled(*stream, buffer_offset);
    const std::uint32_t dev = stream->device;
    note_device_error(dev, status);  // may evict and retire `stream`
    const auto again = streams_.find(stream_id);
    if (again == streams_.end()) {
      pump();
      return;
    }
    stream = again->second.get();
  } else if (tracer_ != nullptr) {
    // Stage span: device submit -> data staged in the buffer pool. Emitted
    // as a complete ('X') event because stage spans from consecutive
    // residencies may overlap, which 'B'/'E' pairs cannot express.
    tracer_->complete(obs::stream_track(stream_id), "scheduler", "prefetch", issued_at,
                      sim_.now(), "offset_mb",
                      static_cast<double>(buffer_offset) / static_cast<double>(MiB));
  }

  if (stream->evicted) {
    // Zombie: parked only until in-flight completions drain.
    if (stream->inflight == 0) {
      staging_.release_all(*stream);
      retire_stream(stream_id);
    }
    pump();
    return;
  }

  if (io_ok(status)) {
    staging_.mark_filled(*stream, buffer_offset, sim_.now());
  }

  // Issue path first (paper §4.2): keep the disks fed before unwinding
  // completions.
  if (stream->state == StreamState::kDispatched) {
    issue_next(*stream);
  }
  pump();

  drain_pending(*stream);
  reap_buffers(*stream);
}

void StreamScheduler::note_device_error(std::uint32_t device, IoStatus status) {
  assert(device < device_errors_.size());
  if (device_errors_[device] >= params_.device_fail_threshold) return;  // known bad
  if (++device_errors_[device] < params_.device_fail_threshold) return;

  // The device just crossed the failure threshold: evict every stream bound
  // to it so healthy streams keep their dispatch slots and throughput
  // instead of the pump stalling behind a dead disk.
  LogMessage(LogLevel::kWarn, kLog, sim_.now())
      << "device " << device << " declared failed (" << to_string(status) << ")";
  if (tracer_ != nullptr) {
    tracer_->instant(obs::kSchedulerTrack, "scheduler", "device_failed", sim_.now(),
                     "device", static_cast<double>(device));
  }
  if (flight_ != nullptr) {
    flight_->record(obs::FlightCode::kDeviceFailed, sim_.now(), 0, device,
                    static_cast<std::uint64_t>(status));
  }
  std::vector<StreamId> victims;
  for (const auto& [id, s] : streams_) {
    if (s->device == device && !s->evicted) victims.push_back(id);
  }
  for (const StreamId id : victims) {
    const auto it = streams_.find(id);
    if (it != streams_.end()) evict_stream(*it->second, status);
  }
  pump();  // freed slots refill with streams on healthy devices
}

std::size_t StreamScheduler::failed_device_count() const {
  std::size_t n = 0;
  for (std::uint32_t d = 0; d < devices_.size(); ++d) {
    if (device_failed(d)) ++n;
  }
  return n;
}

void StreamScheduler::fail_request(ClientRequest& request, IoStatus status) {
  ++stats_.requests_failed;
  if (flight_ != nullptr) {
    flight_->record(obs::FlightCode::kRequestFailed, sim_.now(),
                    request.trace != nullptr ? request.trace->rid : 0, request.device,
                    static_cast<std::uint64_t>(status));
  }
  if (request.on_complete) request.on_complete(sim_.now(), status);
}

void StreamScheduler::evict_stream(Stream& stream, IoStatus status) {
  if (stream.evicted) return;
  const bool was = StagingArea::counts_as_buffered(stream);
  if (stream.state == StreamState::kDispatched) {
    dispatch_.end_residency();
  } else if (stream.state == StreamState::kCandidate) {
    dispatch_.remove(stream);
  }
  stream.state = StreamState::kIdle;
  stream.evicted = true;
  staging_.note_buffered(stream, was);
  ++stats_.streams_evicted;
  if (tracer_ != nullptr) {
    tracer_->instant(obs::kSchedulerTrack, "scheduler", "stream_evicted", sim_.now(),
                     "stream", static_cast<double>(stream.id));
  }
  if (flight_ != nullptr) {
    flight_->record(obs::FlightCode::kStreamEvicted, sim_.now(), 0, stream.device,
                    stream.id);
  }
  LogMessage(LogLevel::kWarn, kLog, sim_.now())
      << "stream " << stream.id << " evicted from dev " << stream.device << " ("
      << to_string(status) << ")";

  // Queued client requests will never be served from this stream: fail them
  // now rather than let them stall until the pending timeout.
  while (PendingRequest* node = stream.pending.pop_front()) {
    fail_request(node->req, status);
    request_slab_.release(node);
  }

  // Unclaim the range so fresh requests never match the zombie.
  index_.unclaim(stream.device, stream.range_start, stream.id);

  if (stream.inflight == 0) {
    // No completion can write into staged memory anymore: release it all.
    staging_.release_all(stream);
    retire_stream(stream.id);
    return;
  }
  // In-flight reads still hold pointers into unfilled materialized buffers;
  // those must survive until their completions drain (hung commands under a
  // disabled retry layer never complete — the zombie then lives until the
  // scheduler is torn down, which is bounded and harmless). Timing-only and
  // already-filled buffers carry no future writes and are freed now.
  staging_.drop_inert_buffers(stream);
}

void StreamScheduler::drain_pending(Stream& stream) {
  PendingRequest* node = stream.pending.front();
  while (node != nullptr) {
    PendingRequest* const next = PendingList::next_of(*node);
    if (StagingArea::covers(stream.buffers, node->req.offset, node->req.length,
                            /*filled_only=*/true)) {
      stream.pending.remove(*node);
      ClientRequest req = std::move(node->req);
      request_slab_.release(node);
      serve_request(stream, std::move(req));
    }
    node = next;
  }
}

void StreamScheduler::serve_request(Stream& stream, ClientRequest request) {
  if (request.trace != nullptr) request.trace->serve = sim_.now();
  staging_.consume(stream, request.offset, request.length, request.data, sim_.now(),
                   request.on_data, request.trace);
  const ByteOffset req_end = request.offset + request.length;
  if (req_end > stream.served_upto) stream.served_upto = req_end;
  stream.stats.bytes_served += request.length;
  stats_.bytes_served += request.length;
  ++stats_.client_completions;
  if (tracer_ != nullptr) {
    tracer_->instant(obs::stream_track(stream.id), "scheduler", "serve", sim_.now(),
                     "bytes", static_cast<double>(request.length));
  }
  if (flight_ != nullptr) {
    flight_->record(obs::FlightCode::kServe, sim_.now(),
                    request.trace != nullptr ? request.trace->rid : 0, stream.device,
                    request.length);
  }

  cpu_.execute(cpu_.complete_cost(staging_.live_buffers()),
               [cb = std::move(request.on_complete), this]() {
                 if (cb) cb(sim_.now());
               });
}

void StreamScheduler::reap_buffers(Stream& stream) {
  staging_.reap(stream);
  // Memory freed: streams stalled on allocation may proceed now.
  if (dispatch_.has_candidates()) pump();
}

void StreamScheduler::collect_garbage() {
  const SimTime now = sim_.now();
  const SimTime buffer_horizon =
      now > params_.buffer_timeout ? now - params_.buffer_timeout : 0;
  const SimTime stream_horizon =
      now > params_.stream_timeout ? now - params_.stream_timeout : 0;
  const SimTime pending_horizon =
      now > params_.pending_timeout ? now - params_.pending_timeout : 0;

  const std::uint64_t reclaimed_before = stats_.gc_buffers_reclaimed;
  std::vector<StreamId> dead;
  for (auto& [id, stream] : streams_) {
    // Escalate starved parked requests: under memory pressure a request
    // straddling a reclaimed/never-staged range would otherwise wait
    // forever (the cursor only moves forward). Anything parked longer than
    // the buffer timeout goes to the device directly.
    PendingRequest* node = stream->pending.front();
    while (node != nullptr) {
      PendingRequest* const next = PendingList::next_of(*node);
      if (node->req.arrival < pending_horizon) {
        stream->pending.remove(*node);
        ClientRequest req = std::move(node->req);
        request_slab_.release(node);
        ++stats_.fallback_direct_reads;
        ++stats_.escalated_reads;
        if (tracer_ != nullptr) {
          tracer_->instant(obs::kSchedulerTrack, "scheduler", "escalated_read",
                           sim_.now(), "stream", static_cast<double>(stream->id));
        }
        devices_[stream->device]->submit(to_block_request(std::move(req)));
      }
      node = next;
    }
    const StagingArea::ReclaimResult reclaimed =
        staging_.reclaim_expired(*stream, buffer_horizon);
    stats_.gc_buffers_reclaimed += reclaimed.buffers_reclaimed;
    stats_.gc_bytes_wasted += reclaimed.bytes_wasted;
    const bool inert = stream->state == StreamState::kIdle ||
                       stream->state == StreamState::kBuffered;
    if (inert && stream->inflight == 0 && stream->pending.empty() &&
        stream->buffers.empty() && stream->last_activity < stream_horizon) {
      dead.push_back(id);
    }
  }
  for (const StreamId id : dead) {
    ++stats_.gc_streams_retired;
    retire_stream(id);
  }
  if (tracer_ != nullptr && stats_.gc_buffers_reclaimed > reclaimed_before) {
    tracer_->instant(
        obs::kSchedulerTrack, "scheduler", "gc_reclaim", sim_.now(), "buffers",
        static_cast<double>(stats_.gc_buffers_reclaimed - reclaimed_before));
  }
  if (dispatch_.has_candidates()) pump();
}

void StreamScheduler::retire_stream(StreamId id) {
  const auto it = streams_.find(id);
  if (it == streams_.end()) return;
  Stream& s = *it->second;
  assert(s.inflight == 0 && s.pending.empty());
  staging_.on_retire(s);
  index_.unclaim(s.device, s.range_start, id);
  streams_.erase(it);
  ++stats_.streams_retired;
}

}  // namespace sst::core
