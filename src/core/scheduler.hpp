// The stream scheduler (paper §4.2-4.4), now a thin facade over the staged
// pipeline: a StreamIndex matches incoming requests to streams, the
// DispatchSet holds the at-most-D streams actively issuing R-sized
// read-ahead (each for N requests per residency, replaced by the configured
// DispatchPolicy), and the StagingArea owns the memory budget M and the
// buffered set of staged data that rotated-out streams leave behind until
// clients consume it or a timeout reclaims it. The facade keeps all
// cross-component orchestration: client requests are served from staged
// buffers when possible, and the completion path gives priority to the
// issue path so the disks never idle while completions drain.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/counters.hpp"
#include "common/slab.hpp"
#include "common/types.hpp"
#include "core/buffer_pool.hpp"
#include "core/dispatch_set.hpp"
#include "core/host_cpu.hpp"
#include "core/params.hpp"
#include "core/staging_area.hpp"
#include "core/stream.hpp"
#include "core/stream_index.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/tracer.hpp"
#include "exec/execution_context.hpp"

namespace sst::core {

struct SchedulerStats {
  std::uint64_t streams_created = 0;
  std::uint64_t streams_retired = 0;
  std::uint64_t disk_reads = 0;
  Bytes bytes_prefetched = 0;
  std::uint64_t client_completions = 0;
  Bytes bytes_served = 0;
  std::uint64_t buffer_hits = 0;        ///< requests served on arrival
  std::uint64_t rotations = 0;          ///< residency expirations
  std::uint64_t dispatch_stalls = 0;    ///< allocation failures at dispatch
  std::uint64_t gc_buffers_reclaimed = 0;
  Bytes gc_bytes_wasted = 0;            ///< staged-but-unread bytes reclaimed
  std::uint64_t gc_streams_retired = 0;
  std::uint64_t fallback_direct_reads = 0;  ///< served outside the cursor
  /// Parked requests that waited past the buffer timeout and were bailed
  /// out with a direct device read (memory-starvation escape hatch).
  std::uint64_t escalated_reads = 0;
  /// Read-ahead completions that reported failure (the retry hierarchy
  /// below the scheduler already gave up on them).
  std::uint64_t prefetch_errors = 0;
  /// Streams evicted from the dispatch/candidate/buffered sets because
  /// their backing device was declared failed.
  std::uint64_t streams_evicted = 0;
  /// Client requests completed with an error status (evicted stream or
  /// failed device fail-fast).
  std::uint64_t requests_failed = 0;
  /// Exported as scheduler.*.
  static constexpr counters::Counter<SchedulerStats> kCounters[] = {
      {"streams_created", &SchedulerStats::streams_created},
      {"streams_retired", &SchedulerStats::streams_retired},
      {"disk_reads", &SchedulerStats::disk_reads},
      {"bytes_prefetched", &SchedulerStats::bytes_prefetched},
      {"client_completions", &SchedulerStats::client_completions},
      {"bytes_served", &SchedulerStats::bytes_served},
      {"buffer_hits", &SchedulerStats::buffer_hits},
      {"rotations", &SchedulerStats::rotations},
      {"dispatch_stalls", &SchedulerStats::dispatch_stalls},
      {"gc_buffers_reclaimed", &SchedulerStats::gc_buffers_reclaimed},
      {"gc_bytes_wasted", &SchedulerStats::gc_bytes_wasted},
      {"gc_streams_retired", &SchedulerStats::gc_streams_retired},
      {"fallback_direct_reads", &SchedulerStats::fallback_direct_reads},
      {"escalated_reads", &SchedulerStats::escalated_reads},
      {"prefetch_errors", &SchedulerStats::prefetch_errors},
      {"streams_evicted", &SchedulerStats::streams_evicted},
      {"requests_failed", &SchedulerStats::requests_failed},
  };
};

class StreamScheduler {
 public:
  /// Devices are indexed by position; they must outlive the scheduler. The
  /// params must validate(). The periodic GC arms itself on first use.
  StreamScheduler(exec::ExecutionContext& simulator,
                  std::vector<blockdev::BlockDevice*> devices, SchedulerParams params);
  ~StreamScheduler();
  StreamScheduler(const StreamScheduler&) = delete;
  StreamScheduler& operator=(const StreamScheduler&) = delete;

  /// Find the stream that claims `offset` on `device`, or nullptr.
  /// One predecessor search in the per-device interval map — O(log n).
  [[nodiscard]] Stream* find_stream(std::uint32_t device, ByteOffset offset);

  /// Create a stream from a classifier detection: read-ahead will start at
  /// `detection_end` (data before it was already served directly).
  Stream& create_stream(std::uint32_t device, ByteOffset range_start,
                        ByteOffset detection_end);

  /// Hand a client request to a stream (the request's offset must lie in
  /// the stream's range). Serves it from staged data when possible,
  /// otherwise queues it and schedules the stream for dispatch.
  void enqueue(Stream& stream, ClientRequest request);

  /// Run the issue path: fill free dispatch slots from the candidates.
  void pump();

  /// One GC sweep (also runs periodically): reclaim timed-out staged
  /// buffers and dismantle dead streams. Exposed for tests.
  void collect_garbage();

  /// Attach a per-experiment tracer (nullptr detaches). Every trace site is
  /// one null check when detached; the tracer must outlive the scheduler.
  void set_tracer(obs::Tracer* tracer);

  /// Attach a flight recorder journaling serve/fail/evict/device-failure
  /// events (nullptr detaches). Must outlive the scheduler.
  void set_flight_recorder(obs::FlightRecorder* flight) { flight_ = flight; }

  [[nodiscard]] const SchedulerParams& params() const { return params_; }
  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }
  [[nodiscard]] const BufferPool& pool() const { return staging_.pool(); }
  [[nodiscard]] BufferPool& pool() { return staging_.pool(); }
  [[nodiscard]] const StagingStats& staging_stats() const { return staging_.stats(); }
  [[nodiscard]] HostCpu& cpu() { return cpu_; }
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }
  [[nodiscard]] std::size_t dispatched_count() const {
    return dispatch_.dispatched_count();
  }
  [[nodiscard]] std::size_t candidate_count() const {
    return dispatch_.candidate_count();
  }
  /// Streams holding staged data while not dispatched (the buffered set).
  /// Maintained incrementally at every state/buffer transition, so the
  /// query is O(1) even with thousands of streams.
  [[nodiscard]] std::size_t buffered_count() const;
  [[nodiscard]] const Stream* stream_by_id(StreamId id) const;

  /// Device health as seen from the host: a device whose read-aheads keep
  /// failing after the full retry hierarchy is declared failed; its streams
  /// are evicted (pending requests complete with an error) so healthy
  /// streams keep their dispatch slots and throughput.
  [[nodiscard]] bool device_failed(std::uint32_t device) const {
    return device < device_errors_.size() &&
           device_errors_[device] >= params_.device_fail_threshold;
  }
  [[nodiscard]] std::size_t failed_device_count() const;

 private:
  /// Move a stream into the candidate queue if not already scheduled.
  void make_candidate(Stream& stream);
  /// Give `stream` a dispatch slot and start its residency. Returns false
  /// when the first issue bounced on memory and the stream fell back to the
  /// head of the candidate queue — the pump must stall until buffers free.
  bool dispatch(Stream& stream);
  /// Issue the stream's next R-sized read, or rotate it out when its
  /// residency expired / memory ran out / the device is exhausted. Returns
  /// false only on a memory bounce (allocation failure sent the stream back
  /// to the candidate queue); rotations and successful issues return true.
  bool issue_next(Stream& stream);
  /// End the stream's residency; staged data remains in the buffered set.
  void rotate_out(Stream& stream);
  /// `issued_at` is when the read-ahead hit the device (traced as the
  /// prefetch span's start; 0 before the first trace-aware issue).
  void on_read_complete(StreamId stream_id, ByteOffset buffer_offset,
                        SimTime issued_at, IoStatus status);
  /// Record a failed read-ahead against the device; past the threshold the
  /// device is declared failed and every stream on it is evicted.
  void note_device_error(std::uint32_t device, IoStatus status);
  /// Remove the stream from whichever set holds it, fail its pending
  /// requests with `status`, release its staged data, and retire it (or
  /// park it as an inert zombie until in-flight completions drain).
  void evict_stream(Stream& stream, IoStatus status);
  /// Complete `request` with a failure status (counted in requests_failed).
  void fail_request(ClientRequest& request, IoStatus status);
  /// Serve every pending request that staged data now covers.
  void drain_pending(Stream& stream);
  /// Serve one request from the staged buffers covering it (CPU-charged
  /// completion; copies data when both sides are materialized).
  void serve_request(Stream& stream, ClientRequest request);
  /// Release fully consumed buffers; drop empty buffered streams from the
  /// buffered set.
  void reap_buffers(Stream& stream);
  void retire_stream(StreamId id);
  void arm_gc();

  /// A read-ahead between issue and completion: what the completion needs
  /// to find its stream and buffer again. Pooled, so the device completion
  /// captures one pointer and fits std::function's inline buffer.
  struct ReadAhead {
    StreamId stream = kInvalidStream;
    ByteOffset offset = 0;
    SimTime issued_at = 0;  ///< when the read-ahead reached the device
  };

  exec::ExecutionContext& sim_;
  std::vector<blockdev::BlockDevice*> devices_;
  SchedulerParams params_;
  StagingArea staging_;
  HostCpu cpu_;
  DispatchSet dispatch_;
  StreamIndex index_;
  /// Pooled slots for parked client requests (streams link them into their
  /// pending lists); recycled without allocation once warm.
  RequestSlab request_slab_;
  /// Pooled read-ahead records, recycled without allocation once warm.
  Slab<ReadAhead> read_aheads_;

  std::map<StreamId, std::unique_ptr<Stream>> streams_;
  /// Failed read-ahead count per device; >= device_fail_threshold = failed.
  std::vector<std::uint32_t> device_errors_;
  StreamId next_stream_id_ = 1;
  exec::TaskHandle gc_event_;
  SchedulerStats stats_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace sst::core
