#include "workload/generator.hpp"

#include <algorithm>
#include <cassert>

#include "exec/execution_context.hpp"

namespace sst::workload {

namespace {
/// Delay before a closed-loop client re-issues after an error completion.
/// Must be > 0: rejections complete synchronously, and an inline re-issue
/// would spin without advancing simulated time.
constexpr SimTime kErrorRetryDelay = msec(10);
}  // namespace

StreamClient::StreamClient(exec::ExecutionContext& simulator, RequestSink sink, StreamSpec spec,
                           Bytes device_capacity)
    : sim_(simulator),
      sink_(std::move(sink)),
      spec_(spec),
      rng_(spec.seed),
      next_offset_(spec.start_offset) {
  assert(spec_.request_size > 0 && spec_.request_size % kSectorSize == 0);
  assert(spec_.stride_gap % kSectorSize == 0);
  assert(spec_.start_offset % kSectorSize == 0);
  assert(spec_.outstanding >= 1);
  region_end_ = spec_.region_bytes == 0 ? device_capacity
                                        : std::min<ByteOffset>(
                                              spec_.start_offset + spec_.region_bytes,
                                              device_capacity);
  assert(spec_.start_offset + spec_.request_size <= region_end_);
}

void StreamClient::start() {
  if (spec_.issue_period > 0) {
    paced_tick();
    return;
  }
  for (std::uint32_t i = 0; i < spec_.outstanding; ++i) issue_one();
}

void StreamClient::paced_tick() {
  if (spec_.num_requests != 0 && issued_total_ >= spec_.num_requests) return;
  if (in_flight_ < spec_.outstanding) {
    issue_one();
  } else {
    ++stalled_ticks_;
  }
  sim_.schedule_after(spec_.issue_period, [this]() { paced_tick(); });
}

void StreamClient::begin_measurement() {
  stats_.throughput.reset();
  stats_.latency.reset();
  stats_.completed = 0;
  stats_.errors = 0;
}

void StreamClient::issue_one() {
  if (spec_.num_requests != 0 && issued_total_ >= spec_.num_requests) return;
  // Wrap when the next request would cross the region end.
  if (next_offset_ + spec_.request_size > region_end_) {
    next_offset_ = spec_.start_offset;
  }
  core::ClientRequest req;
  req.id = ++issued_total_;
  req.device = spec_.device;
  req.offset = next_offset_;
  req.length = spec_.request_size;
  req.op = spec_.op;
  req.arrival = sim_.now();
  // Two words, trivially copyable: the closure fits std::function's inline
  // buffer, so issuing a request never allocates. The length is the spec's.
  req.on_complete = [this, issued_at = sim_.now()](SimTime, IoStatus status) {
    on_complete(issued_at, status);
  };
  next_offset_ += spec_.request_size + spec_.stride_gap;
  ++stats_.issued;
  ++in_flight_;
  sink_(std::move(req));
}

void StreamClient::on_complete(SimTime issued_at, IoStatus status) {
  if (io_ok(status)) {
    ++stats_.completed;
    stats_.throughput.add(spec_.request_size);
    stats_.latency.add(sim_.now() - issued_at);
  } else {
    // The closed loop keeps running on errors (a real client would skip or
    // re-request); failed requests just never count as useful work.
    ++stats_.errors;
  }
  --in_flight_;
  if (spec_.issue_period > 0) return;  // paced: the tick loop issues
  if (!io_ok(status)) {
    // Errors can complete synchronously (a server rejecting requests for a
    // failed device). Re-issuing inline would recurse without advancing sim
    // time; pace error recovery like a client noticing and backing off.
    sim_.schedule_after(kErrorRetryDelay + spec_.think_time,
                        [this]() { issue_one(); });
  } else if (spec_.think_time > 0 || spec_.think_jitter > 0) {
    sim_.schedule_after(think_delay(), [this]() { issue_one(); });
  } else {
    issue_one();
  }
}

SimTime StreamClient::think_delay() {
  SimTime delay = spec_.think_time;
  // Only jittered streams ever advance the generator, so jitter-free specs
  // behave identically whatever seed they carry.
  if (spec_.think_jitter > 0) delay += rng_.next_below(spec_.think_jitter + 1);
  return delay;
}

RandomClient::RandomClient(exec::ExecutionContext& simulator, RequestSink sink, std::uint32_t device,
                           Bytes device_capacity, Bytes request_size,
                           std::uint32_t outstanding, std::uint64_t seed)
    : sim_(simulator),
      sink_(std::move(sink)),
      device_(device),
      capacity_(device_capacity),
      request_size_(request_size),
      outstanding_(outstanding),
      rng_(seed) {
  assert(request_size_ > 0 && request_size_ % kSectorSize == 0);
  assert(capacity_ >= request_size_);
}

void RandomClient::start() {
  for (std::uint32_t i = 0; i < outstanding_; ++i) issue_one();
}

void RandomClient::begin_measurement() {
  stats_.throughput.reset();
  stats_.latency.reset();
  stats_.completed = 0;
  stats_.errors = 0;
}

void RandomClient::issue_one() {
  const std::uint64_t slots = (capacity_ - request_size_) / kSectorSize + 1;
  const ByteOffset offset = rng_.next_below(slots) * kSectorSize;
  core::ClientRequest req;
  req.id = ++stats_.issued;
  req.device = device_;
  req.offset = offset;
  req.length = request_size_;
  req.op = IoOp::kRead;
  req.arrival = sim_.now();
  const SimTime issued_at = sim_.now();
  req.on_complete = [this, issued_at](SimTime, IoStatus status) {
    if (io_ok(status)) {
      ++stats_.completed;
      stats_.throughput.add(request_size_);
      stats_.latency.add(sim_.now() - issued_at);
    } else {
      ++stats_.errors;
      sim_.schedule_after(kErrorRetryDelay, [this]() { issue_one(); });
      return;
    }
    issue_one();
  };
  sink_(std::move(req));
}

std::vector<StreamSpec> make_uniform_streams(std::uint32_t total_streams,
                                             std::uint32_t num_devices,
                                             Bytes device_capacity, Bytes request_size,
                                             std::uint32_t outstanding) {
  assert(total_streams >= 1 && num_devices >= 1);
  std::vector<StreamSpec> specs;
  specs.reserve(total_streams);
  const std::uint32_t per_device = (total_streams + num_devices - 1) / num_devices;
  // Sector-aligned spacing between neighbouring streams on one device.
  const Bytes spacing = (device_capacity / per_device) / kSectorSize * kSectorSize;
  for (std::uint32_t i = 0; i < total_streams; ++i) {
    StreamSpec spec;
    spec.device = i % num_devices;
    const std::uint32_t slot = i / num_devices;
    spec.start_offset = static_cast<ByteOffset>(slot) * spacing;
    spec.region_bytes = spacing;  // stay inside the slot; wrap if exhausted
    spec.request_size = request_size;
    spec.outstanding = outstanding;
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace sst::workload
