#include "probe.hpp"

#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

namespace sst::bench {

const char* span_name(Span kind) {
  switch (kind) {
    case Span::kClientSubmit: return "core.submit";
    case Span::kDeviceComplete: return "core.completion";
    case Span::kCoreTask: return "core.task";
    case Span::kClientComplete: return "workload.complete";
    case Span::kWorkloadTask: return "workload.task";
    case Span::kDeviceSubmit: return "blockdev.submit";
    case Span::kCheck: return "blockdev.check";
    case Span::kCount: break;
  }
  return "?";
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void SpanStats::merge(const SpanStats& other) {
  count += other.count;
  total_ns += other.total_ns;
  self_ns += other.self_ns;
  for (std::size_t i = 0; i < log2_ns.size(); ++i) log2_ns[i] += other.log2_ns[i];
}

void SpanRecorder::push(Span kind, std::uint64_t rid, bool sample) {
  stack_.push_back(Frame{kind, sample, rid, mono_ns(), 0});
}

void SpanRecorder::pop() {
  const std::uint64_t end = mono_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = end - frame.start_ns;
  const auto k = static_cast<std::size_t>(frame.kind);
  SpanStats& s = stats_[k];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur > frame.child_ns ? dur - frame.child_ns : 0;
  const auto bucket = static_cast<std::size_t>(std::bit_width(dur | 1) - 1);
  ++s.log2_ns[std::min(bucket, s.log2_ns.size() - 1)];
  if (!stack_.empty()) stack_.back().child_ns += dur;

  const bool keep = frame.rid != 0 ? frame.sample : seen_[k]++ % 256 == 0;
  if (keep && raw_.size() < kMaxRawSpans) {
    raw_.push_back(RawSpan{frame.kind, tid_, frame.start_ns, dur, frame.rid});
  }
}

void SpanRecorder::merge(const SpanRecorder& other) {
  for (std::size_t k = 0; k < kSpanKinds; ++k) stats_[k].merge(other.stats_[k]);
  const std::size_t room = kMaxRawSpans - std::min(kMaxRawSpans, raw_.size());
  const std::size_t take = std::min(room, other.raw_.size());
  raw_.insert(raw_.end(), other.raw_.begin(), other.raw_.begin() + static_cast<long>(take));
}

exec::TaskHandle TracingContext::schedule_at(SimTime when, exec::TaskFn fn) {
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.alive = true;
  s.fn = std::move(fn);
  const std::uint32_t generation = s.generation;
  s.inner = inner_.schedule_at(when, [this, slot, generation]() {
    if (!task_pending(slot, generation)) return;
    exec::TaskFn task = std::move(slots_[slot].fn);
    release(slot);  // not pending while it runs, like the inner contexts
    SpanScope scope(recorder_, kind_);
    task();
  });
  return make_handle(slot, generation);
}

bool TracingContext::task_pending(std::uint32_t slot, std::uint32_t generation) const {
  return slot < slots_.size() && slots_[slot].alive && slots_[slot].generation == generation;
}

void TracingContext::cancel_task(std::uint32_t slot, std::uint32_t generation) {
  if (!task_pending(slot, generation)) return;
  slots_[slot].inner.cancel();
  slots_[slot].fn.reset();
  release(slot);
}

void TracingContext::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.alive = false;
  ++s.generation;
  s.inner = exec::TaskHandle{};
  free_.push_back(slot);
}

void DeviceLedger::merge(const DeviceLedger& other) {
  submits += other.submits;
  bytes += other.bytes;
  inflight_sum += other.inflight_sum;
  io.merge(other.io);
  checked_reads += other.checked_reads;
  if (mismatches == 0) first_mismatch = other.first_mismatch;
  mismatches += other.mismatches;
}

void TimedDevice::submit(blockdev::BlockRequest request) {
  ++ledger_.submits;
  ledger_.bytes += request.length;
  ledger_.inflight_sum += in_flight_;
  ++in_flight_;
  const bool verify_read = check_ && request.op == IoOp::kRead && request.data != nullptr;
  request.on_complete = [this, issued = clock_.now(), verify_read, data = request.data,
                         offset = request.offset, length = request.length,
                         prev = std::move(request.on_complete)](SimTime done,
                                                                IoStatus status) {
    --in_flight_;
    ledger_.io.add(done >= issued ? done - issued : 0);
    if (verify_read && io_ok(status)) {
      SpanScope check(recorder_, Span::kCheck);
      verify(data, offset, length);
    }
    SpanScope scope(recorder_, Span::kDeviceComplete);
    if (prev) prev(done, status);
  };
  SpanScope scope(recorder_, Span::kDeviceSubmit);
  inner_.submit(std::move(request));
}

void TimedDevice::verify(const std::byte* data, ByteOffset offset, Bytes length) {
  const ByteOffset base = base_offset_ + offset;
  bool ok = true;
  auto check = [&](Bytes from, Bytes n) {
    ByteOffset bad = 0;
    if (!blockdev::check_pattern(seed_, base + from, data + from, n, &bad)) {
      if (ok && ledger_.mismatches == 0) {
        ledger_.first_mismatch = name() + ": read at file offset " + std::to_string(base) +
                                 " differs from the pattern at " + std::to_string(bad);
      }
      ok = false;
    }
  };
  if (reads_seen_++ % 256 == 0) {
    check(0, length);
  } else {
    const Bytes head = std::min<Bytes>(512, length);
    check(0, head);
    const Bytes tail = std::min<Bytes>(512, length - head);
    if (tail > 0) check(length - tail, tail);
  }
  ++ledger_.checked_reads;
  if (!ok) ++ledger_.mismatches;
}

bool write_chrome_trace(const std::string& path, const std::vector<RawSpan>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::uint64_t epoch = UINT64_MAX;
  for (const RawSpan& span : spans) epoch = std::min(epoch, span.start_ns);
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const RawSpan& span = spans[i];
    const std::string name = span_name(span.kind);
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": {\"rid\": %llu}}%s\n",
                 name.c_str(), layer.c_str(),
                 static_cast<double>(span.start_ns - epoch) / 1e3,
                 static_cast<double>(span.dur_ns) / 1e3, span.tid,
                 static_cast<unsigned long long>(span.rid), i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace sst::bench
