// sst_bench: the end-to-end benchmark driver.
//
//   sst_bench --prepare FILE
//       Write the real workloads' backing file (1 GiB of the seed-0 content
//       pattern), fsync it and read it back so it is page-cached. Refuses
//       tmpfs, where io_uring hands buffered reads to io-wq worker threads.
//
//   sst_bench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//             [--file BACKING] [--trace-out FILE] [--smoke]
//       Run one workload. Untraced (--trace 0): run_experiment repeated on
//       the workload's fixed window for S seconds, with short set-up calls
//       before every repetition (5% of the run); reports the end-to-end
//       metrics. Traced (--trace 1): the same experiment assembled with
//       layer-boundary probes (cell.cpp), repeated for S seconds; reports
//       the per-layer metrics and writes the sampled spans as Chrome Trace
//       JSON. --smoke uses the workloads' short windows and one repetition.
//
// Writes a JSON report to --out; exits 1 when a correctness check fails,
// 2 on bad usage or an unusable environment.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blockdev/block_device.hpp"
#include "cell.hpp"
#include "experiment/runner.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace sst;        // NOLINT(google-build-using-namespace)
using namespace sst::bench;  // NOLINT(google-build-using-namespace)

/// Set-up calls per untraced run, at least.
constexpr std::size_t kSetupCalls = 5;
/// Share of an untraced run its set-up calls take. Before each repetition
/// the run makes set-up calls until they have taken this share of the time
/// so far: hundreds of calls on the workloads that set up in milliseconds,
/// whose single calls vary by half.
constexpr double kSetupShare = 0.05;
/// Untraced 1-shard/2-shard pairs a traced sim run times.
constexpr std::size_t kShardPairs = 5;

struct Options {
  std::string prepare;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string file;
  std::string out;
  std::string trace_out;
  bool smoke = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "sst_bench: %s\n", message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--prepare") {
      opt.prepare = value();
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(value().c_str());
    } else if (arg == "--file") {
      opt.file = value();
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  return opt;
}

// ----------------------------------------------------------- host probes --

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// User + system CPU of the whole process (every thread, exited ones
/// included), nanoseconds.
std::uint64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs{};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(fs.f_type));
  return hex;
}

std::string parent_dir(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  return parent.empty() ? "." : parent.string();
}

// ------------------------------------------------------ the backing file --

int prepare(const std::string& path) {
  const std::string fs = filesystem_type(parent_dir(path));
  if (fs == "tmpfs") {
    std::fprintf(stderr,
                 "sst_bench: refusing to place %s on tmpfs: io_uring hands buffered tmpfs "
                 "reads to io-wq kernel worker threads, which adds threads and CPU the "
                 "real workloads are not meant to measure; use a disk-backed directory\n",
                 path.c_str());
    return 2;
  }
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "sst_bench: cannot create %s: %s\n", tmp.c_str(), std::strerror(errno));
    return 2;
  }
  constexpr Bytes kChunk = 8 * MiB;
  std::vector<std::byte> chunk(kChunk);
  for (Bytes offset = 0; offset < kBackingBytes; offset += kChunk) {
    blockdev::fill_pattern(kBackingSeed, offset, chunk.data(), kChunk);
    Bytes done = 0;
    while (done < kChunk) {
      const ssize_t n = ::pwrite(fd, chunk.data() + done, kChunk - done,
                                 static_cast<off_t>(offset + done));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        std::fprintf(stderr, "sst_bench: write to %s failed: %s\n", tmp.c_str(),
                     std::strerror(errno));
        ::close(fd);
        return 2;
      }
      done += static_cast<Bytes>(n);
    }
  }
  // fsync waits for writeback, so later runs do not share the disk with it.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    std::fprintf(stderr, "sst_bench: fsync of %s failed: %s\n", tmp.c_str(), std::strerror(errno));
    return 2;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "sst_bench: cannot rename %s: %s\n", tmp.c_str(), std::strerror(errno));
    return 2;
  }
  return 0;
}

/// Read the whole file once (so it is page-cached before timing) and check
/// its size and a few blocks of its content. Returns an error message, or
/// an empty string when the file is usable.
std::string warm_backing_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return "cannot open " + path + ": " + std::strerror(errno);
  std::error_code ec;
  if (std::filesystem::file_size(path, ec) != kBackingBytes || ec) {
    ::close(fd);
    return path + " is not the " + std::to_string(kBackingBytes) + "-byte backing file";
  }
  // A chunk below glibc's default mmap threshold: a larger one would count
  // in the process's peak RSS and raise the threshold the program's own
  // allocations then meet.
  constexpr Bytes kChunk = 64 * KiB;
  std::vector<std::byte> chunk(kChunk);
  std::string error;
  for (Bytes offset = 0; offset < kBackingBytes && error.empty(); offset += kChunk) {
    const ssize_t n = ::pread(fd, chunk.data(), kChunk, static_cast<off_t>(offset));
    if (n != static_cast<ssize_t>(kChunk)) {
      error = "short read from " + path;
    } else if (offset % (128 * MiB) == 0 &&
               !blockdev::check_pattern(kBackingSeed, offset, chunk.data(), 4096)) {
      error = path + " does not hold the seed-0 content pattern at " + std::to_string(offset);
    }
  }
  ::close(fd);
  return error;
}

// ------------------------------------------------------------- reporting --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

class Report {
 public:
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void extra(std::string name, double value) { extras_.push_back({std::move(name), value, ""}); }
  /// Per-repetition values, kept in the record for offline analysis.
  void series(std::string name, std::vector<double> values) {
    series_.emplace_back(std::move(name), std::move(values));
  }
  /// Repeated checks (one per repetition) keep one entry: the first
  /// failure, else the first pass.
  void check(std::string name, bool ok, std::string detail = "") {
    for (Check& c : checks_) {
      if (c.name != name) continue;
      if (c.ok && !ok) c = {std::move(name), ok, std::move(detail)};
      return;
    }
    checks_.push_back({std::move(name), ok, std::move(detail)});
  }
  [[nodiscard]] bool all_ok() const {
    return std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
  }
  void set_spans(const SpanRecorder& spans) { spans_ = spans.stats(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reps = 0;
  ModelOutputs model;

  bool write(const std::string& path, const Options& opt) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"trace\": %d,\n",
                 opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace);
    std::fprintf(out, "  \"smoke\": %s,\n  \"reps\": %llu,\n", opt.smoke ? "true" : "false",
                 static_cast<unsigned long long>(reps));
    std::fprintf(out, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    std::fprintf(out,
                 "  \"model\": {\"total_mbps\": %.17g, \"min_stream_mbps\": %.17g, "
                 "\"write_mbps\": %.17g, \"p50_ms\": %.17g, \"p99_ms\": %.17g, "
                 "\"p999_ms\": %.17g, \"requests_completed\": %llu},\n",
                 model.total_mbps, model.min_stream_mbps, model.write_mbps, model.p50_ms,
                 model.p99_ms, model.p999_ms,
                 static_cast<unsigned long long>(model.requests_completed));
    std::fprintf(out, "  \"checks\": [");
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      std::fprintf(out, "%s\n    {\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                   i ? "," : "", checks_[i].name.c_str(), checks_[i].ok ? "true" : "false",
                   escape(checks_[i].detail).c_str());
    }
    std::fprintf(out, "\n  ],\n  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? "," : "",
                   metrics_[i].name.c_str(), finite(metrics_[i].value),
                   metrics_[i].unit.c_str());
    }
    std::fprintf(out, "\n  },\n  \"extra\": {");
    for (std::size_t i = 0; i < extras_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": %.17g", i ? "," : "", extras_[i].name.c_str(),
                   finite(extras_[i].value));
    }
    std::fprintf(out, "\n  },\n  \"series\": {");
    for (std::size_t i = 0; i < series_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": [", i ? "," : "", series_[i].first.c_str());
      for (std::size_t j = 0; j < series_[i].second.size(); ++j) {
        std::fprintf(out, "%s%.17g", j ? ", " : "", finite(series_[i].second[j]));
      }
      std::fprintf(out, "]");
    }
    std::fprintf(out, "\n  },\n  \"spans\": {");
    bool first = true;
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      const SpanStats& s = spans_[k];
      if (s.count == 0) continue;
      std::fprintf(out, "%s\n    \"%s\": {\"count\": %llu, \"total_ns\": %llu, \"self_ns\": %llu, "
                   "\"log2_ns\": [",
                   first ? "" : ",", span_name(static_cast<Span>(k)),
                   static_cast<unsigned long long>(s.count),
                   static_cast<unsigned long long>(s.total_ns),
                   static_cast<unsigned long long>(s.self_ns));
      for (std::size_t b = 0; b < s.log2_ns.size(); ++b) {
        std::fprintf(out, "%s%llu", b ? ", " : "", static_cast<unsigned long long>(s.log2_ns[b]));
      }
      std::fprintf(out, "]}");
      first = false;
    }
    std::fprintf(out, "\n  },\n  \"host\": {\"backing_fs\": \"%s\", \"build_type\": \"%s\", "
                 "\"uring\": %s}\n}\n",
                 opt.file.empty() ? "none" : filesystem_type(parent_dir(opt.file)).c_str(),
                 SST_BENCH_BUILD_TYPE,
                 experiment::real_backend_available() ? "true" : "false");
    return std::fclose(out) == 0;
  }

 private:
  static double finite(double v) { return std::isfinite(v) ? v : 0.0; }
  static std::string escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c == '\n' ? ' ' : c);
    }
    return out;
  }

  std::vector<Metric> metrics_;
  std::vector<Metric> extras_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
  std::array<SpanStats, kSpanKinds> spans_{};
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------- the checks --

/// Checks every repetition shares: nothing failed, every scheduler stream
/// was detected, no device error.
void check_outcome(Report& report, const Workload& w, const experiment::ExperimentConfig& cfg,
                   const experiment::ExperimentResult& r) {
  report.check("requests_completed", r.requests_completed > 0,
               std::to_string(r.requests_completed) + " requests");
  report.check("client_errors_zero", r.client_errors == 0,
               std::to_string(r.client_errors) + " failed client requests");
  report.check("every_stream_progressed", r.min_stream_mbps > 0.0);
  if (cfg.scheduler.has_value()) {
    report.check("streams_detected", r.scheduler_stats.streams_created == w.streams,
                 std::to_string(r.scheduler_stats.streams_created) + " detected of " +
                     std::to_string(w.streams));
  }
  if (r.uring_summary.enabled) {
    report.check("uring_errors_zero", r.uring_summary.errors == 0,
                 std::to_string(r.uring_summary.errors) + " ring errors");
  }
}

// --------------------------------------------------------- untraced run --

/// Requests per host second. Real workloads: the measured window's
/// throughput. Sim workloads: how fast the simulator completes simulated
/// requests — window requests over the wall time of the whole call.
double requests_per_second(const Workload& w, const experiment::ExperimentConfig& cfg,
                           std::uint64_t requests, double call_wall_s) {
  const double window_s = to_seconds(cfg.measure);
  return static_cast<double>(requests) / (w.real ? window_s : call_wall_s);
}

/// One set-up measurement: a call that builds the cell, runs 1 ms and
/// tears it down. Seconds.
double time_setup(const Options& opt, const Workload& w) {
  experiment::ExperimentConfig cfg = make_config(w, opt.seed, msec(1), opt.file);
  cfg.warmup = 0;
  const std::uint64_t start = mono_ns();
  (void)experiment::run_experiment(cfg);
  return static_cast<double>(mono_ns() - start) / 1e9;
}

void run_untraced(const Options& opt, const Workload& w, SimTime window, Report& report) {
  // Set-up calls interleave with the repetitions, so their median spans
  // the run rather than one moment of it.
  std::vector<double> setups, req_per_s, cpu_ns, p50, p99, p999;
  double setup_total_s = 0.0;
  stats::LatencyHistogram latency;
  double measured_s = 0.0;
  double cpu_total = 0.0;
  double window_total_s = 0.0;
  std::uint64_t requests_total = 0;
  // Peak RSS through the first set-up call and repetition: the workload's
  // footprint. Each later call in the same process adds a varying amount of
  // heap fragmentation (up to 3 MB over a real_raw run), which is the
  // allocator's, not the workload's.
  double rss_mb = 0.0;
  const std::uint64_t start = mono_ns();
  auto elapsed_s = [start] { return static_cast<double>(mono_ns() - start) / 1e9; };
  // A repetition starts only if it should end within --seconds, judging by
  // the last one, so a run takes --seconds and not up to a repetition more.
  double last_s = 0.0;
  while (report.reps == 0 || (!opt.smoke && elapsed_s() + last_s <= opt.seconds)) {
    const double begin_s = elapsed_s();
    do {
      setups.push_back(time_setup(opt, w));
      setup_total_s += setups.back();
    } while (setup_total_s < kSetupShare * begin_s);
    const experiment::ExperimentConfig cfg = make_config(w, opt.seed, window, opt.file);
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t wall0 = mono_ns();
    const experiment::ExperimentResult r = experiment::run_experiment(cfg);
    const double wall_s = static_cast<double>(mono_ns() - wall0) / 1e9;
    const double cpu = static_cast<double>(process_cpu_ns() - cpu0);
    measured_s += wall_s;
    last_s = elapsed_s() - begin_s;
    cpu_total += cpu;
    window_total_s += to_seconds(cfg.measure);
    requests_total += r.requests_completed;
    latency.merge(r.latency);

    const ModelOutputs model = model_outputs(cfg, r);
    if (report.reps == 0) {
      rss_mb = peak_rss_mb();
      report.model = model;
    } else if (!w.real) {
      report.check("sim_reps_identical", model == report.model,
                   "a repeated simulation gave different model outputs");
    }
    check_outcome(report, w, cfg, r);
    ++report.reps;
    report.attempted += r.requests_completed + r.client_errors;
    report.failed += r.client_errors;

    req_per_s.push_back(requests_per_second(w, cfg, r.requests_completed, wall_s));
    cpu_ns.push_back(ratio(cpu, static_cast<double>(r.requests_completed)));
    p50.push_back(r.latency.p50_ms());
    p99.push_back(r.latency.p99_ms());
    p999.push_back(r.latency.p999_ms());
  }
  while (setups.size() < kSetupCalls) setups.push_back(time_setup(opt, w));

  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", rss_mb, "MB");
  if (w.real) {
    // Real workloads pool their few long repetitions: the requests of every
    // window over the windows' length, the CPU of every call over its
    // requests, the latency of every request. A call's set-up and
    // first-touch costs are then a small share of its CPU, and a short
    // stall a small share of its latency samples.
    report.metric("req_per_s", ratio(static_cast<double>(requests_total), window_total_s), "1/s");
    report.metric("cpu_ns_per_req", ratio(cpu_total, static_cast<double>(requests_total)), "ns");
    report.metric("p50_ms", latency.p50_ms(), "ms");
    report.metric("p99_ms", latency.p99_ms(), "ms");
  } else {
    // Sim workloads report the run's best repetition. Neighbours on a
    // shared host slow a process down for seconds at a time; the best of
    // many short repetitions is the least disturbed one, and it varies about
    // half as much from run to run as the median repetition does
    // (README.md, "Sizing findings"). Their latencies are model outputs.
    report.metric("req_per_s", *std::max_element(req_per_s.begin(), req_per_s.end()), "1/s");
    report.metric("cpu_ns_per_req", *std::min_element(cpu_ns.begin(), cpu_ns.end()), "ns");
    report.metric("p50_ms", *std::min_element(p50.begin(), p50.end()), "ms");
    report.metric("p99_ms", *std::min_element(p99.begin(), p99.end()), "ms");
  }
  report.extra("latency_samples", static_cast<double>(latency.count()));
  report.extra("measured_s", measured_s);
  report.series("setup_s", std::move(setups));
  report.series("req_per_s", std::move(req_per_s));
  report.series("cpu_ns_per_req", std::move(cpu_ns));
  report.series("p50_ms", std::move(p50));
  report.series("p99_ms", std::move(p99));
  report.series("p999_ms", std::move(p999));
}

// ----------------------------------------------------------- traced run --

/// Per-layer counters summed over the traced repetitions.
struct TraceTotals {
  SpanRecorder spans{0};
  DeviceLedger devices;
  stats::LatencyHistogram issue_to_done;
  experiment::ExperimentResult sums;  ///< counters summed field by field
  std::uint64_t run_cpu_ns = 0;
  std::uint64_t run_wall_ns = 0;
  std::uint64_t events = 0;
  double disk_busy_share_sum = 0.0;
  std::vector<double> setup_devices_ms, setup_server_ms, setup_clients_ms;
  std::vector<double> hostcpu, min_share, req_per_s, cpu_ns;
  double cpu_total = 0.0;
  double window_total_s = 0.0;
  std::uint64_t requests_total = 0;
};

void accumulate(TraceTotals& t, const CellReport& c, std::uint32_t disks) {
  const experiment::ExperimentResult& r = c.result;
  t.spans.merge(c.spans);
  t.devices.merge(c.devices);
  t.issue_to_done.merge(c.issue_to_done);
  t.run_cpu_ns += c.run_cpu_ns;
  t.run_wall_ns += c.run_wall_ns;
  t.events += c.events;
  t.setup_devices_ms.push_back(c.setup_devices_ms);
  t.setup_server_ms.push_back(c.setup_server_ms);
  t.setup_clients_ms.push_back(c.setup_clients_ms);
  t.hostcpu.push_back(r.host_cpu_utilization);
  const double mean = ratio(r.total_mbps, static_cast<double>(r.stream_mbps.size()));
  t.min_share.push_back(ratio(r.min_stream_mbps, mean));

  experiment::ExperimentResult& s = t.sums;
  s.scheduler_stats.buffer_hits += r.scheduler_stats.buffer_hits;
  s.scheduler_stats.fallback_direct_reads += r.scheduler_stats.fallback_direct_reads;
  s.scheduler_stats.bytes_prefetched += r.scheduler_stats.bytes_prefetched;
  s.scheduler_stats.gc_bytes_wasted += r.scheduler_stats.gc_bytes_wasted;
  s.scheduler_stats.streams_created = r.scheduler_stats.streams_created;
  s.server_stats.requests += r.server_stats.requests;
  s.uring_summary.submitted += r.uring_summary.submitted;
  s.uring_summary.fixed_buffer_ops += r.uring_summary.fixed_buffer_ops;
  s.uring_summary.enter_syscalls += r.uring_summary.enter_syscalls;
  s.uring_summary.flush_batches += r.uring_summary.flush_batches;
  s.uring_summary.sqes_flushed += r.uring_summary.sqes_flushed;
  s.reactor_summary.wakeups += r.reactor_summary.wakeups;
  s.reactor_summary.timer_wakeups += r.reactor_summary.timer_wakeups;
  s.disk_totals.commands += r.disk_totals.commands;
  s.disk_totals.cache_hits += r.disk_totals.cache_hits;
  s.disk_totals.cache_misses += r.disk_totals.cache_misses;
  s.controller_totals.cache_hits += r.controller_totals.cache_hits;
  s.controller_totals.cache_misses += r.controller_totals.cache_misses;
  if (disks > 0 && c.elapsed > 0) {
    t.disk_busy_share_sum += static_cast<double>(r.disk_totals.busy_time) /
                             (static_cast<double>(disks) * static_cast<double>(c.elapsed));
  }
}

/// The sharded engine's cost: wall time of the experiment on 2 shards over
/// its time on the single-threaded engine, median of alternating untraced
/// pairs. Reported per layer, not gated: the shard barrier wakes a thread
/// per window, and on a shared host those wake-ups make its timings vary
/// several times more than single-threaded ones (README.md).
double shard_slowdown(const Options& opt, const Workload& w, SimTime window, Report& report,
                      double& measured_s) {
  std::vector<double> ratios;
  for (std::size_t pair = 0; pair < (opt.smoke ? 1U : kShardPairs); ++pair) {
    double wall[2] = {0.0, 0.0};
    for (const std::uint32_t shards : {1U, 2U}) {
      experiment::ExperimentConfig cfg = make_config(w, opt.seed, window, opt.file);
      cfg.shards = shards;
      const std::uint64_t start = mono_ns();
      const experiment::ExperimentResult r = experiment::run_experiment(cfg);
      wall[shards - 1] = static_cast<double>(mono_ns() - start) / 1e9;
      measured_s += wall[shards - 1];
      report.check("sharded_engine_ran", r.shard_summary.shards == shards &&
                                             r.requests_completed > 0 && r.client_errors == 0,
                   "the " + std::to_string(shards) + "-shard run failed or did not shard");
    }
    ratios.push_back(wall[1] / wall[0]);
  }
  return median(ratios);
}

void run_traced_reps(const Options& opt, const Workload& w, SimTime window, Report& report) {
  // A traced sim run must reproduce the untraced model exactly: run the
  // untraced experiment once for reference.
  std::optional<ModelOutputs> reference;
  double measured_s = 0.0;
  double slowdown = 0.0;
  if (!w.real) {
    const experiment::ExperimentConfig cfg = make_config(w, opt.seed, window, opt.file);
    reference = model_outputs(cfg, experiment::run_experiment(cfg));
  }
  if (w.times_sharding) slowdown = shard_slowdown(opt, w, window, report, measured_s);

  TraceTotals t;
  std::uint32_t disks = 0;
  double last_s = 0.0;  // as in the untraced run: end within --seconds
  while (report.reps == 0 || (!opt.smoke && measured_s + last_s <= opt.seconds)) {
    const experiment::ExperimentConfig cfg = make_config(w, opt.seed, window, opt.file);
    disks = w.real ? 0 : cfg.topology.node.total_disks();
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t wall0 = mono_ns();
    const CellReport c = run_traced(cfg);
    const double wall_s = static_cast<double>(mono_ns() - wall0) / 1e9;
    const double cpu = static_cast<double>(process_cpu_ns() - cpu0);
    measured_s += wall_s;
    last_s = wall_s;

    if (report.reps == 0) report.model = c.model;
    if (reference.has_value()) {
      report.check("traced_matches_untraced", c.model == *reference,
                   "the traced run changed the model outputs");
    }
    check_outcome(report, w, cfg, c.result);
    report.check("integrity_mismatches_zero", c.devices.mismatches == 0,
                 c.devices.first_mismatch);
    ++report.reps;
    report.attempted += c.result.requests_completed + c.result.client_errors;
    report.failed += c.result.client_errors + c.devices.mismatches;
    t.req_per_s.push_back(requests_per_second(w, cfg, c.result.requests_completed, wall_s));
    t.cpu_ns.push_back(ratio(cpu, static_cast<double>(c.result.requests_completed)));
    t.cpu_total += cpu;
    t.window_total_s += to_seconds(cfg.measure);
    t.requests_total += c.result.requests_completed;
    accumulate(t, c, disks);
  }

  const auto& st = t.spans.stats();
  auto self = [&st](Span k) { return static_cast<double>(st[static_cast<std::size_t>(k)].self_ns); };
  auto count = [&st](Span k) { return static_cast<double>(st[static_cast<std::size_t>(k)].count); };
  double self_all = 0.0;
  for (const SpanStats& s : st) self_all += static_cast<double>(s.self_ns);
  // Per-request base: client requests the probe submitted over the whole
  // run (warm-up included, like the spans and the run CPU). Submissions,
  // not completions: short windows end with every stream's request in
  // flight, and its device work is already counted.
  const double n = count(Span::kClientSubmit);
  const double core_self = self(Span::kClientSubmit) + self(Span::kDeviceComplete) + self(Span::kCoreTask);
  const double run_cpu = static_cast<double>(t.run_cpu_ns);
  const double residual = run_cpu - self_all;
  const experiment::ExperimentResult& s = t.sums;

  report.metric("workload.requests", n, "count");
  report.metric("workload.complete_self_ns",
                ratio(self(Span::kClientComplete) + self(Span::kWorkloadTask), n), "ns");
  report.metric("workload.issue_to_done_p50_ms", t.issue_to_done.p50_ms(), "ms");
  report.metric("workload.issue_to_done_p99_ms", t.issue_to_done.p99_ms(), "ms");
  report.metric("workload.min_stream_share", median(t.min_share), "ratio");

  report.metric("core.self_ns_per_req", ratio(core_self, n), "ns");
  report.metric("core.submit_share", ratio(self(Span::kClientSubmit), core_self), "ratio");
  report.metric("core.completion_share", ratio(self(Span::kDeviceComplete), core_self), "ratio");
  report.metric("core.task_share", ratio(self(Span::kCoreTask), core_self), "ratio");
  report.metric("core.hostcpu_model_util", median(t.hostcpu), "ratio");
  const auto requests = static_cast<double>(s.server_stats.requests);
  report.metric("core.buffer_hit_share",
                ratio(static_cast<double>(s.scheduler_stats.buffer_hits), requests), "ratio");
  report.metric("core.fallback_share",
                ratio(static_cast<double>(s.scheduler_stats.fallback_direct_reads), requests),
                "ratio");
  report.metric("core.wasted_prefetch_share",
                ratio(static_cast<double>(s.scheduler_stats.gc_bytes_wasted),
                      static_cast<double>(s.scheduler_stats.bytes_prefetched)),
                "ratio");
  report.metric("core.streams_detected", static_cast<double>(s.scheduler_stats.streams_created),
                "count");

  // Self time: a real device may deliver completions inline from submit(),
  // and the layers above it then run nested in the submit span.
  const auto submits = static_cast<double>(t.devices.submits);
  report.metric("blockdev.submit_ns", ratio(self(Span::kDeviceSubmit), count(Span::kDeviceSubmit)),
                "ns");
  report.metric("blockdev.submits_per_req", ratio(submits, n), "ratio");
  report.metric("blockdev.bytes_per_submit", ratio(static_cast<double>(t.devices.bytes), submits),
                "bytes");
  report.metric("blockdev.io_p50_ms", t.devices.io.p50_ms(), "ms");
  report.metric("blockdev.io_p99_ms", t.devices.io.p99_ms(), "ms");
  report.metric("blockdev.inflight_mean",
                ratio(static_cast<double>(t.devices.inflight_sum), submits), "count");
  report.metric("blockdev.enters_per_req",
                ratio(static_cast<double>(s.uring_summary.enter_syscalls), n), "ratio");
  report.metric("blockdev.batch_mean",
                ratio(static_cast<double>(s.uring_summary.sqes_flushed),
                      static_cast<double>(s.uring_summary.flush_batches)),
                "count");
  report.metric("blockdev.fixed_share",
                ratio(static_cast<double>(s.uring_summary.fixed_buffer_ops),
                      static_cast<double>(s.uring_summary.submitted)),
                "ratio");
  report.metric("blockdev.checked_reads", static_cast<double>(t.devices.checked_reads), "count");

  report.metric("exec.run_cpu_ns_per_req", ratio(run_cpu, n), "ns");
  report.metric("exec.busy_share", ratio(run_cpu, static_cast<double>(t.run_wall_ns)), "ratio");
  report.metric("exec.residual_ns_per_req", ratio(residual, n), "ns");
  report.metric("exec.accounted_share", ratio(self_all, run_cpu), "ratio");
  report.metric("exec.events_per_req", ratio(static_cast<double>(t.events), n), "ratio");
  report.metric("exec.residual_ns_per_event", ratio(residual, static_cast<double>(t.events)),
                "ns");
  report.metric("exec.wakeups_per_req",
                ratio(static_cast<double>(s.reactor_summary.wakeups), n), "ratio");
  report.metric("exec.timer_wakeup_share",
                ratio(static_cast<double>(s.reactor_summary.timer_wakeups),
                      static_cast<double>(s.reactor_summary.wakeups)),
                "ratio");

  report.metric("sim.shard2_slowdown", slowdown, "ratio");

  report.metric("disk.commands_per_req", ratio(static_cast<double>(s.disk_totals.commands), n),
                "ratio");
  report.metric("disk.cache_hit_share",
                ratio(static_cast<double>(s.disk_totals.cache_hits),
                      static_cast<double>(s.disk_totals.cache_hits + s.disk_totals.cache_misses)),
                "ratio");
  report.metric("disk.busy_share", ratio(t.disk_busy_share_sum, static_cast<double>(report.reps)),
                "ratio");
  report.metric("controller.cache_hit_share",
                ratio(static_cast<double>(s.controller_totals.cache_hits),
                      static_cast<double>(s.controller_totals.cache_hits +
                                          s.controller_totals.cache_misses)),
                "ratio");

  report.metric("setup.devices_ms", median(t.setup_devices_ms), "ms");
  report.metric("setup.server_ms", median(t.setup_server_ms), "ms");
  report.metric("setup.clients_ms", median(t.setup_clients_ms), "ms");

  // Same estimators as the untraced run, so the two give the tracing overhead.
  if (w.real) {
    report.metric("trace.req_per_s",
                  ratio(static_cast<double>(t.requests_total), t.window_total_s), "1/s");
    report.metric("trace.cpu_ns_per_req",
                  ratio(t.cpu_total, static_cast<double>(t.requests_total)), "ns");
  } else {
    report.metric("trace.req_per_s", *std::max_element(t.req_per_s.begin(), t.req_per_s.end()),
                  "1/s");
    report.metric("trace.cpu_ns_per_req", *std::min_element(t.cpu_ns.begin(), t.cpu_ns.end()),
                  "ns");
  }
  report.metric("trace.check_share", ratio(self(Span::kCheck), run_cpu), "ratio");

  // Self times are wall-clock spans inside the thread's CPU window: they
  // can only exceed the thread's CPU if the thread lost its core mid-span.
  report.check("self_time_closes", self_all <= run_cpu * 1.02,
               "span self time " + std::to_string(self_all) + " ns exceeds the event loop's " +
                   std::to_string(run_cpu) + " ns of thread CPU by more than 2%");
  report.set_spans(t.spans);
  report.extra("measured_s", measured_s);
  report.extra("run_cpu_ns", run_cpu);
  report.extra("span_self_ns", self_all);

  if (!opt.trace_out.empty() && !write_chrome_trace(opt.trace_out, t.spans.raw())) {
    report.check("trace_written", false, "cannot write " + opt.trace_out);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.prepare.empty()) return prepare(opt.prepare);

  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) usage_error("unknown workload '" + opt.workload + "'");
  if (opt.out.empty()) usage_error("--out is required");
  if (opt.trace != 0 && opt.trace != 1) usage_error("--trace must be 0 or 1");
  if (!(opt.seconds > 0.0)) usage_error("--seconds must be positive");
  if (w->real) {
    if (!experiment::real_backend_available()) {
      std::fprintf(stderr, "sst_bench: %s needs a build with -DSST_WITH_URING=ON\n",
                   opt.workload.c_str());
      return 77;
    }
    if (opt.file.empty()) usage_error("the real workloads need --file");
    const std::string error = warm_backing_file(opt.file);
    if (!error.empty()) usage_error(error);
  }

  Report report;
  const SimTime window = opt.smoke ? w->smoke_window : opt.trace ? w->traced_window : w->window;
  try {
    if (opt.trace == 0) {
      run_untraced(opt, *w, window, report);
    } else {
      run_traced_reps(opt, *w, window, report);
    }
  } catch (const std::exception& e) {
    report.check("run_completed", false, e.what());
    report.failed = std::max<std::uint64_t>(report.failed, 1);
    report.attempted = std::max(report.attempted, report.failed);
  }
  if (!report.write(opt.out, opt)) {
    std::fprintf(stderr, "sst_bench: cannot write %s\n", opt.out.c_str());
    return 2;
  }
  return report.all_ok() ? 0 : 1;
}
