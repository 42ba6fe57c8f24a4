// Calibration diagnostic: prints the raw numbers of the simulated WD800JD
// disk model and a few end-to-end sanity experiments. Run this first when
// judging whether the simulator matches the paper's testbed:
//   - sequential media rate outer/inner zone      (paper: ~55-60 MB/s app)
//   - average seek                                 (datasheet: 8.9 ms)
//   - single-stream app throughput                 (paper: ~55 MB/s)
//   - 30-stream raw throughput at 64 KB            (paper: collapses)
//   - 30-stream with the scheduler at R=8M         (paper: ~50 MB/s)
//
// With --real-file it instead becomes the sim-vs-real calibration harness:
// the same 1x1 workload runs once on the simulated backend and once on the
// io_uring backend over the named (pattern-formatted) file, and the paired
// throughput/latency numbers land in a JSON report. With --reactors N the
// real rows also run at N reactors, and the report carries the scheduled
// rows' 1 -> N reactor scaling. Requires a build with -DSST_WITH_URING=ON;
// exits 2 otherwise. Real numbers are machine- and disk-dependent: the
// report is a CI artifact, not a gated baseline.
//
//   calibration [--real-file PATH] [--out FILE] [--streams N]
//               [--request BYTES] [--measure-ms MS] [--devices D]
//               [--reactors N] [--min-scaling X]
//
//   --real-file PATH   backing file for the real run (see scripts/mkpattern.py)
//   --out FILE         JSON report path (default BENCH_calibration_real.json)
//   --streams N        concurrent sequential streams (default 64)
//   --request BYTES    request size in bytes (default 65536)
//   --measure-ms MS    measurement window per run (default 2000)
//   --devices D        logical devices / file slices (default 1)
//   --reactors N       when > 1, adds real rows at backend.reactors=N next
//                      to the 1-reactor rows (needs --devices >= N)
//   --min-scaling X    fail (exit 1) when the sched real MB/s at N reactors
//                      over the 1-reactor row is below X, on a host with
//                      >= 4 cores (below that the extra reactors have no
//                      core to run on and the ratio is noise); default 0:
//                      report only
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/autotune.hpp"
#include "disk/geometry.hpp"
#include "disk/seek_model.hpp"
#include "experiment/runner.hpp"
#include "node/storage_node.hpp"
#include "workload/generator.hpp"

namespace {

using namespace sst;

double run_streams(std::uint32_t streams, Bytes request, bool with_scheduler, Bytes read_ahead,
                   Bytes memory) {
  experiment::ExperimentConfig cfg;
  cfg.topology.node = node::NodeConfig::base();
  cfg.streams = workload::make_uniform_streams(
      streams, 1, cfg.topology.node.disk.geometry.capacity, request);
  if (with_scheduler) {
    core::SchedulerParams sched;
    sched.read_ahead = read_ahead;
    sched.memory_budget = memory;
    sched.dispatch_set_size = 0;  // memory-derived
    cfg.scheduler = sched;
  }
  const auto result = experiment::run_experiment(cfg);
  return result.total_mbps;
}

struct CalRow {
  std::string mode;     ///< "raw" or "sched"
  std::string backend;  ///< "sim" or "real"
  std::uint32_t reactors = 0;  ///< 0 for sim rows, effective count for real
  double mbps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double syscalls_per_request = 0.0;  ///< 0 for sim rows
  std::uint64_t requests = 0;
};

/// The shared workload both backends run: N sequential streams spread over
/// `devices` logical devices, each stream inside the first `span` bytes of
/// its device (the real file slice's size).
experiment::ExperimentConfig cal_config(std::uint32_t streams, Bytes request,
                                        SimTime measure, Bytes span,
                                        bool with_scheduler,
                                        std::uint32_t devices) {
  node::NodeConfig node = node::NodeConfig::base();
  node.num_controllers = devices;
  node.disks_per_controller = 1;
  experiment::ExperimentConfig cfg;
  cfg.topology.node = node;
  cfg.warmup = msec(250);
  cfg.measure = measure;
  cfg.streams = workload::make_uniform_streams(streams, devices, span, request);
  if (with_scheduler) {
    // The paper's R=8M only fits when the backing file is large; scale the
    // per-stream read-ahead down so each device's resident streams' staging
    // stays inside its slice while keeping the request multiple the
    // scheduler expects. A quarter of each stream's region, so every lap
    // over the region takes four read-aheads: with a read-ahead as large
    // as the region, clients would mostly re-read data still staged and
    // the real rows would measure buffer hand-offs, not I/O.
    const std::uint32_t per_device = streams / devices > 0 ? streams / devices : 1;
    Bytes ra = span / per_device / 4;
    if (ra > 8 * MiB) ra = 8 * MiB;
    if (ra < request) ra = request;
    ra = ra / request * request;
    core::SchedulerParams sched;
    sched.read_ahead = ra;
    sched.memory_budget = static_cast<Bytes>(streams) * ra;
    sched.dispatch_set_size = 0;  // memory-derived
    cfg.scheduler = sched;
  }
  return cfg;
}

CalRow run_one(const experiment::ExperimentConfig& cfg, const char* mode,
               const char* backend) {
  const auto result = experiment::run_experiment(cfg);
  CalRow row;
  row.mode = mode;
  row.backend = backend;
  row.reactors = result.reactor_summary.enabled ? result.reactor_summary.reactors : 0;
  row.mbps = result.total_mbps;
  row.p50_ms = result.latency.p50_ms();
  row.p99_ms = result.latency.p99_ms();
  row.p999_ms = result.latency.p999_ms();
  row.syscalls_per_request = result.uring_summary.syscalls_per_request();
  row.requests = result.requests_completed;
  return row;
}

/// Sim-vs-real comparison over the same workload; writes the JSON report.
int run_real_calibration(const std::string& file, const std::string& out_path,
                         std::uint32_t streams, Bytes request, SimTime measure,
                         std::uint32_t devices, std::uint32_t reactors, double min_scaling) {
  if (!experiment::real_backend_available()) {
    std::fprintf(stderr,
                 "calibration: --real-file needs a build with -DSST_WITH_URING=ON\n");
    return 2;
  }
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(file, ec);
  if (ec || file_size < request * streams) {
    std::fprintf(stderr,
                 "calibration: %s missing or smaller than streams*request "
                 "(format it with scripts/mkpattern.py)\n",
                 file.c_str());
    return 1;
  }
  // Per-device slice, truncated to whole requests.
  const Bytes span =
      static_cast<Bytes>(file_size) / devices / request * request;

  std::vector<CalRow> rows;
  // Scheduled real MB/s at 1 reactor and at the last reactor count run.
  double sched_first = 0.0;
  double sched_last = 0.0;
  for (const bool with_scheduler : {false, true}) {
    const char* mode = with_scheduler ? "sched" : "raw";
    experiment::ExperimentConfig cfg =
        cal_config(streams, request, measure, span, with_scheduler, devices);
    rows.push_back(run_one(cfg, mode, "sim"));
    cfg.backend.kind = experiment::BackendConfig::Kind::kReal;
    cfg.backend.path = file;
    std::vector<std::uint32_t> reactor_counts{1};
    if (reactors > 1) reactor_counts.push_back(reactors);
    for (const std::uint32_t r : reactor_counts) {
      cfg.backend.reactors = r;
      try {
        rows.push_back(run_one(cfg, mode, "real"));
      } catch (const std::exception& err) {
        std::fprintf(stderr, "calibration: real run failed: %s\n", err.what());
        return 1;
      }
      if (with_scheduler) {
        if (r == 1) sched_first = rows.back().mbps;
        sched_last = rows.back().mbps;
      }
    }
  }
  const double scaling = sched_first > 0 ? sched_last / sched_first : 0.0;
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("== sim vs real (%u streams, %llu B requests, %u device%s, %s) ==\n",
              streams, static_cast<unsigned long long>(request), devices,
              devices == 1 ? "" : "s", file.c_str());
  for (const auto& row : rows) {
    if (row.reactors > 0) {
      std::printf(
          "%-5s %-4s r=%u : %8.1f MB/s  p50 %7.3f ms  p99 %7.3f ms  "
          "%.3f enters/req\n",
          row.mode.c_str(), row.backend.c_str(), row.reactors, row.mbps,
          row.p50_ms, row.p99_ms, row.syscalls_per_request);
    } else {
      std::printf("%-5s %-4s     : %8.1f MB/s  p50 %7.3f ms  p99 %7.3f ms\n",
                  row.mode.c_str(), row.backend.c_str(), row.mbps, row.p50_ms,
                  row.p99_ms);
    }
  }
  std::printf("sched real 1 -> %u reactor scaling: %.2fx (%u cores)\n", reactors, scaling,
              cores);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "calibration: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"file\": \"%s\",\n  \"streams\": %u,\n"
               "  \"request\": %llu,\n  \"measure_ms\": %.0f,\n"
               "  \"devices\": %u,\n  \"reactors\": %u,\n  \"cores\": %u,\n"
               "  \"sched_scaling\": %.4f,\n  \"runs\": [\n",
               file.c_str(), streams, static_cast<unsigned long long>(request),
               to_millis(measure), devices, reactors, cores, scaling);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"backend\": \"%s\", \"reactors\": %u, "
                 "\"mbps\": %.3f, "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f, "
                 "\"syscalls_per_request\": %.4f, "
                 "\"requests\": %llu}%s\n",
                 row.mode.c_str(), row.backend.c_str(), row.reactors, row.mbps,
                 row.p50_ms, row.p99_ms, row.p999_ms, row.syscalls_per_request,
                 static_cast<unsigned long long>(row.requests),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (min_scaling > 0.0 && cores < 4) {
    std::printf("calibration: only %u cores, scaling floor not enforced\n", cores);
  } else if (min_scaling > 0.0 && scaling < min_scaling) {
    std::fprintf(stderr,
                 "calibration: FAIL: sched 1 -> %u reactor scaling %.2fx below the "
                 "%.2fx floor on a %u-core host\n",
                 reactors, scaling, min_scaling, cores);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string real_file;
  std::string out_path = "BENCH_calibration_real.json";
  std::uint32_t streams = 64;
  Bytes request = 64 * KiB;
  SimTime measure = msec(2000);
  std::uint32_t devices = 1;
  std::uint32_t reactors = 1;
  double min_scaling = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "calibration: %s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--real-file") {
      real_file = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--streams") {
      streams = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--request") {
      request = static_cast<Bytes>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--measure-ms") {
      measure = msec(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--devices") {
      devices = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--reactors") {
      reactors = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--min-scaling") {
      min_scaling = std::strtod(next(), nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: calibration [--real-file PATH] [--out FILE] "
                   "[--streams N] [--request BYTES] [--measure-ms MS] "
                   "[--devices D] [--reactors N] [--min-scaling X]\n");
      return arg == "--help" || arg == "-h" ? 0 : 1;
    }
  }
  if (!real_file.empty()) {
    if (streams == 0 || request == 0 || request % kSectorSize != 0) {
      std::fprintf(stderr,
                   "calibration: streams must be > 0 and request a positive "
                   "multiple of %llu\n",
                   static_cast<unsigned long long>(kSectorSize));
      return 1;
    }
    if (devices == 0 || reactors == 0 || streams < devices || reactors > devices) {
      std::fprintf(stderr,
                   "calibration: need devices >= 1, streams >= devices and "
                   "reactors <= devices\n");
      return 1;
    }
    if (min_scaling > 0.0 && reactors < 2) {
      std::fprintf(stderr, "calibration: --min-scaling needs --reactors >= 2\n");
      return 1;
    }
    return run_real_calibration(real_file, out_path, streams, request, measure,
                                devices, reactors, min_scaling);
  }
  disk::DiskParams params = disk::DiskParams::wd800jd();
  disk::Geometry geometry(params.geometry);
  disk::SeekModel seek(params.seek, geometry.total_cylinders());

  std::printf("== disk model ==\n");
  std::printf("capacity           : %.1f GB\n", geometry.capacity_bytes() / 1e9);
  std::printf("cylinders          : %u\n", geometry.total_cylinders());
  std::printf("rotation period    : %.2f ms\n", to_millis(geometry.rotation_period()));
  std::printf("track skew         : %u sectors\n", geometry.track_skew_sectors());
  std::printf("media rate outer   : %.1f MB/s\n", geometry.media_rate_bps(0) / 1e6);
  std::printf("media rate inner   : %.1f MB/s\n",
              geometry.media_rate_bps(geometry.total_sectors() - 1) / 1e6);
  std::printf("seq rate outer     : %.1f MB/s\n", geometry.sequential_rate_bps(0) / 1e6);
  std::printf("seek 1 cyl         : %.2f ms\n", to_millis(seek.seek_time(1)));
  std::printf("seek C/3 (avg)     : %.2f ms\n",
              to_millis(seek.seek_time(geometry.total_cylinders() / 3)));
  std::printf("seek full stroke   : %.2f ms\n",
              to_millis(seek.seek_time(geometry.total_cylinders() - 1)));

  std::printf("\n== end-to-end sanity (64 KB requests, 1 disk) ==\n");
  std::printf("1 stream raw       : %.1f MB/s\n", run_streams(1, 64 * KiB, false, 0, 0));
  std::printf("30 streams raw     : %.1f MB/s\n", run_streams(30, 64 * KiB, false, 0, 0));
  std::printf("100 streams raw    : %.1f MB/s\n", run_streams(100, 64 * KiB, false, 0, 0));
  std::printf("30 str sched R=8M  : %.1f MB/s\n",
              run_streams(30, 64 * KiB, true, 8 * MiB, 240 * MiB));
  std::printf("100 str sched R=8M : %.1f MB/s\n",
              run_streams(100, 64 * KiB, true, 8 * MiB, 800 * MiB));

  const auto tuned = core::autotune(core::NodeDescription{});
  std::printf("\n== autotune (defaults) ==\n%s\n", tuned.rationale.c_str());
  return 0;
}
