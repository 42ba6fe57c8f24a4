// experiment_cli: run any streamstore experiment from a flat key=value
// description — a DiskSim-style front end. Parameters come from an optional
// config file plus command-line overrides (later wins).
//
//   ./build/examples/experiment_cli workload.streams=100 sched.read_ahead=8M
//       (plus e.g. sched.memory=800M run.measure=20s)
//   ./build/examples/experiment_cli @fig10.conf sched.read_ahead=2M
//
// Any key can be swept by prefixing it with "sweep." and giving a
// comma-separated value list; the cartesian product of all swept keys runs
// through the parallel sweep engine (SST_BENCH_THREADS workers) and prints
// one row per grid point:
//
//   ./build/examples/experiment_cli workload.streams=100
//       sweep.sched.read_ahead=512K,2M,8M sweep.workload.streams=10,100
//
// Parallel engine keys (see src/configio/loaders.hpp):
//
//   sim.shards=N                run N cells at controller boundaries,
//                               each on its own simulator and thread, with
//                               every stream on the cell owning its device
//                               (clamped to the controller count / raid
//                               layout). 1 = one simulator's result; a run
//                               without a scheduler, network link, stripe,
//                               faults or observers gets it from a cell
//                               per CPU
//   workload.seed=K             global workload seed; per-stream seeds
//                               derive from it and the stream's ordinal
//   workload.think_jitter=2ms   uniform random extra think time in [0, J]
//                               per completion, from the stream's seed
//
// Observability flags (work in both single and sweep mode; sweep mode
// writes one file per grid point, with the point index before the
// extension):
//
//   --trace=trace.json          request-lifecycle trace (Chrome Trace JSON,
//                               load in Perfetto / chrome://tracing)
//   --metrics=metrics.json      full metrics export (per-layer counters,
//                               latency histogram); a JSON array in sweeps
//   --timeseries=series.csv     sampled gauges as CSV
//   --sample-interval-ms=N      gauge sampling period (default 100 when
//                               --timeseries is given)
//   --flight-record=dump.json   flight-recorder journal destination (the
//                               ring also dumps here automatically on an
//                               SLO breach or a device failure; defaults
//                               to flight_dump.json when an slo.* spec is
//                               active without this flag)
//   --flight-dump               force a dump even without a breach
//   --flight-capacity=N         ring capacity in events (default 4096)
//
// Declaring an SLO (slo.objective=50ms, optionally slo.quantile=0.999,
// slo.window=1s, slo.burn_rate=0.05) makes the run exit with code 3 when
// the objective is breached, after writing the flight-recorder dump.
//
// Execution backend keys (see README "Running against real disks"):
//
//   backend.kind=sim|real       sim (default) = the deterministic event
//                               simulator; real = io_uring + O_DIRECT over
//                               a backing file (requires a build with
//                               -DSST_WITH_URING=ON; exit code 4 otherwise)
//   backend.path=/path/file     backing file for backend.kind=real, carved
//                               into one slice per logical device
//                               (pre-format with scripts/mkpattern.py)
//   backend.queue_depth=64      per-device io_uring in-flight depth
//   backend.direct=true         try O_DIRECT first (tmpfs and friends fall
//                               back to buffered I/O automatically)
//   backend.reactors=1          reactor threads; > 1 carves the devices into
//                               per-reactor groups, each with its own rings
//                               and epoll loop (the real mirror of
//                               sim.shards)
//
// Exit codes: 0 = success, 1 = usage/config/runtime error (an unknown key,
// a malformed value or a sweep key without values among them), 3 = SLO
// breach, 4 = backend.kind=real without an io_uring build. `--help` prints
// the key summary.
//
// Prints a result table plus the scheduler/disk counters. See
// src/configio/loaders.hpp for the full key reference.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "configio/loaders.hpp"
#include "experiment/sweep.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/tracer.hpp"
#include "stats/table.hpp"

using namespace sst;

namespace {

/// Exit code for an SLO breach (distinct from 1 = usage/config errors).
constexpr int kExitSloBreach = 3;
/// Exit code for backend.kind=real in a build without -DSST_WITH_URING=ON.
constexpr int kExitRealUnavailable = 4;

void print_help() {
  std::printf(
      "usage: experiment_cli [@config-file] [key=value ...] [--flags]\n"
      "\n"
      "Runs one streamstore experiment from flat key=value parameters; an\n"
      "@file provides defaults and command-line keys override (later wins).\n"
      "Prefix any key with sweep. and give comma-separated values to run the\n"
      "cartesian product in parallel.\n"
      "\n"
      "Common keys (full reference: src/configio/loaders.hpp):\n"
      "  topology.controllers=N                     physical node shape:\n"
      "  topology.disks_per_controller=N            controllers x disks\n"
      "  sched.read_ahead=2M sched.memory=800M      stream scheduler (omit\n"
      "                                             sched.* = raw devices)\n"
      "  workload.streams=N workload.request=64K    closed-loop stream clients\n"
      "  run.warmup=4s run.measure=20s              run windows\n"
      "  sim.shards=N                               simulated cells, a thread\n"
      "                                             each (1 = one simulator)\n"
      "  slo.objective=50ms slo.quantile=0.999      tail-latency SLO gate\n"
      "  obs.attribution=true                       per-stage latency metrics\n"
      "\n"
      "Execution backend:\n"
      "  backend.kind=sim|real   sim (default) = deterministic simulator;\n"
      "                          real = io_uring + O_DIRECT over backend.path\n"
      "                          (build with -DSST_WITH_URING=ON; pre-format\n"
      "                          the file with scripts/mkpattern.py)\n"
      "  backend.path=FILE       backing file, one slice per physical device\n"
      "  backend.queue_depth=64  per-device in-flight depth\n"
      "  backend.direct=true     try O_DIRECT, buffered fallback on refusal\n"
      "  backend.reactors=1      reactor threads, planned like sim.shards\n"
      "\n"
      "Observability flags:\n"
      "  --trace=FILE --metrics=FILE --timeseries=FILE\n"
      "  --sample-interval-ms=N --flight-record=FILE --flight-dump\n"
      "  --flight-capacity=N\n"
      "\n"
      "Exit codes: 0 success, 1 usage/config/runtime error, 3 SLO breach,\n"
      "4 backend.kind=real without an io_uring build.\n");
}

/// Observability outputs requested via --flags.
struct ObsOptions {
  std::string trace_path;
  std::string metrics_path;
  std::string timeseries_path;
  SimTime sample_interval = 0;
  std::string flight_path;
  bool flight_dump = false;
  std::size_t flight_capacity = obs::FlightRecorder::kDefaultCapacity;

  [[nodiscard]] bool tracing() const { return !trace_path.empty(); }
  [[nodiscard]] SimTime effective_interval() const {
    if (sample_interval > 0) return sample_interval;
    return timeseries_path.empty() ? 0 : msec(100);
  }
  /// Recording is on when any flight flag was given or an SLO is active
  /// (the breach dump needs a journal to write).
  [[nodiscard]] bool flight_recording(bool slo_active) const {
    return !flight_path.empty() || flight_dump || slo_active;
  }
  [[nodiscard]] std::string effective_flight_path() const {
    return flight_path.empty() ? "flight_dump.json" : flight_path;
  }
};

/// Parse --name=value observability flags out of argv; everything else is
/// returned for the config parser. Returns false on a malformed flag.
bool split_obs_flags(int argc, char** argv, ObsOptions& obs,
                     std::vector<std::string>& rest) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      obs.trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      obs.metrics_path = arg.substr(10);
    } else if (arg.rfind("--timeseries=", 0) == 0) {
      obs.timeseries_path = arg.substr(13);
    } else if (arg.rfind("--sample-interval-ms=", 0) == 0) {
      try {
        obs.sample_interval = msec(std::stoull(arg.substr(21)));
      } catch (...) {
        std::fprintf(stderr, "error: bad --sample-interval-ms value: %s\n", arg.c_str());
        return false;
      }
    } else if (arg.rfind("--flight-record=", 0) == 0) {
      obs.flight_path = arg.substr(16);
    } else if (arg == "--flight-dump") {
      obs.flight_dump = true;
    } else if (arg.rfind("--flight-capacity=", 0) == 0) {
      try {
        obs.flight_capacity = std::stoull(arg.substr(18));
      } catch (...) {
        std::fprintf(stderr, "error: bad --flight-capacity value: %s\n", arg.c_str());
        return false;
      }
      if (obs.flight_capacity == 0) {
        std::fprintf(stderr, "error: --flight-capacity must be >= 1\n");
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag: %s\n", arg.c_str());
      return false;
    } else {
      rest.push_back(arg);
    }
  }
  return true;
}

/// "out.json" + index 2 -> "out.2.json" (sweep mode writes one file per
/// grid point).
std::string indexed_path(const std::string& path, std::size_t index) {
  const auto dot = path.rfind('.');
  const auto slash = path.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + std::to_string(index);
  }
  return path.substr(0, dot) + "." + std::to_string(index) + path.substr(dot);
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

Result<Config> gather_config(const std::vector<std::string>& args) {
  Config merged;
  for (const std::string& arg : args) {
    if (!arg.empty() && arg.front() == '@') {
      std::ifstream file(arg.substr(1));
      if (!file) return make_error("cannot open config file: " + arg.substr(1));
      std::ostringstream text;
      text << file.rdbuf();
      auto parsed = Config::from_text(text.str());
      if (!parsed.ok()) return parsed.error();
      for (const auto& [k, v] : parsed.value().entries()) merged.set(k, v);
    } else {
      auto parsed = Config::from_args({arg});
      if (!parsed.ok()) return parsed.error();
      for (const auto& [k, v] : parsed.value().entries()) merged.set(k, v);
    }
  }
  return merged;
}

struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// Split "sweep.<key>=v1,v2,..." entries out of the merged config; a sweep
/// key without values is an error.
Result<std::pair<Config, std::vector<SweepAxis>>> split_sweep_axes(const Config& merged) {
  constexpr std::string_view kPrefix = "sweep.";
  Config base;
  std::vector<SweepAxis> axes;
  for (const auto& [key, value] : merged.entries()) {
    if (key.rfind(kPrefix, 0) != 0) {
      base.set(key, value);
      continue;
    }
    SweepAxis axis;
    axis.key = key.substr(kPrefix.size());
    std::istringstream list(value);
    for (std::string item; std::getline(list, item, ',');) {
      if (!item.empty()) axis.values.push_back(std::move(item));
    }
    if (axis.values.empty()) return make_error(key + " has no values");
    axes.push_back(std::move(axis));
  }
  return std::make_pair(std::move(base), std::move(axes));
}

/// Cartesian product of the axes, as per-point (key, value) assignments.
std::vector<std::vector<std::pair<std::string, std::string>>> expand_grid(
    const std::vector<SweepAxis>& axes) {
  std::vector<std::vector<std::pair<std::string, std::string>>> points{{}};
  for (const auto& axis : axes) {
    std::vector<std::vector<std::pair<std::string, std::string>>> expanded;
    expanded.reserve(points.size() * axis.values.size());
    for (const auto& prefix : points) {
      for (const auto& value : axis.values) {
        auto point = prefix;
        point.emplace_back(axis.key, value);
        expanded.push_back(std::move(point));
      }
    }
    points = std::move(expanded);
  }
  return points;
}

void print_single(const experiment::ExperimentConfig& ec,
                  const experiment::ExperimentResult& result) {
  stats::Table table("experiment result");
  table.set_note(std::to_string(ec.streams.size()) + " streams on " +
                 std::to_string(ec.topology.node.total_disks()) + " disk(s), " +
                 (ec.scheduler ? "stream scheduler" : "raw devices"));
  table.set_columns({"metric", "value"});
  table.add_row({std::string("aggregate MB/s"), result.total_mbps});
  table.add_row(
      {std::string("per-disk MB/s"), result.per_disk_mbps(ec.topology.node.total_disks())});
  table.add_row({std::string("requests completed"),
                 static_cast<std::int64_t>(result.requests_completed)});
  table.add_row({std::string("mean latency ms"), result.latency.mean_ms()});
  table.add_row({std::string("p95 latency ms"), result.latency.p95_ms()});
  table.add_row({std::string("p99 latency ms"), result.latency.p99_ms()});
  table.add_row({std::string("p999 latency ms"), result.latency.p999_ms()});
  table.add_row({std::string("disk media MB"),
                 static_cast<double>(result.disk_totals.bytes_from_media) / 1e6});
  table.add_row({std::string("disk cache hit rate"),
                 result.disk_totals.cache_hits + result.disk_totals.cache_misses > 0
                     ? static_cast<double>(result.disk_totals.cache_hits) /
                           static_cast<double>(result.disk_totals.cache_hits +
                                               result.disk_totals.cache_misses)
                     : 0.0});
  if (ec.scheduler) {
    table.add_row({std::string("streams detected"),
                   static_cast<std::int64_t>(result.scheduler_stats.streams_created)});
    table.add_row({std::string("read-aheads issued"),
                   static_cast<std::int64_t>(result.scheduler_stats.disk_reads)});
    table.add_row({std::string("staged-buffer hits"),
                   static_cast<std::int64_t>(result.scheduler_stats.buffer_hits)});
    table.add_row({std::string("peak buffer MB"),
                   static_cast<double>(result.peak_buffer_memory) / 1e6});
    table.add_row({std::string("host CPU utilization"), result.host_cpu_utilization});
  }
  if (ec.topology.stack.fault.enabled()) {
    table.add_row({std::string("faults injected"),
                   static_cast<std::int64_t>(result.fault_stats.media_errors +
                                             result.fault_stats.hangs +
                                             result.fault_stats.spikes)});
    table.add_row({std::string("retries"),
                   static_cast<std::int64_t>(result.retry_stats.retries_total)});
    table.add_row({std::string("commands recovered"),
                   static_cast<std::int64_t>(result.retry_stats.recovered)});
    table.add_row({std::string("retry giveups"),
                   static_cast<std::int64_t>(result.retry_stats.giveups)});
    table.add_row({std::string("streams evicted"),
                   static_cast<std::int64_t>(result.scheduler_stats.streams_evicted)});
    table.add_row({std::string("devices failed"),
                   static_cast<std::int64_t>(result.devices_failed)});
    table.add_row({std::string("client errors"),
                   static_cast<std::int64_t>(result.client_errors)});
  }
  if (result.breakdown.enabled) {
    table.add_row({std::string("stage sum / e2e ms"),
                   result.breakdown.stage_sum_ms()});
    table.add_row({std::string("queue stage mean ms"),
                   result.breakdown.queue.mean_ms()});
    table.add_row({std::string("uplink stage mean ms"),
                   result.breakdown.uplink.mean_ms()});
  }
  if (result.slo_report.enabled) {
    table.add_row({std::string("SLO verdict"),
                   std::string(result.slo_report.pass ? "pass" : "FAIL")});
    table.add_row({std::string("SLO objective ms"), result.slo_report.objective_ms});
    table.add_row({std::string("SLO worst window ms"),
                   result.slo_report.worst_window_ms});
    table.add_row({std::string("SLO windows breached"),
                   static_cast<std::int64_t>(result.slo_report.windows_breached)});
  }
  table.print(std::cout);
}

/// A dump is written when explicitly requested, on an SLO breach, or when
/// the fault layer declared a device failed during the run.
bool should_dump_flight(const ObsOptions& obs,
                        const experiment::ExperimentResult& result) {
  if (obs.flight_dump || !obs.flight_path.empty()) return true;
  if (result.slo_report.enabled && !result.slo_report.pass) return true;
  return result.devices_failed > 0;
}

int run_sweep_cli(const Config& base, const std::vector<SweepAxis>& axes,
                  const ObsOptions& obs) {
  const auto points = expand_grid(axes);
  std::vector<experiment::ExperimentConfig> configs;
  configs.reserve(points.size());
  for (const auto& point : points) {
    Config cfg = base;
    for (const auto& [key, value] : point) cfg.set(key, value);
    auto experiment = configio::load_experiment(cfg);
    if (!experiment.ok()) {
      std::fprintf(stderr, "error: %s\n", experiment.error().message.c_str());
      return 1;
    }
    if (experiment.value().backend.kind == experiment::BackendConfig::Kind::kReal) {
      std::fprintf(stderr,
                   "error: backend.kind=real is not supported in sweep mode "
                   "(grid points would contend for the same disk)\n");
      return 1;
    }
    configs.push_back(std::move(experiment.value()));
  }

  // One tracer per grid point: sweep workers run points concurrently, so
  // trace state must never be shared.
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  if (obs.tracing()) {
    tracers.reserve(configs.size());
    for (auto& config : configs) {
      tracers.push_back(std::make_unique<obs::Tracer>());
      config.tracer = tracers.back().get();
    }
  }
  // Same isolation rule for the flight recorders.
  const bool any_slo = [&configs] {
    for (const auto& config : configs)
      if (config.slo.enabled()) return true;
    return false;
  }();
  std::vector<std::unique_ptr<obs::FlightRecorder>> flights;
  if (obs.flight_recording(any_slo)) {
    flights.reserve(configs.size());
    for (auto& config : configs) {
      flights.push_back(std::make_unique<obs::FlightRecorder>(obs.flight_capacity));
      config.flight = flights.back().get();
    }
  }
  for (auto& config : configs) config.sample_interval = obs.effective_interval();

  const auto results = experiment::run_sweep(configs);

  bool slo_breached = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].slo_report.enabled && !results[i].slo_report.pass) {
      slo_breached = true;
    }
    if (!flights.empty() && should_dump_flight(obs, results[i])) {
      const std::string path = indexed_path(obs.effective_flight_path(), i);
      if (!flights[i]->write_file(path)) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
      }
    }
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (obs.tracing() &&
        !tracers[i]->write_file(indexed_path(obs.trace_path, i))) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   indexed_path(obs.trace_path, i).c_str());
      return 1;
    }
    if (!obs.timeseries_path.empty() &&
        !write_text_file(indexed_path(obs.timeseries_path, i),
                         results[i].timeseries.to_csv())) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   indexed_path(obs.timeseries_path, i).c_str());
      return 1;
    }
  }
  if (!obs.metrics_path.empty()) {
    std::ostringstream doc;
    doc << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i != 0) doc << ",\n";
      doc << "{\"point\":{";
      for (std::size_t j = 0; j < points[i].size(); ++j) {
        if (j != 0) doc << ",";
        doc << '"' << points[i][j].first << "\":\"" << points[i][j].second << '"';
      }
      doc << "},\"metrics\":" << results[i].to_json() << "}";
    }
    doc << "\n]\n";
    if (!write_text_file(obs.metrics_path, doc.str())) {
      std::fprintf(stderr, "error: cannot write %s\n", obs.metrics_path.c_str());
      return 1;
    }
  }

  stats::Table table("sweep result");
  table.set_note(std::to_string(points.size()) + " grid points, " +
                 std::to_string(experiment::default_sweep_workers()) + " workers");
  std::vector<std::string> columns;
  for (const auto& axis : axes) columns.push_back(axis.key);
  columns.insert(columns.end(),
                 {"MB/s", "MB/s/disk", "requests", "mean ms", "p95 ms"});
  table.set_columns(columns);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& result = results[i];
    std::vector<stats::Cell> row;
    for (const auto& [key, value] : points[i]) row.emplace_back(value);
    row.emplace_back(result.total_mbps);
    row.emplace_back(result.per_disk_mbps(configs[i].topology.node.total_disks()));
    row.emplace_back(static_cast<std::int64_t>(result.requests_completed));
    row.emplace_back(result.latency.mean_ms());
    row.emplace_back(result.latency.p95_ms());
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return slo_breached ? kExitSloBreach : 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    }
  }
  ObsOptions obs;
  std::vector<std::string> args;
  if (!split_obs_flags(argc, argv, obs, args)) return 1;

  auto cfg = gather_config(args);
  if (!cfg.ok()) {
    std::fprintf(stderr, "error: %s\n", cfg.error().message.c_str());
    return 1;
  }

  auto split = split_sweep_axes(cfg.value());
  if (!split.ok()) {
    std::fprintf(stderr, "error: %s\n", split.error().message.c_str());
    return 1;
  }
  auto& [base, axes] = split.value();
  if (!axes.empty()) return run_sweep_cli(base, axes, obs);

  auto experiment = configio::load_experiment(base);
  if (!experiment.ok()) {
    std::fprintf(stderr, "error: %s\n", experiment.error().message.c_str());
    return 1;
  }

  obs::Tracer tracer;
  if (obs.tracing()) experiment.value().tracer = &tracer;
  experiment.value().sample_interval = obs.effective_interval();

  obs::FlightRecorder flight(obs.flight_capacity);
  const bool recording = obs.flight_recording(experiment.value().slo.enabled());
  if (recording) experiment.value().flight = &flight;

  if (experiment.value().backend.kind == experiment::BackendConfig::Kind::kReal &&
      !experiment::real_backend_available()) {
    std::fprintf(stderr,
                 "error: backend.kind=real requires a build with "
                 "-DSST_WITH_URING=ON\n");
    return kExitRealUnavailable;
  }

  experiment::ExperimentResult result;
  try {
    result = experiment::run_experiment(experiment.value());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  print_single(experiment.value(), result);

  if (obs.tracing() && !tracer.write_file(obs.trace_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", obs.trace_path.c_str());
    return 1;
  }
  if (!obs.metrics_path.empty() &&
      !write_text_file(obs.metrics_path, result.to_json())) {
    std::fprintf(stderr, "error: cannot write %s\n", obs.metrics_path.c_str());
    return 1;
  }
  if (!obs.timeseries_path.empty() &&
      !write_text_file(obs.timeseries_path, result.timeseries.to_csv())) {
    std::fprintf(stderr, "error: cannot write %s\n", obs.timeseries_path.c_str());
    return 1;
  }
  if (recording && should_dump_flight(obs, result)) {
    const std::string path = obs.effective_flight_path();
    if (!flight.write_file(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "flight recorder dump: %s (%llu events, %llu dropped)\n",
                 path.c_str(),
                 static_cast<unsigned long long>(flight.events().size()),
                 static_cast<unsigned long long>(flight.dropped()));
  }
  if (result.slo_report.enabled && !result.slo_report.pass) {
    std::fprintf(stderr, "SLO breach: p%g %.3f ms objective, worst window %.3f ms\n",
                 result.slo_report.quantile * 100.0, result.slo_report.objective_ms,
                 result.slo_report.worst_window_ms);
    return kExitSloBreach;
  }
  return 0;
}
