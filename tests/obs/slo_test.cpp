// Tail-latency SLO engine, per-request latency attribution and the flight
// recorder: windowed quantile evaluation, verdict determinism across seeds
// and shard counts, stage-sum reconciliation against the end-to-end
// latency, ring-buffer wraparound/merge semantics, dump-on-breach, and
// cross-shard request-id stitching (every completed request has exactly
// one issue, one admit and one completion in the merged journal).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "blockdev/block_device.hpp"
#include "blockdev/uring_block_device.hpp"
#include "core/reliable_device.hpp"
#include "exec/real_context.hpp"
#include "experiment/runner.hpp"
#include "node/device_stack.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "workload/generator.hpp"

namespace sst {
namespace {

using obs::FlightCode;
using obs::FlightEvent;
using obs::FlightRecorder;
using obs::SloEngine;
using obs::SloReport;
using obs::SloSpec;
using obs::WindowedLatencyRecorder;

// ---------------------------------------------------------------------------
// SloEngine unit tests (constructed windows, no simulation).

TEST(SloEngine, DisabledSpecReportsDisabled) {
  const SloSpec spec;  // objective = 0
  WindowedLatencyRecorder windows(sec(1));
  stats::LatencyHistogram overall;
  const SloReport report = SloEngine::evaluate(spec, windows, overall);
  EXPECT_FALSE(report.enabled);
  EXPECT_TRUE(report.pass);
}

TEST(SloEngine, NoSamplesPasses) {
  SloSpec spec;
  spec.objective = msec(10);
  WindowedLatencyRecorder windows(spec.window);
  stats::LatencyHistogram overall;
  const SloReport report = SloEngine::evaluate(spec, windows, overall);
  EXPECT_TRUE(report.enabled);
  EXPECT_TRUE(report.pass);
  EXPECT_EQ(report.windows_evaluated, 0u);
}

TEST(SloEngine, BreachingWindowFailsWithZeroBurnAllowance) {
  SloSpec spec;
  spec.objective = msec(10);
  spec.quantile = 0.99;
  spec.window = sec(1);
  WindowedLatencyRecorder windows(spec.window);
  stats::LatencyHistogram overall;
  // Window 0: comfortably fast. Window 2: far above the objective.
  for (int i = 0; i < 100; ++i) {
    windows.record(msec(100), msec(1));
    overall.add(msec(1));
  }
  for (int i = 0; i < 100; ++i) {
    windows.record(sec(2) + msec(100), msec(100));
    overall.add(msec(100));
  }
  const SloReport report = SloEngine::evaluate(spec, windows, overall);
  EXPECT_TRUE(report.enabled);
  EXPECT_FALSE(report.pass);
  EXPECT_EQ(report.windows_evaluated, 2u);  // the empty middle window skips
  EXPECT_EQ(report.windows_breached, 1u);
  EXPECT_DOUBLE_EQ(report.burn_rate_observed, 0.5);
  EXPECT_GT(report.worst_window_ms, 10.0);
  EXPECT_EQ(report.samples, 200u);
}

TEST(SloEngine, BurnRateAllowancePermitsBoundedBreaching) {
  SloSpec spec;
  spec.objective = msec(10);
  spec.window = sec(1);
  spec.burn_rate = 0.5;  // half the windows may breach
  WindowedLatencyRecorder windows(spec.window);
  stats::LatencyHistogram overall;
  for (int i = 0; i < 100; ++i) {
    windows.record(msec(100), msec(1));
    windows.record(sec(1) + msec(100), msec(100));
    overall.add(msec(1));
    overall.add(msec(100));
  }
  const SloReport report = SloEngine::evaluate(spec, windows, overall);
  EXPECT_DOUBLE_EQ(report.burn_rate_observed, 0.5);
  EXPECT_TRUE(report.pass);  // observed == allowed
  spec.burn_rate = 0.4;
  EXPECT_FALSE(SloEngine::evaluate(spec, windows, overall).pass);
}

TEST(WindowedLatencyRecorder, MergeAlignsWindowOrdinals) {
  WindowedLatencyRecorder a(sec(1)), b(sec(1));
  a.record(sec(5), msec(1));           // ordinal 5
  b.record(sec(3), msec(2));           // ordinal 3
  b.record(sec(6) + msec(1), msec(3));  // ordinal 6
  a.merge_from(b);
  ASSERT_EQ(a.first_ordinal(), 3u);
  ASSERT_EQ(a.windows().size(), 4u);  // ordinals 3..6
  EXPECT_EQ(a.windows()[0].count(), 1u);
  EXPECT_EQ(a.windows()[1].count(), 0u);
  EXPECT_EQ(a.windows()[2].count(), 1u);
  EXPECT_EQ(a.windows()[3].count(), 1u);
}

// ---------------------------------------------------------------------------
// Flight recorder ring semantics.

TEST(FlightRecorder, RecordsBelowCapacityWithoutDrops) {
  FlightRecorder flight(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    flight.record(FlightCode::kIssue, i * 10, i + 1);
  }
  EXPECT_EQ(flight.recorded(), 5u);
  EXPECT_EQ(flight.dropped(), 0u);
  const auto events = flight.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].ts, i * 10);
    EXPECT_EQ(events[i].rid, i + 1);
  }
}

TEST(FlightRecorder, WraparoundKeepsNewestAndCountsDropped) {
  FlightRecorder flight(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    flight.record(FlightCode::kServe, i, i);
  }
  EXPECT_EQ(flight.recorded(), 10u);
  EXPECT_EQ(flight.dropped(), 6u);
  const auto events = flight.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the survivors: timestamps 6,7,8,9.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].ts, 6 + i);
    EXPECT_EQ(events[i].seq, 6 + i);
  }
}

TEST(FlightRecorder, MergeOrdersByTimeShardSeq) {
  FlightRecorder a(16), b(16);
  b.set_shard(1);
  a.record(FlightCode::kIssue, 100, 1);
  a.record(FlightCode::kAdmit, 300, 1);
  b.record(FlightCode::kIssue, 200, 2);
  b.record(FlightCode::kAdmit, 300, 2);  // ties with a's ts=300: shard 0 first
  a.merge_from(b);
  const auto events = a.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].ts, 100u);
  EXPECT_EQ(events[1].ts, 200u);
  EXPECT_EQ(events[2].shard, 0u);
  EXPECT_EQ(events[3].shard, 1u);
  EXPECT_EQ(a.recorded(), 4u);
}

TEST(FlightRecorder, MergeBeyondCapacityKeepsNewest) {
  FlightRecorder a(4), b(4);
  b.set_shard(1);
  for (std::uint64_t i = 0; i < 4; ++i) a.record(FlightCode::kIssue, i, i);
  for (std::uint64_t i = 0; i < 4; ++i) b.record(FlightCode::kIssue, 100 + i, i);
  a.merge_from(b);
  const auto events = a.events();
  ASSERT_EQ(events.size(), 4u);  // capacity bound holds
  for (const auto& event : events) EXPECT_GE(event.ts, 100u);
  EXPECT_EQ(a.dropped(), 4u);  // the four older events fell out
}

TEST(FlightRecorder, JsonDumpNamesCodesAndCounts) {
  FlightRecorder flight(4);
  flight.record(FlightCode::kIssue, 10, 42, 0, 4096);
  flight.record(FlightCode::kSloBreach, 20, 0, 3, 8);
  const std::string json = flight.to_json();
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"issue\""), std::string::npos);
  EXPECT_NE(json.find("\"slo_breach\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: the experiment runner with SLO, attribution and the recorder.

experiment::ExperimentConfig obs_config(std::uint32_t controllers,
                                        std::uint32_t streams,
                                        std::uint32_t shards) {
  experiment::ExperimentConfig ec;
  ec.topology.node.num_controllers = controllers;
  ec.topology.node.disks_per_controller = 1;
  core::SchedulerParams params;
  params.dispatch_set_size = streams;
  params.read_ahead = 512 * KiB;
  params.requests_per_residency = 1;
  params.memory_budget = static_cast<Bytes>(streams) * 512 * KiB;
  ec.scheduler = params;
  ec.streams = workload::make_uniform_streams(
      streams, ec.topology.logical_device_count(),
      ec.topology.logical_device_capacity(), 64 * KiB);
  ec.warmup = msec(200);
  ec.measure = msec(800);
  ec.shards = shards;
  return ec;
}

TEST(SloExperiment, GenerousObjectivePassesAndExportsReport) {
  experiment::ExperimentConfig ec = obs_config(2, 4, 1);
  ec.slo.objective = sec(10);  // nothing takes 10 seconds here
  ec.slo.window = msec(100);
  const auto result = experiment::run_experiment(ec);
  EXPECT_TRUE(result.slo_report.enabled);
  EXPECT_TRUE(result.slo_report.pass);
  EXPECT_GT(result.slo_report.windows_evaluated, 0u);
  EXPECT_EQ(result.slo_report.windows_breached, 0u);
  EXPECT_GT(result.slo_report.samples, 0u);
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"verdict\": \"pass\""), std::string::npos);
}

TEST(SloExperiment, ImpossibleObjectiveFailsAndJournalsBreach) {
  experiment::ExperimentConfig ec = obs_config(2, 4, 1);
  ec.slo.objective = 1;  // 1ns: every window breaches
  ec.slo.window = msec(100);
  obs::FlightRecorder flight(1 << 14);
  ec.flight = &flight;
  const auto result = experiment::run_experiment(ec);
  EXPECT_TRUE(result.slo_report.enabled);
  EXPECT_FALSE(result.slo_report.pass);
  EXPECT_EQ(result.slo_report.windows_breached, result.slo_report.windows_evaluated);
  EXPECT_DOUBLE_EQ(result.slo_report.burn_rate_observed, 1.0);
  EXPECT_NE(result.to_json().find("\"verdict\": \"fail\""), std::string::npos);
  // The breach itself lands in the journal (the CLI dumps on this signal).
  const auto events = flight.events();
  const bool saw_breach =
      std::any_of(events.begin(), events.end(), [](const FlightEvent& event) {
        return event.code == FlightCode::kSloBreach;
      });
  EXPECT_TRUE(saw_breach);
}

TEST(SloExperiment, VerdictAndBreakdownDeterministicAcrossRunsAndShards) {
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    experiment::ExperimentConfig ec = obs_config(4, 8, shards);
    for (auto& spec : ec.streams) spec.think_jitter = msec(2);
    ec.slo.objective = msec(500);
    ec.slo.quantile = 0.999;
    ec.slo.window = msec(100);
    const std::string first = experiment::run_experiment(ec).to_json();
    const std::string second = experiment::run_experiment(ec).to_json();
    EXPECT_EQ(first, second) << "non-deterministic at shards=" << shards;
    EXPECT_NE(first.find("\"slo\""), std::string::npos);
    EXPECT_NE(first.find("\"latency_breakdown\""), std::string::npos);
  }
}

TEST(SloExperiment, StageSumsReconcileWithEndToEndLatency) {
  for (const std::uint32_t shards : {1u, 2u}) {
    experiment::ExperimentConfig ec = obs_config(2, 4, shards);
    ec.attribution = true;
    const auto result = experiment::run_experiment(ec);
    ASSERT_TRUE(result.breakdown.enabled);
    EXPECT_GT(result.breakdown.attributed, 0u);
    // The four stages partition each request's response time exactly, so
    // their sums must reconcile with the clients' summed latency up to
    // floating-point accumulation order.
    const double stage_sum = result.breakdown.stage_sum_ms();
    const double e2e_sum = result.latency.total_ms();
    EXPECT_NEAR(stage_sum, e2e_sum, 1e-6 * std::max(1.0, e2e_sum))
        << "shards=" << shards;
    // Attribution covers every completed measured request.
    EXPECT_EQ(result.breakdown.attributed, result.latency.count());
    // Device-level views picked up traffic too.
    EXPECT_GT(result.breakdown.disk_service.count(), 0u);
  }
}

TEST(SloExperiment, ServerlessRunsFoldWholeLatencyIntoQueueStage) {
  // Raw-device runs (no scheduler/server) never stamp admit/serve/done:
  // the fold must still partition the response time instead of
  // underflowing on the zero stamps.
  for (const std::uint32_t shards : {1u, 2u}) {
    experiment::ExperimentConfig ec = obs_config(2, 4, shards);
    ec.scheduler.reset();
    ec.attribution = true;
    const auto result = experiment::run_experiment(ec);
    ASSERT_TRUE(result.breakdown.enabled);
    ASSERT_GT(result.breakdown.attributed, 0u);
    const double e2e_sum = result.latency.total_ms();
    EXPECT_NEAR(result.breakdown.stage_sum_ms(), e2e_sum,
                1e-6 * std::max(1.0, e2e_sum))
        << "shards=" << shards;
    EXPECT_DOUBLE_EQ(result.breakdown.ingress.total_ms(), 0.0);
    EXPECT_DOUBLE_EQ(result.breakdown.staging.total_ms(), 0.0);
    EXPECT_GT(result.breakdown.queue.total_ms(), 0.0);
  }
}

TEST(SloExperiment, MergedJournalStitchesRequestIdsAcrossShards) {
  experiment::ExperimentConfig ec = obs_config(4, 8, 4);
  obs::FlightRecorder flight(1 << 16);  // big enough that nothing drops
  ec.flight = &flight;
  const auto result = experiment::run_experiment(ec);
  EXPECT_EQ(result.shard_summary.shards, 4u);
  ASSERT_EQ(flight.dropped(), 0u);

  struct Counts {
    int issue = 0, admit = 0, complete = 0;
  };
  std::map<std::uint64_t, Counts> per_rid;
  for (const auto& event : flight.events()) {
    if (event.rid == 0) continue;
    auto& counts = per_rid[event.rid];
    if (event.code == FlightCode::kIssue) ++counts.issue;
    if (event.code == FlightCode::kAdmit) ++counts.admit;
    if (event.code == FlightCode::kComplete) ++counts.complete;
  }
  ASSERT_GT(per_rid.size(), 0u);
  std::uint64_t completed = 0;
  for (const auto& [rid, counts] : per_rid) {
    // Every request was issued exactly once and admitted at most once; a
    // completed request has the full issue -> admit -> complete chain.
    EXPECT_EQ(counts.issue, 1) << "rid=" << rid;
    EXPECT_LE(counts.admit, 1) << "rid=" << rid;
    EXPECT_LE(counts.complete, 1) << "rid=" << rid;
    if (counts.complete == 1) {
      EXPECT_EQ(counts.admit, 1) << "rid=" << rid;
      ++completed;
    }
  }
  EXPECT_GT(completed, 0u);
  // Requests from distinct clients carry distinct ordinals (rid >> 24).
  std::vector<std::uint64_t> ordinals;
  for (const auto& [rid, counts] : per_rid) ordinals.push_back(rid >> 24);
  std::sort(ordinals.begin(), ordinals.end());
  ordinals.erase(std::unique(ordinals.begin(), ordinals.end()), ordinals.end());
  EXPECT_EQ(ordinals.size(), 8u);  // one per stream, shard-count invariant
}

/// Time-series column names with the per-cell prefix `<cell>K.` removed.
std::set<std::string> gauge_names(const obs::TimeSeries& series, const std::string& cell) {
  std::set<std::string> names;
  for (const std::string& name : series.names) {
    const std::size_t dot = name.find('.');
    bool prefixed = name.rfind(cell, 0) == 0 && dot != std::string::npos && dot > cell.size();
    for (std::size_t i = cell.size(); prefixed && i < dot; ++i) {
      prefixed = std::isdigit(static_cast<unsigned char>(name[i])) != 0;
    }
    names.insert(prefixed ? name.substr(dot + 1) : name);
  }
  return names;
}

/// Metric names of a to_json() document, one entry per line: "group.key"
/// for the entries of a group, the bare name for a top-level histogram.
std::set<std::string> metric_keys(const std::string& json) {
  std::set<std::string> keys;
  std::istringstream lines(json);
  std::string line;
  std::string group;
  while (std::getline(lines, line)) {
    const std::size_t quote = line.find('"');
    if (quote == std::string::npos) continue;
    const std::string name = line.substr(quote + 1, line.find('"', quote + 1) - quote - 1);
    if (quote == 2 && line.back() == '{') {
      group = name;
    } else {
      keys.insert(quote == 2 ? name : group + "." + name);
    }
  }
  return keys;
}

/// "<group>.<key>" for every line of S's counter table.
template <class S>
std::set<std::string> table_keys(const std::string& group) {
  std::set<std::string> keys;
  for (const auto& line : S::kCounters) keys.insert(group + "." + std::string(line.key));
  return keys;
}

/// `keys` without the entries of the named groups.
std::set<std::string> without(std::set<std::string> keys,
                              const std::vector<std::string>& prefixes) {
  for (auto it = keys.begin(); it != keys.end();) {
    const bool drop = std::any_of(prefixes.begin(), prefixes.end(), [&](const auto& prefix) {
      return it->rfind(prefix, 0) == 0;
    });
    it = drop ? keys.erase(it) : std::next(it);
  }
  return keys;
}

/// A temporary backing file holding the seed-0 content pattern.
class PatternFile {
 public:
  explicit PatternFile(Bytes size) {
    char tmpl[] = "/tmp/sst_surface_XXXXXX";
    const int fd = ::mkstemp(tmpl);
    if (fd < 0) return;
    ::close(fd);
    path_ = tmpl;
    std::vector<std::byte> chunk(1 * MiB);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    for (Bytes off = 0; off < size; off += chunk.size()) {
      blockdev::fill_pattern(0, off, chunk.data(), chunk.size());
      out.write(reinterpret_cast<const char*>(chunk.data()),
                static_cast<std::streamsize>(chunk.size()));
    }
  }
  PatternFile(const PatternFile&) = delete;
  PatternFile& operator=(const PatternFile&) = delete;
  ~PatternFile() {
    if (!path_.empty()) ::unlink(path_.c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One metric surface across cell counts: every cell registers the same
// gauge set, so a sharded run shows the single-cell columns under a
// per-shard prefix, and its metrics export adds only the sim.shard_* group
// of cell counts.
TEST(SloExperiment, RollingPercentileColumnsAppearPerShard) {
  experiment::ExperimentConfig ec = obs_config(2, 4, 2);
  ec.sample_interval = msec(100);
  const auto result = experiment::run_experiment(ec);
  ASSERT_FALSE(result.timeseries.empty());
  const auto& names = result.timeseries.names;
  const auto has = [&names](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const std::string shard : {"shard0.", "shard1."}) {
    EXPECT_TRUE(has(shard + "mbps"));
    EXPECT_TRUE(has(shard + "p50_ms"));
    EXPECT_TRUE(has(shard + "p99_ms"));
    EXPECT_TRUE(has(shard + "p999_ms"));
    EXPECT_TRUE(has(shard + "dispatch_set"));
    EXPECT_TRUE(has(shard + "streams"));
  }

  // Single-threaded runs expose the same columns without the prefix.
  experiment::ExperimentConfig single = obs_config(2, 4, 1);
  single.sample_interval = msec(100);
  const auto single_result = experiment::run_experiment(single);
  const std::set<std::string> sim_gauges = gauge_names(single_result.timeseries, "shard");
  EXPECT_TRUE(sim_gauges.count("p50_ms"));
  EXPECT_TRUE(sim_gauges.count("p99_ms"));
  EXPECT_TRUE(sim_gauges.count("p999_ms"));
  EXPECT_TRUE(sim_gauges.count("disk1.queue_depth"));
  EXPECT_EQ(gauge_names(result.timeseries, "shard"), sim_gauges);
  std::set<std::string> sharded_keys = metric_keys(single_result.to_json());
  sharded_keys.insert({"sim.shard_count", "sim.shard_requested", "sim.shard_min_events",
                       "sim.shard_max_events"});
  EXPECT_EQ(metric_keys(result.to_json()), sharded_keys);
}

// The real half of the surface check, for every device stack a real run
// accepts: io_uring runs show the sim gauges (less the sim-only disk queue
// depths) and the sim metric keys plus the real-only uring.* and reactor.*
// groups: the UringStats and ReactorStats tables and the run-level summary
// entries. Reactors are planned like shards: two plain disks split across
// two reactors, a mirror group and a stripe each stay on one. The spike and
// hang cases end their runs with requests parked in fault and retry timers,
// whose closures outlive the cell (the sanitizer builds check that).
TEST(SloExperiment, RealRunsShareTheSimMetricSurface) {
  if (!experiment::real_backend_available()) {
    GTEST_SKIP() << "needs a build with -DSST_WITH_URING=ON";
  }
  struct Case {
    const char* name;
    std::uint32_t controllers;  ///< x (2 / controllers) disks
    bool raw;
    std::vector<std::uint32_t> reactors;  ///< backend.reactors values to run
    std::uint32_t planned_at_two;         ///< reactors a 2-reactor run gets
    void (*stack)(io::StackSpec&);
  };
  const auto plain = [](io::StackSpec&) {};
  const auto fault_retry = [](io::StackSpec& s) {
    s.fault.media_error_rate = 0.05;
    s.retry = core::RetryParams{};
  };
  const auto retry = [](io::StackSpec& s) { s.retry = core::RetryParams{}; };
  const auto mirror = [](io::StackSpec& s) { s.raid.kind = io::RaidSpec::Kind::kMirror; };
  const auto stripe = [](io::StackSpec& s) { s.raid.kind = io::RaidSpec::Kind::kStripe; };
  const auto spikes = [](io::StackSpec& s) {
    s.fault.spike_prob = 0.5;
    s.fault.spike_delay = msec(200);
  };
  const auto hangs = [](io::StackSpec& s) {
    s.fault.hang_prob = 0.2;
    s.retry = core::RetryParams{};
    s.retry->command_timeout = msec(20);
  };
  const Case cases[] = {
      {"plain", 1, false, {1, 2}, 2, plain},
      {"fault+retry", 2, false, {1, 2}, 2, fault_retry},
      {"retry", 2, false, {1, 2}, 2, retry},
      {"mirror", 2, false, {1, 2}, 1, mirror},
      {"stripe", 2, false, {1, 2}, 1, stripe},
      {"spikes", 2, false, {2}, 2, spikes},
      {"spikes raw", 2, true, {2}, 2, spikes},
      {"hangs", 2, false, {2}, 2, hangs},
      {"hangs raw", 2, true, {2}, 2, hangs},
  };

  const PatternFile file(8 * MiB);
  ASSERT_FALSE(file.path().empty());
  for (const Case& c : cases) {
    experiment::ExperimentConfig sim = obs_config(c.controllers, 4, 1);
    sim.topology.node.disks_per_controller = 2 / c.controllers;
    c.stack(sim.topology.stack);
    sim.streams = workload::make_uniform_streams(4, sim.topology.logical_device_count(),
                                                 sim.topology.logical_device_capacity(),
                                                 64 * KiB);
    if (c.raw) {
      sim.scheduler.reset();
    } else {
      // Keep the disks in service through given-up commands, so requests
      // are still parked in fault and retry timers when the run ends.
      sim.scheduler->device_fail_threshold = 1000;
    }
    sim.sample_interval = msec(100);
    const auto sim_result = experiment::run_experiment(sim);
    const std::set<std::string> real_gauges =
        without(gauge_names(sim_result.timeseries, "shard"), {"disk"});
    std::set<std::string> real_keys = metric_keys(sim_result.to_json());
    real_keys.merge(table_keys<blockdev::UringStats>("uring"));
    real_keys.merge(table_keys<exec::ReactorStats>("reactor"));
    real_keys.insert({"uring.devices", "uring.direct_devices", "uring.device_completed",
                      "uring.setup_flags", "reactor.count", "reactor.requested"});

    for (const std::uint32_t reactors : c.reactors) {
      experiment::ExperimentConfig real = sim;
      real.backend.kind = experiment::BackendConfig::Kind::kReal;
      real.backend.path = file.path();
      real.backend.reactors = reactors;
      const auto real_result = experiment::run_experiment(real);
      const std::string label = std::string(c.name) + ", " + std::to_string(reactors) +
                                " reactors requested";
      EXPECT_EQ(real_result.reactor_summary.reactors, reactors == 1 ? 1u : c.planned_at_two)
          << label;
      EXPECT_EQ(real_result.reactor_summary.requested, reactors) << label;
      const experiment::UringSummary& uring = real_result.uring_summary;
      EXPECT_EQ(uring.devices, 2u) << label;
      // The busiest reactor's measured CPU, scheduled or raw: never the
      // model's figure, which costs nothing on a real cell.
      EXPECT_GT(real_result.host_cpu_utilization, 0.0) << label;
      EXPECT_LE(real_result.host_cpu_utilization, 1.0) << label;
      if (real.topology.stack.retry_enabled()) {
        // The retry layer sits over the rings: every command passes it.
        EXPECT_GT(real_result.retry_stats.commands, 0u) << label;
      }
      EXPECT_EQ(gauge_names(real_result.timeseries, "reactor"), real_gauges) << label;
      EXPECT_EQ(metric_keys(real_result.to_json()), real_keys) << label;
      // Staged read-aheads land in 4096-aligned extents, so every one of
      // them takes the O_DIRECT fd wherever the file system grants it.
      if (std::string_view(c.name) == "plain" && uring.direct_devices > 0) {
        EXPECT_EQ(uring.direct_ops, real_result.scheduler_stats.disk_reads) << label;
      }
    }
  }
}

TEST(SloExperiment, PlainRunExportStaysGated) {
  const experiment::ExperimentConfig ec = obs_config(2, 4, 1);
  const auto result = experiment::run_experiment(ec);
  EXPECT_FALSE(result.slo_report.enabled);
  EXPECT_FALSE(result.breakdown.enabled);
  const std::string json = result.to_json();
  EXPECT_EQ(json.find("\"slo\""), std::string::npos);
  EXPECT_EQ(json.find("latency_breakdown"), std::string::npos);
}

}  // namespace
}  // namespace sst
