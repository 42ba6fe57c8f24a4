// The sharded runner: one Cell per sim::ShardedEngine shard, advanced in
// lockstep by the engine's conservative-lookahead barrier. It adds to the
// cells the shard plan (per-controller slices of the deployment), client
// placement and routing over the modelled interconnect, and the
// sim.shard_* summary. Each shard's cell owns its slice end-to-end, so no
// state is shared between worker threads within a barrier window.
//
// Faithfulness: a sharded run is NOT event-for-event identical to the
// single-threaded run of the same config — the interconnect hop shifts
// arrival phasing and each slice schedules against its own dispatch-set /
// memory share. It is a deterministic function of (config, seed, shard
// count): repeated runs reproduce identical metrics byte-for-byte.
#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "experiment/cell.hpp"
#include "experiment/runner.hpp"
#include "experiment/sharding.hpp"
#include "sim/sharded.hpp"

namespace sst::experiment {

ShardPlan plan_shards(const node::TopologySpec& topology, std::uint32_t requested,
                      SimTime lookahead_override) {
  ShardPlan plan;
  plan.requested = std::max<std::uint32_t>(1, requested);
  plan.lookahead = lookahead_override > 0
                       ? lookahead_override
                       : (topology.stack.network.has_value()
                              ? std::max(kDefaultShardLookahead,
                                         topology.stack.network->latency)
                              : kDefaultShardLookahead);

  const std::uint32_t controllers = topology.node.num_controllers;
  const std::uint32_t dpc = topology.node.disks_per_controller;
  std::uint32_t shards = std::min(plan.requested, controllers);
  // One striped volume spans every device: the raid layer is a single
  // coupling point, so striping always runs single-shard.
  if (topology.stack.raid.kind == io::RaidSpec::Kind::kStripe) shards = 1;

  const std::uint32_t mirror_ways =
      topology.stack.raid.kind == io::RaidSpec::Kind::kMirror
          ? topology.stack.raid.mirror_ways
          : 1;
  for (; shards > 1; --shards) {
    // Near-even contiguous controller ranges; accept this count only when
    // no mirror group straddles a boundary.
    bool ok = true;
    for (std::uint32_t k = 0; k < shards && ok; ++k) {
      const std::uint32_t begin = k * controllers / shards;
      const std::uint32_t end = (k + 1) * controllers / shards;
      ok = ((end - begin) * dpc) % mirror_ways == 0;
    }
    if (ok) break;
  }

  for (std::uint32_t k = 0; k < shards; ++k) {
    ShardSlice slice;
    slice.ctrl_begin = k * controllers / shards;
    slice.ctrl_count = (k + 1) * controllers / shards - slice.ctrl_begin;
    slice.dev_begin = slice.ctrl_begin * dpc;
    slice.dev_count = slice.ctrl_count * dpc;
    slice.logical_begin = slice.dev_begin / mirror_ways;
    slice.logical_count = slice.dev_count / mirror_ways;
    plan.slices.push_back(slice);
  }
  return plan;
}

ExperimentResult run_experiment_sharded(const ExperimentConfig& config,
                                        const ShardPlan& plan) {
  const std::uint32_t num_shards = plan.shard_count();
  const SimTime hop = plan.lookahead;  // one-way interconnect latency
  assert(num_shards > 1 && hop > 0);
  sim::ShardedEngine engine(num_shards, hop);

  std::vector<std::unique_ptr<Cell>> cells;
  for (std::uint32_t k = 0; k < num_shards; ++k) {
    CellPlan cell = cell_plan(config.topology, plan, k);
    cells.push_back(std::make_unique<Cell>(engine.shard(k), config, std::move(cell)));
  }

  // Clients: round-robin across shards by spec ordinal — a pure function
  // of (spec order, shard count), so placement is deterministic and client
  // event work spreads evenly instead of serializing on one shard. Each
  // client's route sink runs on its home shard, forwards the request one
  // hop to the owning shard, and splices a return hop into on_complete —
  // both directions exactly `hop` (even for home == owner, where the post
  // degenerates to a local schedule), so every stream pays the same
  // round-trip tax and cross-shard posts satisfy the lookahead contract by
  // construction.
  std::vector<std::uint32_t> shard_ordinal(num_shards, 0);
  for (std::uint32_t i = 0; i < config.streams.size(); ++i) {
    const workload::StreamSpec& spec = config.streams[i];
    const std::uint32_t k = plan.shard_of_logical(spec.device);
    const std::uint32_t home = i % num_shards;
    workload::StreamSpec local = spec;
    local.device = spec.device - plan.slices[k].logical_begin;
    if (local.seed == 0) {
      local.seed =
          stream_seed(shard_workload_seed(config.workload_seed, k), shard_ordinal[k]);
    }
    ++shard_ordinal[k];
    workload::RequestSink route = [&engine, hs = &engine.shard(home), home, k, hop,
                                   entry = &cells[k]->entry()](core::ClientRequest req) {
      IoCompletion done = std::move(req.on_complete);
      req.on_complete = [&engine, hs, home, k, hop,
                         done = std::move(done)](SimTime completed_at,
                                                 IoStatus status) mutable {
        engine.post(k, home, completed_at + hop,
                    [hs, done = std::move(done), status]() mutable {
                      done(hs->now(), status);
                    });
      };
      engine.post(home, k, hs->now() + hop,
                  [entry, req = std::move(req)]() mutable { (*entry)(std::move(req)); });
    };
    cells[home]->add_client(i, local, cells[k]->device_capacity(local.device),
                            std::move(route));
  }
  for (auto& cell : cells) cell->start();

  engine.run_until(config.warmup);
  for (auto& cell : cells) cell->begin_measurement();
  const SimTime t0 = engine.now();
  const SimTime t1 = t0 + config.measure;
  engine.run_until(t1);

  std::vector<CellOutcome> outcomes;
  std::uint64_t min_events = ~0ULL;
  std::uint64_t max_events = 0;
  for (std::uint32_t k = 0; k < num_shards; ++k) {
    outcomes.push_back(cells[k]->harvest(t0, t1));
    const std::uint64_t events = engine.shard(k).executed_events();
    outcomes.back().part.sim_events_dispatched = events;
    min_events = std::min(min_events, events);
    max_events = std::max(max_events, events);
  }
  ExperimentResult result = merge_cells(config, outcomes);
  result.sim_wheel_cascades = engine.wheel_cascades();

  ShardSummary& summary = result.shard_summary;
  fold_counters(summary, engine.stats());
  summary.shards = num_shards;
  summary.requested = plan.requested;
  summary.lookahead = hop;
  summary.min_shard_events = min_events;
  summary.max_shard_events = max_events;
  return result;
}

}  // namespace sst::experiment
