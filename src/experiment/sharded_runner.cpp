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
#include <deque>
#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "experiment/cell.hpp"
#include "experiment/runner.hpp"
#include "experiment/sharding.hpp"
#include "sim/sharded.hpp"

namespace sst::experiment {

namespace {

struct Route;

/// A request between its client's home shard and the shard that owns its
/// device, from issue until its completion is back home. The home shard
/// owns it; while the request is away only the owning shard touches it.
/// Holding the request and the client's completion here keeps both hop
/// tasks inline and the request's stand-in completion inside
/// std::function's small buffer, so no hop allocates memory that another
/// thread frees.
struct Hop {
  const Route* route = nullptr;
  core::ClientRequest request;
  IoCompletion done;
};

/// The hops of the clients homed on one shard, reused once returned.
class HopPool {
 public:
  Hop* acquire() {
    if (free_.empty()) return &hops_.emplace_back();
    Hop* hop = free_.back();
    free_.pop_back();
    return hop;
  }
  void release(Hop* hop) { free_.push_back(hop); }

 private:
  std::deque<Hop> hops_;  ///< stable addresses
  std::vector<Hop*> free_;
};

/// How requests of clients homed on `home` reach devices of `owner`: one
/// interconnect hop there and one back, both exactly `hop` (even for
/// home == owner, where the post degenerates to a local schedule), so
/// every stream pays the same round-trip tax and cross-shard posts satisfy
/// the lookahead contract by construction.
struct Route {
  sim::ShardedEngine* engine = nullptr;
  HopPool* pool = nullptr;  ///< the home shard's
  const workload::RequestSink* entry = nullptr;  ///< the owner cell's
  std::uint32_t home = 0;
  std::uint32_t owner = 0;
  SimTime hop = 0;

  /// On the home shard: park the request and send it.
  void send(core::ClientRequest req) const {
    Hop* h = pool->acquire();
    h->route = this;
    h->done = std::move(req.on_complete);
    req.on_complete = [h](SimTime completed_at, IoStatus status) {
      h->route->reply(h, completed_at, status);
    };
    h->request = std::move(req);
    engine->post(home, owner, engine->shard(home).now() + hop,
                 [h]() { (*h->route->entry)(std::move(h->request)); });
  }

  /// On the owner: carry the completion home, where the hop is released
  /// before the client sees it (the client may issue again at once).
  void reply(Hop* h, SimTime completed_at, IoStatus status) const {
    engine->post(owner, home, completed_at + hop, [h, status]() {
      const Route& route = *h->route;
      IoCompletion done = std::move(h->done);
      route.pool->release(h);
      done(route.engine->shard(route.home).now(), status);
    });
  }
};

}  // namespace

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
  std::vector<HopPool> hop_pools(num_shards);

  // Each shard's cell is built, started, harvested and destroyed on the
  // thread that runs its windows (ShardedEngine::on_each_shard).
  std::vector<std::unique_ptr<Cell>> cells(num_shards);
  engine.on_each_shard([&](std::uint32_t k) {
    cells[k] = std::make_unique<Cell>(engine.shard(k), config,
                                      cell_plan(config.topology, plan, k));
  });

  // Clients: round-robin across shards by spec ordinal — a pure function
  // of (spec order, shard count), so placement is deterministic and client
  // event work spreads evenly instead of serializing on one shard. Each
  // client's sink runs on its home shard and sends the request over the
  // Route to the shard that owns its device. The specs are rebased and
  // seeded in spec order first; each home cell then adds its clients in
  // that order.
  std::vector<workload::StreamSpec> local(config.streams.begin(), config.streams.end());
  std::vector<std::uint32_t> owner(local.size());
  std::vector<Bytes> capacity(local.size());
  std::vector<std::uint32_t> shard_ordinal(num_shards, 0);
  for (std::uint32_t i = 0; i < local.size(); ++i) {
    const std::uint32_t k = plan.shard_of_logical(local[i].device);
    owner[i] = k;
    local[i].device -= plan.slices[k].logical_begin;
    if (local[i].seed == 0) {
      local[i].seed =
          stream_seed(shard_workload_seed(config.workload_seed, k), shard_ordinal[k]);
    }
    ++shard_ordinal[k];
    capacity[i] = cells[k]->device_capacity(local[i].device);
  }
  std::vector<Route> routes(static_cast<std::size_t>(num_shards) * num_shards);
  for (std::uint32_t home = 0; home < num_shards; ++home) {
    for (std::uint32_t k = 0; k < num_shards; ++k) {
      routes[home * num_shards + k] =
          Route{&engine, &hop_pools[home], &cells[k]->entry(), home, k, hop};
    }
  }
  engine.on_each_shard([&](std::uint32_t home) {
    for (std::uint32_t i = home; i < local.size(); i += num_shards) {
      const Route* route = &routes[home * num_shards + owner[i]];
      cells[home]->add_client(
          i, local[i], capacity[i],
          [route](core::ClientRequest req) { route->send(std::move(req)); });
    }
    cells[home]->start();
  });

  engine.run_until(config.warmup);
  engine.on_each_shard([&](std::uint32_t k) { cells[k]->begin_measurement(); });
  const SimTime t0 = engine.now();
  const SimTime t1 = t0 + config.measure;
  engine.run_until(t1);

  std::vector<CellOutcome> outcomes(num_shards);
  engine.on_each_shard([&](std::uint32_t k) {
    outcomes[k] = cells[k]->harvest(t0, t1);
    outcomes[k].part.sim_events_dispatched = engine.shard(k).executed_events();
    cells[k].reset();
  });
  std::uint64_t min_events = ~0ULL;
  std::uint64_t max_events = 0;
  for (const CellOutcome& outcome : outcomes) {
    min_events = std::min(min_events, outcome.part.sim_events_dispatched);
    max_events = std::max(max_events, outcome.part.sim_events_dispatched);
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
