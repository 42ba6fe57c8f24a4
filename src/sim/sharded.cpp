#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>

namespace sst::sim {

ShardedEngine::ShardedEngine(std::uint32_t shards, SimTime lookahead)
    : lookahead_(lookahead) {
  assert(shards >= 1);
  assert(shards == 1 || lookahead > 0);
  shards_.reserve(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  mail_.resize(static_cast<std::size_t>(shards) * shards);
  violations_.resize(shards, 0);
  if (shards > 1) pool_ = std::make_unique<ThreadPool>(shards);
}

void ShardedEngine::post(std::uint32_t from, std::uint32_t to, SimTime when,
                         exec::TaskFn fn) {
  assert(from < shard_count() && to < shard_count());
  if (from == to) {
    shards_[to]->schedule_at(std::max(when, shards_[to]->now()), std::move(fn));
    return;
  }
  mail_[static_cast<std::size_t>(from) * shard_count() + to].incoming.push_back(
      Envelope{when, std::move(fn)});
}

std::size_t ShardedEngine::stage_mailboxes() {
  std::size_t staged = 0;
  for (Mailbox& box : mail_) {
    if (box.incoming.empty()) continue;
    assert(box.ready.empty());  // the receiver consumed the last window's
    std::swap(box.incoming, box.ready);
    staged += box.ready.size();
  }
  stats_.cross_shard_events += staged;
  return staged;
}

void ShardedEngine::drain_inbox(std::uint32_t to, SimTime drain_time) {
  // Fixed sender order per receiver: the sequence numbers the receiver's
  // Simulator hands out — and with them every same-timestamp tie-break —
  // are a pure function of the mailbox contents.
  for (std::uint32_t from = 0; from < shard_count(); ++from) {
    auto& box = mail_[static_cast<std::size_t>(from) * shard_count() + to];
    for (Envelope& env : box.ready) {
      SimTime when = env.when;
      if (when < drain_time) {
        ++violations_[to];
        when = drain_time;
      }
      shards_[to]->schedule_at(when, std::move(env.fn));
    }
    box.ready.clear();
  }
}

void ShardedEngine::run_until(SimTime deadline) {
  if (shard_count() == 1) {
    shards_[0]->run_until(deadline);
    now_ = deadline;
    return;
  }
  assert(deadline >= now_);
  while (true) {
    const SimTime window_start = now_;
    const SimTime window_end = std::min(deadline, now_ + lookahead_);
    for (std::uint32_t k = 0; k < shard_count(); ++k) {
      Simulator* sim = shards_[k].get();
      pool_->submit([this, k, sim, window_start, window_end]() {
        drain_inbox(k, window_start);
        sim->run_until(window_end);
      });
    }
    pool_->wait_idle();
    ++stats_.windows;
    now_ = window_end;
    const std::size_t staged = stage_mailboxes();
    stats_.horizon_violations = 0;
    for (const std::uint64_t v : violations_) stats_.horizon_violations += v;
    // The final window repeats (zero-width) while staged envelopes keep
    // landing events at exactly `deadline`, matching Simulator::run_until's
    // deadline-inclusive contract. Conservative senders post >= t + L, so
    // each repeat strictly shrinks the deliverable set and this terminates.
    if (window_end == deadline && staged == 0) break;
  }
}

std::uint64_t ShardedEngine::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->executed_events();
  return total;
}

std::uint64_t ShardedEngine::wheel_cascades() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->wheel_cascades();
  return total;
}

}  // namespace sst::sim
