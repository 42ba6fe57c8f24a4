#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace sst::sim {

namespace {

/// How long a barrier waiter spins before it parks. Longer than a
/// balanced window's skew between shards, short enough that an idle
/// engine (between run_until calls, or a shard with nothing to do) gives
/// its cores back within a blink.
constexpr std::chrono::microseconds kSpinBudget{2000};

/// Wait until `word` no longer holds `stale` and return its new value.
/// Spins with yields first (cheap to wake, and an oversubscribed host still
/// runs whatever else wants the core), then parks on the futex.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word, std::uint32_t stale) {
  const auto start = std::chrono::steady_clock::now();
  std::uint32_t value = word.load(std::memory_order_acquire);
  while (value == stale && std::chrono::steady_clock::now() - start < kSpinBudget) {
    std::this_thread::yield();
    value = word.load(std::memory_order_acquire);
  }
  while (value == stale) {
    word.wait(stale, std::memory_order_acquire);
    value = word.load(std::memory_order_acquire);
  }
  return value;
}

}  // namespace

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
  failures_.resize(shards);
  workers_.reserve(shards - 1);
  for (std::uint32_t k = 1; k < shards; ++k) {
    workers_.emplace_back([this, k]() { worker_loop(k); });
  }
}

ShardedEngine::~ShardedEngine() {
  if (workers_.empty()) return;
  stopping_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& worker : workers_) worker.join();
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

void ShardedEngine::run_step(std::uint32_t k) noexcept {
  try {
    if (job_ != nullptr) {
      (*job_)(k);
      return;
    }
    drain_inbox(k, window_start_);
    shards_[k]->run_until(window_end_);
  } catch (...) {
    failures_[k] = std::current_exception();
  }
}

void ShardedEngine::worker_loop(std::uint32_t k) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(epoch_, seen);
    if (stopping_) return;
    run_step(k);
    if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) running_.notify_one();
  }
}

void ShardedEngine::dispatch(const std::function<void(std::uint32_t)>* job) {
  job_ = job;
  running_.store(shard_count() - 1, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  run_step(0);
  for (std::uint32_t left = running_.load(std::memory_order_acquire); left != 0;) {
    left = await_change(running_, left);
  }
  std::exception_ptr first;
  for (std::exception_ptr& failure : failures_) {
    if (!first) first = failure;
    failure = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void ShardedEngine::on_each_shard(const std::function<void(std::uint32_t)>& fn) {
  dispatch(&fn);
}

void ShardedEngine::run_until(SimTime deadline) {
  if (shard_count() == 1) {
    shards_[0]->run_until(deadline);
    now_ = deadline;
    return;
  }
  assert(deadline >= now_);
  while (true) {
    window_start_ = now_;
    window_end_ = std::min(deadline, now_ + lookahead_);
    dispatch(nullptr);
    ++stats_.windows;
    now_ = window_end_;
    const std::size_t staged = stage_mailboxes();
    stats_.horizon_violations = 0;
    for (const std::uint64_t v : violations_) stats_.horizon_violations += v;
    // The final window repeats (zero-width) while staged envelopes keep
    // landing events at exactly `deadline`, matching Simulator::run_until's
    // deadline-inclusive contract. Conservative senders post >= t + L, so
    // each repeat strictly shrinks the deliverable set and this terminates.
    if (window_end_ == deadline && staged == 0) break;
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
