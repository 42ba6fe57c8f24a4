// Deterministic, seedable fault injector. Device wrappers (and the network
// layer) consult it once per command; it answers with what should happen to
// that command. Decisions are hash-based over (seed, device, offset), not
// drawn from a shared sequential RNG, which gives two properties the sweep
// cache and the tests depend on:
//
//  1. Same-seed replay: the fault schedule is a pure function of the
//     configuration, byte-identical across runs and across SST_BENCH_THREADS
//     values (each experiment owns its injector; nothing is shared).
//  2. Consistent geography: an offset that fails keeps failing (until a
//     transient error clears), exactly like a real grown defect — so the
//     retry hierarchy above is exercised honestly instead of being saved by
//     an independent re-roll.
//
// The only mutable state is the per-extent attempt counter that makes
// transient errors clear after N tries; it is bounded by the number of
// distinct faulted extents.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/counters.hpp"
#include "fault/params.hpp"

namespace sst::fault {

enum class FaultAction : std::uint8_t {
  kNone,        ///< pass through untouched
  kMediaError,  ///< complete with IoStatus::kMediaError after device timing
  kHang,        ///< never complete (swallow the command)
  kSpike,       ///< complete normally, delayed by FaultDecision::extra_delay
};

struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  bool persistent = false;   ///< media errors only: never clears
  SimTime extra_delay = 0;   ///< spikes only
};

struct FaultStats {
  std::uint64_t commands_seen = 0;
  std::uint64_t media_errors = 0;       ///< injected error completions
  std::uint64_t persistent_errors = 0;  ///< subset of media_errors
  std::uint64_t hangs = 0;
  std::uint64_t spikes = 0;
  /// Exported as fault.*.
  static constexpr counters::Counter<FaultStats> kCounters[] = {
      {"commands_seen", &FaultStats::commands_seen},
      {"media_errors", &FaultStats::media_errors},
      {"persistent_errors", &FaultStats::persistent_errors},
      {"hangs", &FaultStats::hangs},
      {"spikes", &FaultStats::spikes},
  };
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultParams params);

  /// Decide the fate of one command. Mutates only the transient-attempt
  /// table; everything else is a pure hash of (seed, device, offset).
  [[nodiscard]] FaultDecision decide(std::uint32_t device, ByteOffset offset,
                                     Bytes length, IoOp op);

  [[nodiscard]] const FaultParams& params() const { return params_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  [[nodiscard]] bool targets(std::uint32_t device) const;
  [[nodiscard]] bool in_bad_range(std::uint32_t device, ByteOffset offset,
                                  Bytes length) const;
  /// Uniform [0,1) draw keyed by (seed, salt, device, offset) — stateless.
  [[nodiscard]] double draw(std::uint64_t salt, std::uint32_t device,
                            ByteOffset offset) const;

  FaultParams params_;
  FaultStats stats_;
  /// Remaining failures per transient-faulted extent, keyed by
  /// (device, offset). Erased once the error clears.
  std::unordered_map<std::uint64_t, std::uint32_t> transient_left_;
};

}  // namespace sst::fault
