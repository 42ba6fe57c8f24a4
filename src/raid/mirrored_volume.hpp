// RAID-1 mirrored volume over N block devices. Reads are routed to one
// replica chosen by a read policy; writes fan out to every replica and
// complete when the slowest lands. For multi-stream sequential workloads
// the interesting read policy is stream-affine routing (stable per-region
// assignment), which preserves per-disk sequentiality — round-robin
// routing destroys it, exactly like a too-small disk-cache segment count.
//
// Robustness: every member carries a health state (up -> suspect ->
// failed). An error completion marks the member suspect and fails the read
// over to an untried healthy replica; `fail_threshold` consecutive errors
// declare the member failed and reads/writes route around it (degraded
// mode). A success while suspect heals the member back to up. Hung members
// never complete here — stack a core::ReliableDevice on each member so
// hangs surface as kTimeout errors this layer can fail over.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/counters.hpp"
#include "obs/tracer.hpp"

namespace sst::raid {

enum class ReadPolicy : std::uint8_t {
  kRoundRobin,     ///< rotate replicas per request
  kRegionAffine,   ///< replica = hash of the request's 64 MB region
};

enum class MemberHealth : std::uint8_t {
  kUp,       ///< healthy, serves reads and writes
  kSuspect,  ///< recent errors; still used, heals on success
  kFailed,   ///< error threshold crossed; routed around (sticky)
};

[[nodiscard]] constexpr const char* to_string(MemberHealth h) {
  switch (h) {
    case MemberHealth::kUp: return "up";
    case MemberHealth::kSuspect: return "suspect";
    case MemberHealth::kFailed: return "failed";
  }
  return "?";
}

struct MirrorParams {
  /// Consecutive errors that move a member from suspect to failed.
  std::uint32_t fail_threshold = 3;
};

struct MirrorStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t member_errors = 0;    ///< error completions from members
  std::uint64_t failovers = 0;        ///< reads retried on another replica
  std::uint64_t degraded_reads = 0;   ///< preferred replica was failed
  std::uint64_t degraded_writes = 0;  ///< fan-out skipped a failed member
  std::uint64_t read_failures = 0;    ///< reads failed on every replica
  std::uint64_t write_failures = 0;   ///< writes that landed on no replica
  /// Exported as raid.* under kMirror.
  static constexpr counters::Counter<MirrorStats> kCounters[] = {
      {"reads", &MirrorStats::reads},
      {"writes", &MirrorStats::writes},
      {"member_errors", &MirrorStats::member_errors},
      {"failovers", &MirrorStats::failovers},
      {"degraded_reads", &MirrorStats::degraded_reads},
      {"degraded_writes", &MirrorStats::degraded_writes},
      {"read_failures", &MirrorStats::read_failures},
      {"write_failures", &MirrorStats::write_failures},
  };
};

class MirroredVolume final : public blockdev::BlockDevice {
 public:
  /// Devices must outlive the volume; capacity is the smallest member's.
  MirroredVolume(std::vector<blockdev::BlockDevice*> members, ReadPolicy policy,
                 MirrorParams params = {});

  void submit(blockdev::BlockRequest request) override;

  [[nodiscard]] Bytes capacity() const override { return capacity_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }

  /// Which replica a read at `offset` goes to by policy alone (health is
  /// applied on top; exposed for tests).
  [[nodiscard]] std::size_t route_read(ByteOffset offset);

  [[nodiscard]] MemberHealth member_health(std::size_t member) const {
    return health_[member].state;
  }
  [[nodiscard]] std::size_t failed_member_count() const;
  [[nodiscard]] const MirrorStats& stats() const { return stats_; }

  /// Attach a per-experiment tracer (nullptr detaches); failovers and
  /// member state transitions land as instants on the volume's members'
  /// request tracks. The tracer must outlive the volume.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Member {
    MemberHealth state = MemberHealth::kUp;
    std::uint32_t consecutive_errors = 0;
  };
  /// One read's failover state, shared across member attempts.
  struct ReadAttempt {
    ByteOffset offset = 0;
    Bytes length = 0;
    RequestId id = kInvalidRequest;
    std::byte* data = nullptr;
    IoCompletion cb;
    std::uint64_t tried = 0;       ///< bitmask of members already attempted
    std::size_t preferred = 0;     ///< the policy's pick (decided once)
    IoStatus last_status = IoStatus::kDeviceFailed;
  };

  void submit_read(blockdev::BlockRequest request);
  void try_read(const std::shared_ptr<ReadAttempt>& attempt, bool is_failover);
  /// First untried member serving reads, walking from the policy pick; -1
  /// if every member is tried or failed.
  [[nodiscard]] int pick_member(std::size_t preferred, std::uint64_t tried) const;
  void note_error(std::size_t member, IoStatus status, SimTime when);
  void note_success(std::size_t member);

  std::vector<blockdev::BlockDevice*> members_;
  ReadPolicy policy_;
  MirrorParams params_;
  std::vector<Member> health_;
  Bytes capacity_ = 0;
  std::size_t next_ = 0;
  MirrorStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace sst::raid
