#include "node/device_stack.hpp"

#include <cassert>
#include <utility>

#include "common/counters.hpp"

namespace sst::io {

workload::RequestSink DeviceStack::wrap_sink(workload::RequestSink sink) {
  if (!network_.has_value()) return sink;
  assert(remote_ == nullptr && "wrap_sink may only be called once");
  remote_ = std::make_unique<net::RemoteSink>(*sim_, std::move(sink), *network_);
  if (injector_ != nullptr) {
    // The link is one more faultable device, keyed just past the disks.
    remote_->set_fault_injector(injector_.get(),
                                static_cast<std::uint32_t>(physical_count_));
  }
  return remote_->sink();
}

void DeviceStack::attach_tracer(obs::Tracer* tracer) {
  for (auto& dev : faulty_) dev->set_tracer(tracer);
  for (auto& dev : reliable_) dev->set_tracer(tracer);
  for (auto& vol : mirrors_) vol->set_tracer(tracer);
}

core::RetryStats DeviceStack::retry_totals() const {
  core::RetryStats totals;
  for (const auto& dev : reliable_) fold_counters(totals, dev->stats());
  return totals;
}

raid::MirrorStats DeviceStack::mirror_totals() const {
  raid::MirrorStats totals;
  for (const auto& vol : mirrors_) fold_counters(totals, vol->stats());
  return totals;
}

DeviceStackBuilder::DeviceStackBuilder(exec::ExecutionContext& simulator,
                                       std::vector<blockdev::BlockDevice*> base)
    : stack_(new DeviceStack()) {
  assert(!base.empty());
  stack_->sim_ = &simulator;
  stack_->physical_count_ = base.size();
  stack_->top_ = std::move(base);
}

DeviceStackBuilder& DeviceStackBuilder::with_fault(const fault::FaultParams& params) {
  assert(stack_->injector_ == nullptr && "fault layer already added");
  assert(stack_->raid_spec_.kind == RaidSpec::Kind::kNone &&
         "fault layer must sit below raid");
  stack_->injector_ = std::make_unique<fault::FaultInjector>(params);
  auto& devices = stack_->top_;
  stack_->faulty_.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    stack_->faulty_.push_back(std::make_unique<fault::FaultyDevice>(
        *stack_->sim_, *devices[i], *stack_->injector_, static_cast<std::uint32_t>(i)));
    devices[i] = stack_->faulty_.back().get();
  }
  return *this;
}

DeviceStackBuilder& DeviceStackBuilder::with_retry(const core::RetryParams& params) {
  assert(stack_->reliable_.empty() && "retry layer already added");
  assert(stack_->raid_spec_.kind == RaidSpec::Kind::kNone &&
         "retry layer must sit below raid");
  auto& devices = stack_->top_;
  stack_->reliable_.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    stack_->reliable_.push_back(std::make_unique<core::ReliableDevice>(
        *stack_->sim_, *devices[i], params, static_cast<std::uint32_t>(i)));
    devices[i] = stack_->reliable_.back().get();
  }
  return *this;
}

DeviceStackBuilder& DeviceStackBuilder::with_mirror(std::uint32_t ways,
                                                    raid::ReadPolicy policy,
                                                    raid::MirrorParams params) {
  assert(ways >= 2);
  assert(stack_->raid_spec_.kind == RaidSpec::Kind::kNone && "raid layer already added");
  auto& devices = stack_->top_;
  assert(devices.size() % ways == 0 && "device count must divide into mirror groups");
  stack_->raid_spec_.kind = RaidSpec::Kind::kMirror;
  stack_->raid_spec_.mirror_ways = ways;
  stack_->raid_spec_.mirror_policy = policy;
  stack_->raid_spec_.mirror = params;
  std::vector<blockdev::BlockDevice*> logical;
  logical.reserve(devices.size() / ways);
  for (std::size_t group = 0; group < devices.size(); group += ways) {
    std::vector<blockdev::BlockDevice*> members(devices.begin() + group,
                                                devices.begin() + group + ways);
    stack_->mirrors_.push_back(
        std::make_unique<raid::MirroredVolume>(std::move(members), policy, params));
    logical.push_back(stack_->mirrors_.back().get());
  }
  devices = std::move(logical);
  return *this;
}

DeviceStackBuilder& DeviceStackBuilder::with_stripe(Bytes stripe_unit) {
  assert(stack_->raid_spec_.kind == RaidSpec::Kind::kNone && "raid layer already added");
  stack_->raid_spec_.kind = RaidSpec::Kind::kStripe;
  stack_->raid_spec_.stripe_unit = stripe_unit;
  stack_->stripe_ = std::make_unique<raid::StripedVolume>(stack_->top_, stripe_unit);
  stack_->top_ = {stack_->stripe_.get()};
  return *this;
}

DeviceStackBuilder& DeviceStackBuilder::with_network(const net::LinkParams& params) {
  stack_->network_ = params;
  return *this;
}

DeviceStackBuilder& DeviceStackBuilder::apply(const StackSpec& spec) {
  if (spec.fault.enabled()) with_fault(spec.fault);
  if (spec.retry_enabled()) with_retry(spec.retry.value_or(core::RetryParams{}));
  switch (spec.raid.kind) {
    case RaidSpec::Kind::kNone: break;
    case RaidSpec::Kind::kMirror:
      with_mirror(spec.raid.mirror_ways, spec.raid.mirror_policy, spec.raid.mirror);
      break;
    case RaidSpec::Kind::kStripe:
      with_stripe(spec.raid.stripe_unit);
      break;
  }
  if (spec.network.has_value()) with_network(*spec.network);
  return *this;
}

std::unique_ptr<DeviceStack> DeviceStackBuilder::build() {
  assert(!built_ && "build() may only be called once");
  built_ = true;
  return std::move(stack_);
}

}  // namespace sst::io
