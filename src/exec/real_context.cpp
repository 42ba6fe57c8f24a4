#include "exec/real_context.hpp"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <thread>

namespace sst::exec {

namespace {

/// Safety ceiling on any single blocking wait. Completion wakeups are
/// event-driven (eventfd / in-ring), so this never fires on the hot path;
/// it bounds the damage of a lost-wakeup bug to a 1 Hz retry instead of a
/// hang.
constexpr SimTime kMaxBlock = sec(1);

}  // namespace

RealContext::RealContext() : epoch_(std::chrono::steady_clock::now()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  if (epoll_fd_ >= 0 && timer_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr tags the deadline timer
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) != 0) {
      ::close(timer_fd_);
      timer_fd_ = -1;
    }
  }
}

RealContext::~RealContext() {
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

SimTime RealContext::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

TaskHandle RealContext::schedule_at(SimTime when, TaskFn fn) {
  const TimerWheel::Id id = wheel_.insert(std::max(when, wheel_.cursor()), std::move(fn));
  return make_handle(id.slot, id.generation);
}

SimTime RealContext::fire_due() {
  const SimTime turn = now();
  for (;;) {
    const SimTime next = wheel_.next_time();
    if (next > turn) return next;
    wheel_.collect_batch(next);
    wheel_.fire_batch(UINT64_MAX);
  }
}

std::size_t RealContext::total_in_flight() const {
  std::size_t total = 0;
  for (const CompletionDriver* driver : drivers_) total += driver->in_flight();
  return total;
}

std::uint64_t RealContext::drain_event_fd(int fd) {
  std::uint64_t count = 0;
  // Non-blocking eventfd semantics: one read returns (and resets) the
  // whole counter; EAGAIN just means nothing was pending.
  return ::read(fd, &count, sizeof(count)) == sizeof(count) ? count : 0;
}

void RealContext::wait_multiplexed(SimTime max_wait) {
  // Arm the deadline (relative, capped by the safety ceiling) and block in
  // one epoll_wait over every ring eventfd plus the timerfd — no
  // starvation, no polling nap: the first completion on any ring wakes us.
  const SimTime deadline = std::min(max_wait, kMaxBlock);
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(deadline / 1'000'000'000ULL);
  spec.it_value.tv_nsec = static_cast<long>(deadline % 1'000'000'000ULL);
  if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
    spec.it_value.tv_nsec = 1;  // "now", but still a valid one-shot arm
  }
  ::timerfd_settime(timer_fd_, 0, &spec, nullptr);

  epoll_event events[16];
  int ready;
  do {
    ready = ::epoll_wait(epoll_fd_, events,
                         static_cast<int>(std::size(events)), -1);
  } while (ready < 0 && errno == EINTR);
  ++stats_.wakeups;
  ++stats_.epoll_waits;
  if (ready < 0) return;

  bool deadline_fired = false;
  bool signalled = false;
  std::size_t delivered = 0;
  for (int i = 0; i < ready; ++i) {
    if (events[i].data.ptr == nullptr) {
      drain_event_fd(timer_fd_);
      deadline_fired = true;
      continue;
    }
    auto* driver = static_cast<CompletionDriver*>(events[i].data.ptr);
    signalled = drain_event_fd(driver->event_fd()) > 0 || signalled;
    delivered += driver->poll(0);
  }
  stats_.completions += delivered;
  if (delivered > 0) {
    ++stats_.completion_wakeups;
  } else if (deadline_fired) {
    ++stats_.timer_wakeups;
  } else if (signalled) {
    ++stats_.stale_wakeups;  // the signal's completions went out in a sweep
  } else {
    ++stats_.spurious_wakeups;
  }
}

void RealContext::wait_for_work(SimTime max_wait) {
  // Non-blocking sweep over every busy driver: reap already-posted
  // completions without a syscall. Staged SQEs deliberately stay local
  // through the sweep — they are pushed at the last moment before any
  // blocking decision, so completion callbacks that submit during the
  // sweep coalesce into one larger batch. (Staged work always lives on a
  // busy driver: staging implies an in-flight pending entry.)
  std::size_t delivered = 0;
  std::size_t busy = 0;
  CompletionDriver* sole = nullptr;
  bool all_multiplexed = epoll_fd_ >= 0 && timer_fd_ >= 0;
  for (CompletionDriver* driver : drivers_) {
    if (driver->in_flight() == 0) continue;
    ++busy;
    if (sole == nullptr) sole = driver;
    const int efd = driver->event_fd();
    if (efd >= 0) {
      drain_event_fd(efd);  // keep the edge clean for the next epoll round
    } else {
      all_multiplexed = false;
    }
    delivered += driver->poll(0);
  }
  stats_.completions += delivered;
  if (delivered > 0 || max_wait == 0) return;

  if (busy == 0) {
    // No I/O outstanding: completions cannot arrive (submissions only
    // happen from this thread), so a plain sleep until the next timer is
    // exact — no responsive-floor spin.
    ++stats_.wakeups;
    ++stats_.idle_sleeps;
    ++stats_.timer_wakeups;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min(max_wait, kMaxBlock)));
    return;
  }

  if (busy == 1 && (sole->event_fd() < 0 || !all_multiplexed)) {
    // One busy ring without an eventfd: block inside it. The driver
    // combines its staged submissions with the completion wait in a single
    // io_uring_enter, so the steady-state single-device hot path costs ~1
    // syscall per batch. (Eventfd-backed rings prefer the epoll path below
    // even when alone: timer-dense workloads would otherwise pay a
    // wait-only enter per wakeup, and completions reach epoll anyway.)
    ++stats_.wakeups;
    ++stats_.inring_waits;
    const SimTime target = now() + max_wait;
    const std::size_t n = sole->poll(std::min(max_wait, kMaxBlock));
    stats_.completions += n;
    if (n > 0) {
      ++stats_.completion_wakeups;
    } else if (now() >= target) {
      ++stats_.timer_wakeups;
    } else {
      ++stats_.spurious_wakeups;
    }
    return;
  }

  // Several busy rings: the wait happens outside any single ring, so every
  // ring's staged batch must be pushed first (one enter per ring holding
  // work) before blocking.
  for (CompletionDriver* driver : drivers_) driver->flush();

  if (all_multiplexed) {
    wait_multiplexed(max_wait);
    return;
  }

  // Fallback for drivers without an eventfd among several busy ones:
  // block briefly in the first busy ring, then resweep — the pre-epoll
  // discipline, kept only for foreign CompletionDriver implementations.
  ++stats_.wakeups;
  ++stats_.inring_waits;
  std::size_t n = sole->poll(std::min<SimTime>(max_wait, msec(1)));
  for (CompletionDriver* driver : drivers_) {
    if (driver != sole && driver->in_flight() > 0) n += driver->poll(0);
  }
  stats_.completions += n;
  if (n > 0) {
    ++stats_.completion_wakeups;
  } else {
    ++stats_.timer_wakeups;
  }
}

void RealContext::add_driver(CompletionDriver* driver) {
  drivers_.push_back(driver);
  const int efd = driver->event_fd();
  if (efd >= 0 && epoll_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = driver;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, efd, &ev);
  }
}

void RealContext::remove_driver(CompletionDriver* driver) {
  const int efd = driver->event_fd();
  if (efd >= 0 && epoll_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, efd, nullptr);
  }
  drivers_.erase(std::remove(drivers_.begin(), drivers_.end(), driver),
                 drivers_.end());
}

void RealContext::run_until(SimTime deadline) {
  for (;;) {
    const SimTime next = fire_due();
    const SimTime t = now();
    if (t >= deadline) {
      // One last non-blocking sweep: a reactor descheduled across the
      // deadline still delivers the completions posted by it.
      wait_for_work(0);
      return;
    }
    const SimTime target = std::min(deadline, next);
    wait_for_work(target > t ? target - t : 0);
  }
}

void RealContext::run() {
  for (;;) {
    const SimTime next = fire_due();
    if (wheel_.size() == 0 && total_in_flight() == 0) return;
    // Sleep exactly until the next due time; in-flight I/O wakes the
    // reactor through the event path, so no responsive floor is needed.
    // With I/O pending and no tasks at all, the safety ceiling bounds the
    // block.
    const SimTime t = now();
    SimTime wait = kMaxBlock;
    if (next != kSimTimeMax) wait = next > t ? next - t : 0;
    wait_for_work(wait);
  }
}

}  // namespace sst::exec
