// Thread counting for tests of how many threads a run starts: this
// process's thread count from /proc/self/status, sampled while a call runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

namespace sst::experiment {

/// Threads of this process.
inline std::uint32_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::uint32_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// How many more threads than at its start the process held while `fn`
/// ran, at the most. A watcher thread samples the count every 100 us and
/// takes its first sample, the baseline, before `fn` starts, so helper
/// threads a runtime starts with the first thread (a sanitizer's) count in
/// the baseline. A cell's thread lives for its whole cell, far longer than
/// the sampling period.
inline std::uint32_t threads_added_during(const std::function<void()>& fn) {
  std::atomic<std::uint32_t> baseline{0};
  std::atomic<std::uint32_t> peak{0};
  std::atomic<bool> done{false};
  std::thread watcher([&baseline, &peak, &done] {
    baseline.store(process_threads());
    while (!done.load()) {
      peak.store(std::max(peak.load(), process_threads()));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  while (baseline.load() == 0) std::this_thread::yield();
  fn();
  done.store(true);
  watcher.join();
  return peak.load() - baseline.load();
}

}  // namespace sst::experiment
