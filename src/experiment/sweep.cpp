#include "experiment/sweep.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"

namespace sst::experiment {

namespace {

thread_local bool t_sweep_worker = false;

}  // namespace

bool on_sweep_worker() { return t_sweep_worker; }

unsigned default_sweep_workers() {
  if (const char* env = std::getenv("SST_BENCH_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1 && parsed <= 1024) {
      return static_cast<unsigned>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<ExperimentResult> run_sweep_jobs(
    const std::vector<std::function<ExperimentResult()>>& jobs, unsigned workers) {
  if (workers == 0) workers = default_sweep_workers();
  std::vector<ExperimentResult> results(jobs.size());
  if (jobs.empty()) return results;

  if (workers == 1 || jobs.size() == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) results[i] = jobs[i]();
    return results;
  }

  // Dynamic claiming: grid points vary widely in cost (stream count scales
  // event volume), so a shared index balances better than static slicing.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  {
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(workers, jobs.size())));
    for (unsigned w = 0; w < pool.worker_count(); ++w) {
      pool.submit([&]() {
        t_sweep_worker = true;
        for (std::size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1)) {
          try {
            results[i] = jobs[i]();
          } catch (...) {
            std::lock_guard lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
            next.store(jobs.size());  // stop claiming further points
            return;
          }
        }
      });
    }
    pool.wait_idle();
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

std::vector<ExperimentResult> run_sweep(const std::vector<ExperimentConfig>& configs,
                                        unsigned workers) {
  std::vector<std::function<ExperimentResult()>> jobs;
  jobs.reserve(configs.size());
  for (const ExperimentConfig& config : configs) {
    jobs.emplace_back([&config]() { return run_experiment(config); });
  }
  return run_sweep_jobs(jobs, workers);
}

}  // namespace sst::experiment
