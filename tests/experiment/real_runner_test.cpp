// Real runs go through the same cell pipeline as simulated ones: a failing
// reactor's exception reaches the caller with its own type, and every
// reactor gets its own thread, on a sweep worker too. Both need io_uring;
// a sparse temporary file backs the rings.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/sweep.hpp"
#include "experiment/thread_watch.hpp"
#include "workload/generator.hpp"

namespace sst::experiment {
namespace {

/// A temporary file of `size` zero bytes, removed with the object.
class BackingFile {
 public:
  explicit BackingFile(Bytes size) {
    char tmpl[] = "/tmp/sst_real_runner_XXXXXX";
    const int fd = ::mkstemp(tmpl);
    if (fd < 0) return;
    if (::ftruncate(fd, static_cast<off_t>(size)) == 0) {
      path_ = tmpl;
    } else {
      ::unlink(tmpl);
    }
    ::close(fd);
  }
  BackingFile(const BackingFile&) = delete;
  BackingFile& operator=(const BackingFile&) = delete;
  ~BackingFile() {
    if (!path_.empty()) ::unlink(path_.c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Four raw 64 KiB streams over two single-disk controllers of `path`, on
/// two reactors.
ExperimentConfig two_reactor_config(const std::string& path) {
  ExperimentConfig config;
  config.topology.node.num_controllers = 2;
  config.topology.node.disks_per_controller = 1;
  config.streams = workload::make_uniform_streams(
      4, 2, config.topology.logical_device_capacity(), 64 * KiB);
  config.warmup = msec(50);
  config.measure = msec(200);
  config.backend.kind = BackendConfig::Kind::kReal;
  config.backend.path = path;
  config.backend.reactors = 2;
  return config;
}

TEST(RealRunner, AFailingReactorThrowsItsOwnException) {
  if (!real_backend_available()) GTEST_SKIP() << "needs a build with -DSST_WITH_URING=ON";
  const BackingFile file(8 * MiB);
  ASSERT_FALSE(file.path().empty());
  ExperimentConfig config = two_reactor_config(file.path());
  // A stream on device 7 of 2 fails its reactor's client set-up.
  config.streams.resize(1);
  config.streams[0].device = 7;
  EXPECT_THROW((void)run_experiment(config), std::out_of_range);
}

TEST(RealRunner, SweepWorkersGiveEveryReactorItsOwnThread) {
  if (!real_backend_available()) GTEST_SKIP() << "needs a build with -DSST_WITH_URING=ON";
  ASSERT_GT(process_threads(), 0u) << "no /proc/self/status";
  const BackingFile file(8 * MiB);
  ASSERT_FALSE(file.path().empty());
  const std::vector<ExperimentConfig> grid(2, two_reactor_config(file.path()));
  constexpr unsigned kWorkers = 2;
  std::vector<ExperimentResult> swept;
  // Each worker runs one reactor itself and starts a thread for the other.
  EXPECT_GT(threads_added_during([&grid, &swept] { swept = run_sweep(grid, kWorkers); }),
            kWorkers)
      << "a sweep worker ran its reactors in order";
  ASSERT_EQ(swept.size(), grid.size());
  for (const ExperimentResult& result : swept) {
    EXPECT_EQ(result.reactor_summary.reactors, 2u);
    EXPECT_GT(result.requests_completed, 0u);
  }
}

}  // namespace
}  // namespace sst::experiment
