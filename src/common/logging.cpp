#include "common/logging.hpp"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/time.h>
#endif

namespace sst {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

std::atomic<unsigned> g_next_thread_tag{0};

/// Small dense per-thread tag ("T0", "T1", ...) assigned on first log from
/// that thread. Sweep workers each get their own, so interleaved lines stay
/// attributable.
unsigned thread_tag() {
  thread_local const unsigned tag =
      g_next_thread_tag.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

/// Wall-clock "HH:MM:SS.mmm" — wall time, not sim time: it tells the reader
/// when the process emitted the line. Call sites stream sim time themselves
/// when it matters.
void append_wall_clock(std::string& line) {
  long ms = 0;
  std::time_t secs = 0;
#if defined(__unix__) || defined(__APPLE__)
  struct timeval tv{};
  gettimeofday(&tv, nullptr);
  secs = tv.tv_sec;
  ms = tv.tv_usec / 1000;
#else
  secs = std::time(nullptr);
#endif
  struct tm parts{};
#if defined(_WIN32)
  localtime_s(&parts, &secs);
#else
  localtime_r(&secs, &parts);
#endif
  char buf[64];  // room for any int fields, so the format never truncates
  std::snprintf(buf, sizeof buf, "%02d:%02d:%02d.%03ld", parts.tm_hour,
                parts.tm_min, parts.tm_sec, ms);
  line.append(buf);
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

namespace detail {

void log_emit(LogLevel level, std::string_view component, std::string_view message) {
  std::string line;
  line.reserve(component.size() + message.size() + 32);
  line.append("[");
  append_wall_clock(line);
  line.append("][T");
  line.append(std::to_string(thread_tag()));
  line.append("][");
  line.append(to_string(level));
  line.append("][");
  line.append(component);
  line.append("] ");
  line.append(message);
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace detail
}  // namespace sst
