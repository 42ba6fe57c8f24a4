// Tiny key=value configuration store. Experiments and examples accept
// "key=value" pairs on the command line (mirroring DiskSim's parameter-file
// style) and look values up with typed accessors that support size suffixes
// (K/M/G, powers of two) and time suffixes (ns/us/ms/s).
//
// A getter returns its fallback when the key is absent. A present value it
// cannot use (malformed, negative or out of range) also yields the fallback
// and becomes the config's first error, which names the key. Every getter
// marks its key read, so status() can also reject a key nothing read: a
// typo such as sched.readahead would otherwise silently run the defaults.
// Getters record through a const Config; one thread reads a Config at a
// time.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace sst {

class Config {
 public:
  Config() = default;

  /// Parse a list of "key=value" tokens (e.g. argv tail). Unknown formats
  /// produce an error naming the offending token.
  static Result<Config> from_args(const std::vector<std::string>& args);

  /// Parse newline-separated "key=value" text; '#' starts a comment.
  static Result<Config> from_text(std::string_view text);

  void set(std::string key, std::string value);
  [[nodiscard]] bool contains(std::string_view key) const;

  [[nodiscard]] std::string get_string(std::string_view key, std::string fallback) const;
  /// A non-negative base-10 integer.
  [[nodiscard]] std::uint64_t get_uint(std::string_view key, std::uint64_t fallback) const;
  /// get_uint for 32-bit fields: a value above 2^32-1 is out of range.
  [[nodiscard]] std::uint32_t get_uint32(std::string_view key, std::uint32_t fallback) const;
  /// A finite, non-negative number ("0.25", "1e-3").
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  /// Accepts raw bytes or suffixed sizes: "64K", "8M", "1G" (binary units).
  [[nodiscard]] Bytes get_bytes(std::string_view key, Bytes fallback) const;
  /// Accepts "500us", "10ms", "2s", or raw nanoseconds.
  [[nodiscard]] SimTime get_duration(std::string_view key, SimTime fallback) const;
  /// The value of the choice whose name the key holds, e.g.
  /// get_choice("disk.scheduler", kFcfs, {{"fcfs", kFcfs}, {"sstf", kSstf}}).
  template <typename T>
  [[nodiscard]] T get_choice(
      std::string_view key, T fallback,
      std::initializer_list<std::pair<std::string_view, T>> choices) const {
    const std::string* text = find(key);
    if (text == nullptr) return fallback;
    std::string names;
    for (const auto& [name, value] : choices) {
      if (*text == name) return value;
      if (!names.empty()) names += '|';
      names += name;
    }
    fail(key, "expected one of " + names + ", got '" + *text + "'");
    return fallback;
  }

  /// The first error a getter recorded; else, with `every_key_read`, an
  /// error naming the first key (in key order) that no getter read.
  [[nodiscard]] Status status(bool every_key_read) const;

  [[nodiscard]] const std::map<std::string, std::string, std::less<>>& entries() const {
    return entries_;
  }

  /// Standalone parsers, reused by getters and directly by tests.
  static Result<Bytes> parse_bytes(std::string_view text);
  static Result<SimTime> parse_duration(std::string_view text);
  static Result<bool> parse_bool(std::string_view text);

 private:
  /// The value stored under `key`, now marked read; null when absent.
  [[nodiscard]] const std::string* find(std::string_view key) const;
  /// Record "key: problem" as the config's error unless one came first.
  void fail(std::string_view key, const std::string& problem) const;
  /// `parse` applied to the value under `key`: the fallback when the key is
  /// absent or `parse` fails, which records the failure.
  template <typename T>
  [[nodiscard]] T get_parsed(std::string_view key, T fallback,
                             Result<T> (*parse)(std::string_view)) const;

  std::map<std::string, std::string, std::less<>> entries_;
  mutable std::set<std::string, std::less<>> read_;
  mutable std::string first_error_;
};

}  // namespace sst
