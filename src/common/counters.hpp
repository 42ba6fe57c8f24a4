// Counter tables. Each per-layer stats struct declares its counters once, in
// a `kCounters` table beside its fields: {exported key, field, fold, unit}.
// Cells fold a counter by sum or max; a kMillis counter is a SimTime total
// exported in milliseconds. fold_counters() and export_counters() walk the
// tables, so a new counter is one table line plus its increment.
//
// Two other kinds of line name no `field`: `buckets`, a fixed array of
// counters summed element-wise and exported as one array, and `derive`, a
// figure computed from the folded counters and exported as a gauge. A
// struct field without a line fails the build where the table is used.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace sst {
namespace counters {

enum Fold : std::uint8_t { kSum, kMax };
enum Unit : std::uint8_t { kCount, kMillis };

/// One line of S's table; N sizes the `buckets` array.
template <class S, std::size_t N = 0>
struct Counter {
  using Stats = S;
  std::string_view key;
  std::uint64_t S::* field = nullptr;
  Fold fold = kSum;
  Unit unit = kCount;
  std::array<std::uint64_t, N> S::* buckets = nullptr;
  double (S::*derive)() const = nullptr;

  [[nodiscard]] constexpr std::size_t bytes() const {
    return (field != nullptr ? 1 : buckets != nullptr ? N : 0) * sizeof(std::uint64_t);
  }
};

/// True when T's table has a line for every field of the struct declaring
/// it: the lines account for all of its bytes.
template <class T>
consteval bool covers_every_field() {
  std::size_t bytes = 0;
  for (const auto& line : T::kCounters) bytes += line.bytes();
  return bytes == sizeof(typename std::remove_cvref_t<decltype(T::kCounters[0])>::Stats);
}

}  // namespace counters

/// Fold `from` into `into` line by line; `into` may be a summary deriving
/// from S.
template <class S>
void fold_counters(std::type_identity_t<S>& into, const S& from) {
  static_assert(counters::covers_every_field<S>(), "a stats field has no table line");
  for (const auto& line : S::kCounters) {
    if (line.field != nullptr) {
      std::uint64_t& total = into.*line.field;
      total = line.fold == counters::kMax ? std::max(total, from.*line.field)
                                          : total + from.*line.field;
    } else if (line.buckets != nullptr) {
      auto& totals = into.*line.buckets;
      for (std::size_t i = 0; i < totals.size(); ++i) totals[i] += (from.*line.buckets)[i];
    }
  }
}

/// Register every line of the table as "<group>.<key>", in table order.
template <class Registry, class S>
void export_counters(Registry& reg, std::string_view group, const S& stats) {
  static_assert(counters::covers_every_field<S>(), "a stats field has no table line");
  for (const auto& line : S::kCounters) {
    const std::string name = std::string(group) + '.' + std::string(line.key);
    if (line.derive != nullptr) {
      reg.gauge(name, (stats.*line.derive)());
    } else if (line.buckets != nullptr) {
      const auto& values = stats.*line.buckets;
      reg.array(name, std::vector<double>(values.begin(), values.end()));
    } else if (line.unit == counters::kMillis) {
      reg.gauge(name, to_millis(stats.*line.field));
    } else {
      reg.counter(name, stats.*line.field);
    }
  }
}

}  // namespace sst
