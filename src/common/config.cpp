#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace sst {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

Result<std::pair<double, std::string_view>> split_number_suffix(std::string_view text) {
  text = trim(text);
  if (text.empty()) return make_error("empty value");
  std::size_t pos = 0;
  while (pos < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
          text[pos] == '-' || text[pos] == '+')) {
    ++pos;
  }
  if (pos == 0) return make_error("value does not start with a number: '" + std::string(text) + "'");
  double number = 0.0;
  const std::string digits(text.substr(0, pos));
  char* end = nullptr;
  number = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str() || *end != '\0') {
    return make_error("malformed number: '" + digits + "'");
  }
  return std::make_pair(number, trim(text.substr(pos)));
}

Result<std::uint64_t> parse_uint(std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return make_error("expected a non-negative integer, got '" + std::string(text) + "'");
  }
  return value;
}

Result<double> parse_number(std::string_view text) {
  const std::string digits(text);
  char* end = nullptr;
  const double value = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str() || end != digits.c_str() + digits.size() ||
      !std::isfinite(value) || value < 0.0) {
    return make_error("expected a non-negative number, got '" + digits + "'");
  }
  return value;
}

}  // namespace

Result<Config> Config::from_args(const std::vector<std::string>& args) {
  Config cfg;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      return make_error("expected key=value, got '" + arg + "'");
    }
    cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return cfg;
}

Result<Config> Config::from_text(std::string_view text) {
  Config cfg;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto nl = text.find('\n', start);
    std::string_view line =
        text.substr(start, nl == std::string_view::npos ? std::string_view::npos : nl - start);
    start = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return make_error("expected key=value, got '" + std::string(line) + "'");
    }
    cfg.set(std::string(trim(line.substr(0, eq))), std::string(trim(line.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  entries_.insert_or_assign(std::move(key), std::move(value));
}

const std::string* Config::find(std::string_view key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  read_.insert(it->first);
  return &it->second;
}

void Config::fail(std::string_view key, const std::string& problem) const {
  if (first_error_.empty()) first_error_ = std::string(key) + ": " + problem;
}

Status Config::status(bool every_key_read) const {
  if (!first_error_.empty()) return make_error(first_error_);
  if (every_key_read) {
    for (const auto& [key, value] : entries_) {
      if (read_.find(key) == read_.end()) return make_error("unknown key: " + key);
    }
  }
  return Status::success();
}

std::string Config::get_string(std::string_view key, std::string fallback) const {
  const std::string* text = find(key);
  return text == nullptr ? fallback : *text;
}

template <typename T>
T Config::get_parsed(std::string_view key, T fallback,
                     Result<T> (*parse)(std::string_view)) const {
  const std::string* text = find(key);
  if (text == nullptr) return fallback;
  const Result<T> value = parse(*text);
  if (!value.ok()) fail(key, value.error().message);
  return value.value_or(fallback);
}

std::uint64_t Config::get_uint(std::string_view key, std::uint64_t fallback) const {
  return get_parsed(key, fallback, parse_uint);
}

std::uint32_t Config::get_uint32(std::string_view key, std::uint32_t fallback) const {
  const std::uint64_t value = get_uint(key, fallback);
  if (value <= std::numeric_limits<std::uint32_t>::max()) {
    return static_cast<std::uint32_t>(value);
  }
  fail(key, "expected at most 4294967295, got " + std::to_string(value));
  return fallback;
}

double Config::get_double(std::string_view key, double fallback) const {
  return get_parsed(key, fallback, parse_number);
}

bool Config::get_bool(std::string_view key, bool fallback) const {
  return get_parsed(key, fallback, parse_bool);
}

Bytes Config::get_bytes(std::string_view key, Bytes fallback) const {
  return get_parsed(key, fallback, parse_bytes);
}

SimTime Config::get_duration(std::string_view key, SimTime fallback) const {
  return get_parsed(key, fallback, parse_duration);
}

Result<Bytes> Config::parse_bytes(std::string_view text) {
  auto split = split_number_suffix(text);
  if (!split.ok()) return split.error();
  auto [number, suffix] = split.value();
  if (number < 0) return make_error("negative size: '" + std::string(text) + "'");
  double multiplier = 1.0;
  std::string s(suffix);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (s.empty() || s == "B") multiplier = 1.0;
  else if (s == "K" || s == "KB" || s == "KIB") multiplier = static_cast<double>(KiB);
  else if (s == "M" || s == "MB" || s == "MIB") multiplier = static_cast<double>(MiB);
  else if (s == "G" || s == "GB" || s == "GIB") multiplier = static_cast<double>(GiB);
  else return make_error("unknown size suffix: '" + std::string(suffix) + "'");
  const double bytes = number * multiplier + 0.5;
  if (bytes >= static_cast<double>(std::numeric_limits<Bytes>::max())) {
    return make_error("size out of range: '" + std::string(text) + "'");
  }
  return static_cast<Bytes>(bytes);
}

Result<SimTime> Config::parse_duration(std::string_view text) {
  auto split = split_number_suffix(text);
  if (!split.ok()) return split.error();
  auto [number, suffix] = split.value();
  if (number < 0) return make_error("negative duration: '" + std::string(text) + "'");
  double multiplier = 1.0;  // bare numbers are nanoseconds
  if (suffix.empty() || suffix == "ns") multiplier = 1.0;
  else if (suffix == "us") multiplier = 1e3;
  else if (suffix == "ms") multiplier = 1e6;
  else if (suffix == "s") multiplier = 1e9;
  else return make_error("unknown duration suffix: '" + std::string(suffix) + "'");
  const double ns = number * multiplier + 0.5;
  if (ns >= static_cast<double>(std::numeric_limits<SimTime>::max())) {
    return make_error("duration out of range: '" + std::string(text) + "'");
  }
  return static_cast<SimTime>(ns);
}

Result<bool> Config::parse_bool(std::string_view text) {
  std::string s(trim(text));
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  return make_error("not a boolean: '" + std::string(text) + "'");
}

}  // namespace sst
