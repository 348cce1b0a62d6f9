// Common scalar unit helpers shared across the library.
//
// All simulation times are double seconds, all memory quantities are
// int64 bytes. The helpers below exist so call sites read in the units the
// paper uses (megabytes, milliseconds, Mbps) without ad-hoc arithmetic.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace vrc {

/// Simulation time in seconds.
using SimTime = double;

/// Memory quantity in bytes.
using Bytes = std::int64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// Converts mebibytes to bytes.
constexpr Bytes megabytes(double mb) { return static_cast<Bytes>(mb * static_cast<double>(kMiB)); }

/// Converts bytes to mebibytes (for reporting).
constexpr double to_megabytes(Bytes b) {
  return static_cast<double>(b) / static_cast<double>(kMiB);
}

/// Converts milliseconds to seconds.
constexpr SimTime milliseconds(double ms) { return ms / 1000.0; }

/// Converts a megabit-per-second link speed to bytes per second.
constexpr double mbps_to_bytes_per_sec(double mbps) { return mbps * 1e6 / 8.0; }

// --- Scalar text -------------------------------------------------------------
//
// Every number and bool a spec, override, scenario directive or flag carries
// is converted here and nowhere else (vrc_lint's number-parse analyzer bans
// strto*/sto*/ato*/sscanf outside this file). Each parser takes the whole
// string and writes *out only on success.

namespace units_detail {

/// The one double conversion: std::strtod over the front of `text`. False
/// when no digits are read, the value is out of range (ERANGE) or it is NaN
/// or an infinity; otherwise *used is the count of characters consumed.
inline bool leading_real(const std::string& text, double* value, std::size_t* used) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || errno == ERANGE || !std::isfinite(parsed)) return false;
  *value = parsed;
  *used = static_cast<std::size_t>(end - begin);
  return true;
}

/// Parses the leading number of `text`; on success stores the value and the
/// remainder (the unit suffix, leading spaces stripped).
inline bool split_number(const std::string& text, double* value, std::string* suffix) {
  std::size_t used = 0;
  if (!leading_real(text, value, &used)) return false;
  while (used < text.size() && text[used] == ' ') ++used;
  *suffix = text.substr(used);
  return true;
}

}  // namespace units_detail

/// Parses a whole base-10 integer into `T` (int, std::uint32_t, std::size_t,
/// long long, std::uint64_t). Rejects the empty string, trailing junk, any
/// value `T` cannot hold, and for unsigned `T` any minus sign. Leading spaces
/// and a '+' sign are accepted.
template <typename T>
bool parse_int(const std::string& text, T* out) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  if (text.empty()) return false;
  // strtoull negates a '-' modulo 2^64 ("-1" becomes 2^64-1).
  if (std::is_unsigned_v<T> && text.find('-') != std::string::npos) return false;
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  std::conditional_t<std::is_signed_v<T>, long long, unsigned long long> parsed = 0;
  if constexpr (std::is_signed_v<T>) {
    parsed = std::strtoll(begin, &end, 10);
  } else {
    parsed = std::strtoull(begin, &end, 10);
  }
  if (end != begin + text.size() || errno == ERANGE || !std::in_range<T>(parsed)) return false;
  *out = static_cast<T>(parsed);
  return true;
}

/// Parses a whole real number ("0.85", "1e-3", "2"). Rejects the empty
/// string, trailing junk, ERANGE values ("1e400") and NaN or infinities.
inline bool parse_real(const std::string& text, double* out) {
  double value = 0.0;
  std::size_t used = 0;
  if (!units_detail::leading_real(text, &value, &used) || used != text.size()) return false;
  *out = value;
  return true;
}

/// Parses 1/true/on/yes as true and 0/false/off/no as false.
inline bool parse_bool(const std::string& text, bool* out) {
  if (text == "1" || text == "true" || text == "on" || text == "yes") {
    *out = true;
    return true;
  }
  if (text == "0" || text == "false" || text == "off" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

/// key=value pairs in the order they were written; duplicates are kept.
using ParamPairs = std::vector<std::pair<std::string, std::string>>;

/// Splits comma-separated "key=value" items ("a=1,b=2") into *pairs, in
/// order. Returns false with the offending item in *bad_item when an item has
/// no '=' or an empty key. Values may be empty or contain '='. Callers apply
/// their own duplicate-key rule.
inline bool split_params(const std::string& text, ParamPairs* pairs, std::string* bad_item) {
  std::size_t start = 0;
  while (true) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    std::string item = text.substr(start, end - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      *bad_item = std::move(item);
      return false;
    }
    pairs->emplace_back(item.substr(0, eq), item.substr(eq + 1));
    if (end == text.size()) return true;
    start = end + 1;
  }
}

/// Parses a memory quantity with an optional unit suffix: "384MB", "4KB",
/// "1.5GB", "128MiB", "65536" (plain bytes), "512B". Decimal and binary
/// suffixes are synonyms (the codebase measures memory in binary units, per
/// megabytes()). Returns false on malformed input or unknown suffixes;
/// negative quantities and quantities past 2^63 bytes are rejected.
inline bool parse_bytes(const std::string& text, Bytes* out) {
  double value = 0.0;
  std::string suffix;
  if (!units_detail::split_number(text, &value, &suffix)) return false;
  if (value < 0.0) return false;
  double scale = 1.0;
  if (suffix.empty() || suffix == "B") {
    scale = 1.0;
  } else if (suffix == "KB" || suffix == "KiB" || suffix == "kB") {
    scale = static_cast<double>(kKiB);
  } else if (suffix == "MB" || suffix == "MiB") {
    scale = static_cast<double>(kMiB);
  } else if (suffix == "GB" || suffix == "GiB") {
    scale = static_cast<double>(kGiB);
  } else {
    return false;
  }
  const double bytes = value * scale;
  if (bytes >= 0x1p63) return false;  // does not fit Bytes
  *out = static_cast<Bytes>(bytes);
  return true;
}

/// Parses a time quantity with an optional unit suffix: "10ms", "0.5s",
/// "2min", "250us", "1.5" (plain seconds). Returns false on malformed input
/// or unknown suffixes; negative durations are rejected.
inline bool parse_duration(const std::string& text, SimTime* out) {
  double value = 0.0;
  std::string suffix;
  if (!units_detail::split_number(text, &value, &suffix)) return false;
  if (value < 0.0) return false;
  double scale = 1.0;
  if (suffix.empty() || suffix == "s" || suffix == "sec") {
    scale = 1.0;
  } else if (suffix == "ms") {
    scale = 1e-3;
  } else if (suffix == "us") {
    scale = 1e-6;
  } else if (suffix == "min" || suffix == "m") {
    scale = 60.0;
  } else if (suffix == "h") {
    scale = 3600.0;
  } else {
    return false;
  }
  *out = value * scale;
  return true;
}

}  // namespace vrc
