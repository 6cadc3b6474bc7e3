// Strict command-line number parsing for the programs' flags and
// positionals.  atoi/atof read "abc" as 0 and "5x" as 5, and strtoull wraps
// "-1" to 2^64 - 1; each parser here instead takes the whole argument as
// one number or rejects it, printing "<command>: <flag> must be ..., got
// <text>" to stderr and returning false.  Domain checks beyond the integer
// range stay with the caller.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>

namespace dht::common {

/// The whole of `text` must be a base-10 integer in [lo, hi].
inline bool parse_int_flag(const char* command, const char* flag,
                           const char* text, int lo, int hi, int& out) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    std::cerr << command << ": " << flag << " must be an integer in [" << lo
              << ", " << hi << "], got " << text << "\n";
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

/// The whole of `text` must be base-10 digits with a value in [lo, hi].
inline bool parse_u64_flag(const char* command, const char* flag,
                           const char* text, std::uint64_t lo,
                           std::uint64_t hi, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || value < lo || value > hi) {
    std::cerr << command << ": " << flag << " must be an integer in [" << lo
              << ", " << hi << "], got " << text << "\n";
    return false;
  }
  out = value;
  return true;
}

/// The whole of `text` must be one finite number.
inline bool parse_double_flag(const char* command, const char* flag,
                              const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    std::cerr << command << ": " << flag << " must be a finite number, got "
              << text << "\n";
    return false;
  }
  out = value;
  return true;
}

/// A `--threads` value: a whole integer in [0, UINT_MAX], 0 meaning
/// hardware concurrency.
inline bool parse_threads_flag(const char* command, const char* text,
                               unsigned& out) {
  std::uint64_t value = 0;
  if (!parse_u64_flag(command, "--threads", text, 0,
                      std::numeric_limits<unsigned>::max(), value)) {
    return false;
  }
  out = static_cast<unsigned>(value);
  return true;
}

}  // namespace dht::common
