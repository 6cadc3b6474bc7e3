// Memory-footprint arithmetic for up-front allocation checks: saturating
// byte counts (a config far past any host's memory must still compare as
// "too big", never wrap) and the host's physical memory.
#pragma once

#include <cstdint>
#include <limits>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace dht::common {

inline std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t out = 0;
  return __builtin_mul_overflow(a, b, &out)
             ? std::numeric_limits<std::uint64_t>::max()
             : out;
}

inline std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t out = 0;
  return __builtin_add_overflow(a, b, &out)
             ? std::numeric_limits<std::uint64_t>::max()
             : out;
}

/// Physical memory of the host in bytes (sysconf); UINT64_MAX where the
/// platform cannot say, so callers' checks pass rather than misfire.
inline std::uint64_t physical_memory_bytes() {
#if defined(_SC_PHYS_PAGES) && defined(_SC_PAGE_SIZE)
  const long pages = ::sysconf(_SC_PHYS_PAGES);
  const long page_size = ::sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page_size > 0) {
    return saturating_mul(static_cast<std::uint64_t>(pages),
                          static_cast<std::uint64_t>(page_size));
  }
#endif
  return std::numeric_limits<std::uint64_t>::max();
}

}  // namespace dht::common
