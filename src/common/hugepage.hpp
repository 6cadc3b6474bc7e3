// Best-effort transparent-hugepage advice for large read-mostly arrays.
//
// The routing kernels read neighbor tables of tens to hundreds of
// megabytes at random row granularity (52 MiB for the packed tree and XOR
// rows plus Symphony's shortcuts at 2^20 dense nodes, more in the sparse
// engine at 10^6 nodes); on 4K pages that working set overwhelms the dTLB
// and every hop pays a page walk on top of its cache miss.  Backing the
// arrays with 2MB pages shrinks the dense set to ~26 TLB entries.  Kernels with transparent_hugepage=always do this on their
// own; the common madvise default only promotes ranges that ask, so the
// big allocations ask.
//
// The advice must land BEFORE the pages are first touched -- that lets
// the kernel back the range with huge pages at fault time instead of
// waiting for khugepaged to collapse it long after the benchmark is over.
// Hence reserve_hugepages(): reserve capacity (untouched memory), advise
// it, then let the caller fill.  Both helpers are silent no-ops off
// Linux, on madvise failure, and for ranges below one huge page.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace dht::common {

/// The transparent huge page size the advice below aims at.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Advises the 2MB-aligned interior of [p, p + bytes) onto huge pages.
inline void advise_hugepages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHugePage = kHugePageBytes;
  const std::uintptr_t begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t hi = (begin + bytes) & ~(kHugePage - 1);
  if (hi > lo) {
    (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

/// Reserves capacity for n elements and advises the (still untouched)
/// backing store onto huge pages, so the caller's fill faults 2MB pages
/// directly.
template <typename Vec>
void reserve_hugepages(Vec& vec, std::size_t n) {
  vec.reserve(n);
  advise_hugepages(vec.data(), n * sizeof(typename Vec::value_type));
}

/// A std::vector whose resize() leaves new elements unset, for tables a
/// chunked builder writes in full: their pages are first touched by the
/// builder's workers in parallel, not by one serial zeroing pass.
template <typename T>
struct NoInitAllocator : std::allocator<T> {
  void construct(T*) noexcept {}
  void construct(T* p, T v) noexcept { *p = v; }
};
template <typename T>
using NoInitVector = std::vector<T, NoInitAllocator<T>>;

}  // namespace dht::common
