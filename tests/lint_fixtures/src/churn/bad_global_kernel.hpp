// Fixture: mutable namespace-scope state in a kernel header must be
// flagged -- every shard worker runs the hop kernels it defines.
#pragma once

#include <cstdint>

namespace dht::fixture {

inline std::uint64_t g_hops_taken = 0;  // expect: kernel-global
static std::uint32_t g_last_slot;       // expect: kernel-global

template <typename Id>
inline Id next_hop(const Id* row, int j) {
  ++g_hops_taken;
  g_last_slot = static_cast<std::uint32_t>(j);
  return row[j];
}

// Const and constexpr namespace-scope state is fine.
constexpr int kMaxCandidates = 128;
inline constexpr std::uint64_t kNoId = ~std::uint64_t{0};

}  // namespace dht::fixture
