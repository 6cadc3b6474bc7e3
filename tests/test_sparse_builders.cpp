// Exactness of the static sparse table builders.  SparseChordOverlay
// resolves fingers with merged cursors and SparseKademliaOverlay narrows
// one prefix window per node; both must reproduce, entry for entry and
// draw for draw, the tables built from one independent search per finger
// key (successor_of_key) and per bucket range (index_range), the oracles
// in support/oracles.hpp.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_space.hpp"
#include "support/oracles.hpp"

namespace dht::sparse {
namespace {

// (bits, node count): small, mid-size and, at 8 bits, fully populated.
std::vector<std::pair<int, std::uint64_t>> space_grid() {
  std::vector<std::pair<int, std::uint64_t>> grid;
  for (int bits : {8, 20, 32, 63}) {
    for (std::uint64_t n : {std::uint64_t{2}, std::uint64_t{3},
                            std::uint64_t{1000}}) {
      if (n <= (std::uint64_t{1} << std::min(bits, 26))) {
        grid.emplace_back(bits, n);
      }
    }
  }
  grid.emplace_back(8, 256);
  return grid;
}

TEST(IndexRangeOracle, CountsMembers) {
  math::Rng rng(4);
  const SparseIdSpace space(12, 512, rng);
  const auto [first, last] =
      index_range(space, 0, space.key_space_size() - 1);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(last, space.node_count());
  const sim::NodeId some_id = space.id_of(17);
  const auto [a, b] = index_range(space, some_id, some_id);
  EXPECT_EQ(a, 17u);
  EXPECT_EQ(b, 18u);
}

TEST(SparseChordBuilder, MatchesPerKeySuccessorSearch) {
  std::uint64_t wrapped = 0;
  for (const auto& [bits, n] : space_grid()) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      SCOPED_TRACE(testing::Message()
                   << "bits=" << bits << " n=" << n << " seed=" << seed);
      math::Rng rng(seed);
      const SparseIdSpace space(bits, n, rng);
      const SparseChordOverlay overlay(space);
      const ChordReference ref = chord_reference(space);
      wrapped += ref.wrapped;
      ASSERT_EQ(static_cast<std::uint64_t>(overlay.route_stride()),
                ref.stride);
      ASSERT_TRUE(std::ranges::equal(overlay.route_lens(), ref.lens));
      ASSERT_TRUE(std::ranges::equal(overlay.route_packed(), ref.packed));
      ASSERT_TRUE(std::ranges::equal(overlay.route_progress(), ref.progress));
      ASSERT_TRUE(std::ranges::equal(overlay.route_targets(), ref.targets));
    }
  }
  EXPECT_GT(wrapped, 0u);  // the grid exercises the wrap past the top id
}

TEST(SparseKademliaBuilder, MatchesPerBucketRangeSearch) {
  std::uint64_t empty_buckets = 0;
  for (const auto& [bits, n] : space_grid()) {
    for (int k : {1, 4}) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE(testing::Message() << "bits=" << bits << " n=" << n
                                        << " k=" << k << " seed=" << seed);
        math::Rng space_rng(seed);
        const SparseIdSpace space(bits, n, space_rng);
        math::Rng built_rng(seed + 100);
        math::Rng reference_rng(seed + 100);
        const SparseKademliaOverlay overlay(space, built_rng, k);
        const KademliaReference ref =
            kademlia_reference(space, reference_rng, k);
        empty_buckets += ref.empty_buckets;
        ASSERT_TRUE(std::ranges::equal(overlay.contact_table(), ref.contacts));
        // Same draws in the same order: both streams stop at one position.
        ASSERT_EQ(built_rng.next_u64(), reference_rng.next_u64());
      }
    }
  }
  EXPECT_GT(empty_buckets, 0u);  // the grid exercises empty buckets
}

}  // namespace
}  // namespace dht::sparse
