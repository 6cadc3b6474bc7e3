// Exactness of the static sparse table builders.  SparseChordOverlay
// resolves fingers with merged cursors and SparseKademliaOverlay narrows
// one prefix window per node; both must reproduce, entry for entry and
// draw for draw, the tables built from one independent search per finger
// key (successor_of_key) and per bucket range (index_range below).
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_space.hpp"

namespace dht::sparse {
namespace {

/// Nodes whose identifiers lie in [lo, hi] (inclusive, lo <= hi), as the
/// index range [first, last).
std::pair<NodeIndex, NodeIndex> index_range(const SparseIdSpace& space,
                                            sim::NodeId lo, sim::NodeId hi) {
  const auto& ids = space.ids();
  const auto first = std::lower_bound(ids.begin(), ids.end(), lo);
  const auto last = std::upper_bound(first, ids.end(), hi);
  return {static_cast<NodeIndex>(first - ids.begin()),
          static_cast<NodeIndex>(last - ids.begin())};
}

struct ChordReference {
  std::vector<NodeIndex> fingers;
  // Distinct non-self fingers per node, decreasing progress.
  std::vector<std::vector<std::pair<std::uint64_t, NodeIndex>>> rows;
  std::uint64_t wrapped = 0;  // finger keys past the largest id
};

ChordReference chord_reference(const SparseIdSpace& space) {
  const int d = space.bits();
  const std::uint64_t mask = space.key_space_size() - 1;
  const sim::NodeId largest = space.ids().back();
  ChordReference ref;
  for (NodeIndex v = 0; v < space.node_count(); ++v) {
    const sim::NodeId base = space.id_of(v);
    auto& row = ref.rows.emplace_back();
    for (int i = 1; i <= d; ++i) {
      const sim::NodeId key = (base + (std::uint64_t{1} << (d - i))) & mask;
      ref.wrapped += key > largest ? 1 : 0;
      const NodeIndex f = space.successor_of_key(key);
      ref.fingers.push_back(f);
      if (f != v) {
        row.emplace_back((space.id_of(f) - base) & mask, f);
      }
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return ref;
}

struct KademliaReference {
  std::vector<NodeIndex> contacts;
  std::uint64_t empty_buckets = 0;
};

KademliaReference kademlia_reference(const SparseIdSpace& space,
                                     math::Rng& rng, int k) {
  const int d = space.bits();
  const std::uint64_t n = space.node_count();
  const auto row_width = static_cast<std::uint64_t>(d) * k;
  KademliaReference ref;
  ref.contacts.assign(n * row_width, kNoNode);
  auto& contacts = ref.contacts;
  for (NodeIndex v = 0; v < n; ++v) {
    const sim::NodeId base = space.id_of(v);
    for (int i = 1; i <= d; ++i) {
      const int suffix_bits = d - i;
      const sim::NodeId lo = (sim::flip_level(base, i, d) >> suffix_bits)
                             << suffix_bits;
      const sim::NodeId hi = lo + ((std::uint64_t{1} << suffix_bits) - 1);
      const auto [first, last] = index_range(space, lo, hi);
      if (first == last) {
        ++ref.empty_buckets;
        continue;
      }
      const std::uint64_t bucket_base =
          v * row_width + static_cast<std::uint64_t>(i - 1) * k;
      const std::uint64_t size = last - first;
      contacts[bucket_base] =
          static_cast<NodeIndex>(first + rng.uniform_below(size));
      const int cells = static_cast<int>(
          size < static_cast<std::uint64_t>(k) ? size : k);
      for (int cell = 1; cell < cells; ++cell) {
        const auto taken = [&](NodeIndex candidate) {
          for (int prev = 0; prev < cell; ++prev) {
            if (contacts[bucket_base + prev] == candidate) {
              return true;
            }
          }
          return false;
        };
        auto pick = static_cast<NodeIndex>(first + rng.uniform_below(size));
        for (int attempt = 0; attempt < 16 && taken(pick); ++attempt) {
          pick = static_cast<NodeIndex>(first + rng.uniform_below(size));
        }
        while (taken(pick)) {
          pick = pick + 1 == last ? first : static_cast<NodeIndex>(pick + 1);
        }
        contacts[bucket_base + cell] = pick;
      }
    }
  }
  return ref;
}

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
      ASSERT_EQ(overlay.finger_table(), ref.fingers);

      std::uint64_t widest = 1;
      for (const auto& row : ref.rows) {
        widest = std::max<std::uint64_t>(widest, row.size());
      }
      const std::uint64_t stride = (widest + 7) & ~std::uint64_t{7};
      ASSERT_EQ(static_cast<std::uint64_t>(overlay.route_stride()), stride);
      const bool packed = bits <= 32;
      ASSERT_EQ(overlay.route_packed().size(), packed ? n * stride : 0);
      ASSERT_EQ(overlay.route_progress().size(), packed ? 0 : n * stride);
      ASSERT_EQ(overlay.route_targets().size(), packed ? 0 : n * stride);
      for (NodeIndex v = 0; v < n; ++v) {
        const auto& row = ref.rows[v];
        ASSERT_EQ(overlay.route_lens()[v], row.size()) << "node " << v;
        for (std::uint64_t e = 0; e < stride; ++e) {
          const bool real = e < row.size();
          const std::uint64_t progress = real ? row[e].first : 0;
          const NodeIndex target = real ? row[e].second : kNoNode;
          const std::uint64_t at = v * stride + e;
          if (packed) {
            ASSERT_EQ(overlay.route_packed()[at], (progress << 32) | target)
                << "node " << v << " entry " << e;
          } else {
            ASSERT_EQ(overlay.route_progress()[at], progress)
                << "node " << v << " entry " << e;
            ASSERT_EQ(overlay.route_targets()[at], target)
                << "node " << v << " entry " << e;
          }
        }
      }
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
        ASSERT_EQ(overlay.contact_table(), ref.contacts);
        // Same draws in the same order: both streams stop at one position.
        ASSERT_EQ(built_rng.next_u64(), reference_rng.next_u64());
      }
    }
  }
  EXPECT_GT(empty_buckets, 0u);  // the grid exercises empty buckets
}

}  // namespace
}  // namespace dht::sparse
