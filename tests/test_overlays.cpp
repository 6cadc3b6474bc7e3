// Structural invariants of the five overlays' routing tables and the
// correctness of their failure-free forwarding rules.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/prefix_table.hpp"
#include "sim/router.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"
#include "support/oracles.hpp"

namespace dht::sim {
namespace {

TEST(PrefixTable, NeighborSatisfiesPrefixAndFlipInvariants) {
  const IdSpace space(8);
  math::Rng rng(42);
  const PrefixTable table(space, rng);
  for (NodeId v = 0; v < space.size(); ++v) {
    for (int level = 1; level <= space.bits(); ++level) {
      const NodeId n = table.neighbor(v, level);
      // First level-1 bits agree; bit `level` differs.
      EXPECT_TRUE(shares_prefix(v, n, level - 1, space.bits()))
          << "v=" << v << " level=" << level;
      EXPECT_NE(bit_at_level(v, level, space.bits()),
                bit_at_level(n, level, space.bits()))
          << "v=" << v << " level=" << level;
    }
  }
}

TEST(PrefixTable, SuffixesAreRandomized) {
  // The level-1 neighbors of all nodes should not all share the same
  // suffix; count distinct suffixes across nodes.
  const IdSpace space(10);
  math::Rng rng(43);
  const PrefixTable table(space, rng);
  std::set<NodeId> suffixes;
  for (NodeId v = 0; v < 200; ++v) {
    suffixes.insert(table.neighbor(v, 1) & ((1u << 9) - 1));
  }
  EXPECT_GT(suffixes.size(), 100u);
}

TEST(PrefixTable, RejectsBadQueries) {
  const IdSpace space(4);
  math::Rng rng(1);
  const PrefixTable table(space, rng);
  EXPECT_THROW(table.neighbor(16, 1), PreconditionError);
  EXPECT_THROW(table.neighbor(0, 0), PreconditionError);
  EXPECT_THROW(table.neighbor(0, 5), PreconditionError);
}

TEST(TreeOverlay, FailureFreeRoutesArriveWithinD) {
  const IdSpace space(10);
  math::Rng rng(7);
  const TreeOverlay overlay(space, rng);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router router(overlay, alive);
  math::Rng route_rng(8);
  for (int i = 0; i < 2000; ++i) {
    const NodeId s = route_rng.uniform_below(space.size());
    NodeId t = route_rng.uniform_below(space.size());
    if (s == t) {
      continue;
    }
    const RouteResult r = router.route(s, t, route_rng);
    ASSERT_TRUE(r.success());
    EXPECT_LE(r.hops, space.bits());
    EXPECT_EQ(r.last_node, t);
  }
}

TEST(TreeOverlay, SingleDeadNeighborDropsRoute) {
  const IdSpace space(6);
  math::Rng rng(9);
  const TreeOverlay overlay(space, rng);
  FailureScenario failures = FailureScenario::all_alive(space);
  math::Rng route_rng(10);
  // Kill the level-1 neighbor of node 0 and route to a target differing in
  // bit 1: the only admissible first hop is dead.
  const NodeId first_hop = overlay.table()->neighbor(0, 1);
  failures.kill(first_hop);
  const Router router(overlay, failures);
  const NodeId target = flip_level(0, 1, space.bits());
  if (target != first_hop) {
    const RouteResult r = router.route(0, target, route_rng);
    EXPECT_EQ(r.status, RouteStatus::kDropped);
    EXPECT_EQ(r.last_node, 0u);
    EXPECT_EQ(r.hops, 0);
  }
}

TEST(XorOverlay, FailureFreeMatchesTreeBehavior) {
  // With no failures the XOR rule always takes the optimal level -- same
  // hop counts as the tree on the same table.
  const IdSpace space(9);
  math::Rng rng(11);
  auto table = std::make_shared<const PrefixTable>(space, rng);
  const TreeOverlay tree(space, table);
  const XorOverlay xr(space, table);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router tree_router(tree, alive);
  const Router xor_router(xr, alive);
  math::Rng route_rng(12);
  for (int i = 0; i < 1000; ++i) {
    const NodeId s = route_rng.uniform_below(space.size());
    NodeId t = route_rng.uniform_below(space.size());
    if (s == t) {
      continue;
    }
    math::Rng rng_a = route_rng.fork(i);
    math::Rng rng_b = route_rng.fork(i);
    const RouteResult a = tree_router.route(s, t, rng_a);
    const RouteResult b = xor_router.route(s, t, rng_b);
    ASSERT_TRUE(a.success());
    ASSERT_TRUE(b.success());
    EXPECT_EQ(a.hops, b.hops);
  }
}

TEST(XorOverlay, FallbackSurvivesDeadOptimalNeighbor) {
  // Paper Fig. 5(a)'s story: optimal neighbor dead, fallback succeeds.
  const IdSpace space(6);
  math::Rng rng(13);
  const XorOverlay overlay(space, rng);
  math::Rng route_rng(14);
  int fallback_successes = 0;
  for (NodeId s = 0; s < space.size(); ++s) {
    // Target differing from s in bits 1 and 2.
    const NodeId t = flip_level(flip_level(s, 1, 6), 2, 6);
    FailureScenario failures = FailureScenario::all_alive(space);
    const NodeId optimal = overlay.table()->neighbor(s, 1);
    if (optimal == t || optimal == s) {
      continue;
    }
    failures.kill(optimal);
    const Router router(overlay, failures);
    const RouteResult r = router.route(s, t, route_rng);
    // The tree protocol would drop immediately; XOR may still arrive via
    // the level-2 neighbor (unless that neighbor happens to be the dead
    // node or later hops run into it).
    fallback_successes += r.success() ? 1 : 0;
  }
  EXPECT_GT(fallback_successes, 30);  // out of up to 64 sources
}

TEST(HypercubeOverlay, FailureFreeHopsEqualHammingDistance) {
  const IdSpace space(8);
  const HypercubeOverlay overlay(space);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router router(overlay, alive);
  math::Rng route_rng(15);
  for (int i = 0; i < 2000; ++i) {
    const NodeId s = route_rng.uniform_below(space.size());
    NodeId t = route_rng.uniform_below(space.size());
    if (s == t) {
      continue;
    }
    const RouteResult r = router.route(s, t, route_rng);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.hops, hamming_distance(s, t));
  }
}

TEST(HypercubeOverlay, LinksAreTheDBitFlips) {
  const IdSpace space(5);
  const HypercubeOverlay overlay(space);
  const auto links = overlay.links(0b10110);
  ASSERT_EQ(links.size(), 5u);
  for (const NodeId link : links) {
    EXPECT_EQ(hamming_distance(0b10110, link), 1);
  }
}

TEST(HypercubeOverlay, RoutesAroundDeadNodes) {
  // With 2 differing bits and one intermediate dead, the other path works.
  const IdSpace space(5);
  const HypercubeOverlay overlay(space);
  FailureScenario failures = FailureScenario::all_alive(space);
  const NodeId s = 0b00000;
  const NodeId t = 0b00011;
  failures.kill(0b00001);  // one of the two 1-hop intermediates
  const Router router(overlay, failures);
  math::Rng route_rng(16);
  for (int i = 0; i < 50; ++i) {
    const RouteResult r = router.route(s, t, route_rng);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.hops, 2);
  }
}

class ChordBothVariants : public ::testing::TestWithParam<ChordFingers> {};

INSTANTIATE_TEST_SUITE_P(Variants, ChordBothVariants,
                         ::testing::Values(ChordFingers::kDeterministic,
                                           ChordFingers::kRandomized),
                         [](const auto& test_info) {
                           return test_info.param == ChordFingers::kDeterministic
                                      ? "deterministic"
                                      : "randomized";
                         });

TEST_P(ChordBothVariants, FingersLiveInDyadicIntervals) {
  const IdSpace space(10);
  math::Rng rng(17);
  const ChordOverlay overlay(space, rng, GetParam());
  for (NodeId v = 0; v < space.size(); v += 37) {
    for (int i = 1; i <= space.bits(); ++i) {
      const std::uint64_t offset =
          ring_distance(v, overlay.finger(v, i), space.bits());
      EXPECT_GE(offset, 1ull << (space.bits() - i)) << "v=" << v << " i=" << i;
      EXPECT_LT(offset, 2ull << (space.bits() - i)) << "v=" << v << " i=" << i;
    }
  }
}

TEST_P(ChordBothVariants, LastFingerIsSuccessor) {
  const IdSpace space(8);
  math::Rng rng(18);
  const ChordOverlay overlay(space, rng, GetParam());
  for (NodeId v = 0; v < space.size(); ++v) {
    EXPECT_EQ(overlay.finger(v, 8), (v + 1) % space.size());
  }
}

TEST(ChordOverlay, DeterministicFingersArePowersOfTwo) {
  const IdSpace space(8);
  math::Rng rng(18);
  const ChordOverlay overlay(space, rng);
  EXPECT_EQ(overlay.finger_variant(), ChordFingers::kDeterministic);
  for (NodeId v = 0; v < space.size(); v += 11) {
    for (int i = 1; i <= space.bits(); ++i) {
      EXPECT_EQ(ring_distance(v, overlay.finger(v, i), 8),
                std::uint64_t{1} << (8 - i));
    }
  }
}

TEST(ChordOverlay, DeterministicFailureFreeHopsArePopcount) {
  // Classic Chord greedy = binary decomposition of the clockwise distance.
  const IdSpace space(10);
  math::Rng rng(19);
  const ChordOverlay overlay(space, rng);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router router(overlay, alive);
  math::Rng route_rng(20);
  for (int i = 0; i < 500; ++i) {
    const NodeId s = route_rng.uniform_below(space.size());
    NodeId t = route_rng.uniform_below(space.size());
    if (s == t) {
      continue;
    }
    const RouteResult r = router.route(s, t, route_rng);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.hops,
              hamming_distance(ring_distance(s, t, space.bits()), 0));
  }
}

TEST_P(ChordBothVariants, FailureFreeRoutesArriveWithinD) {
  const IdSpace space(10);
  math::Rng rng(19);
  const ChordOverlay overlay(space, rng, GetParam());
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router router(overlay, alive);
  math::Rng route_rng(20);
  for (int i = 0; i < 2000; ++i) {
    const NodeId s = route_rng.uniform_below(space.size());
    NodeId t = route_rng.uniform_below(space.size());
    if (s == t) {
      continue;
    }
    const RouteResult r = router.route(s, t, route_rng);
    ASSERT_TRUE(r.success());
    // Greedy clockwise at least halves the remaining distance per hop.
    EXPECT_LE(r.hops, space.bits());
  }
}

TEST(ChordOverlay, NeverOvershoots) {
  const IdSpace space(9);
  math::Rng rng(21);
  const ChordOverlay overlay(space, rng, ChordFingers::kRandomized);
  math::Rng fail_rng(22);
  const FailureScenario failures(space, 0.3, fail_rng);
  math::Rng route_rng(23);
  const Router router(overlay, failures);
  for (int i = 0; i < 500; ++i) {
    NodeId s = route_rng.uniform_below(space.size());
    NodeId t = route_rng.uniform_below(space.size());
    if (s == t || !failures.alive(s) || !failures.alive(t)) {
      continue;
    }
    const RouteTrace trace = router.route_traced(s, t, route_rng);
    // Remaining clockwise distance must strictly decrease along the path.
    std::uint64_t previous = ring_distance(s, t, space.bits());
    for (size_t k = 1; k < trace.path.size(); ++k) {
      const std::uint64_t remaining =
          ring_distance(trace.path[k], t, space.bits());
      EXPECT_LT(remaining, previous);
      previous = remaining;
    }
  }
}

TEST(SymphonyOverlay, LinkCountsAndDistances) {
  const IdSpace space(10);
  math::Rng rng(24);
  const SymphonyOverlay overlay(space, 2, 3, rng);
  EXPECT_EQ(overlay.near_neighbors(), 2);
  EXPECT_EQ(overlay.shortcuts(), 3);
  const auto links = overlay.links(123);
  ASSERT_EQ(links.size(), 5u);
  // Near neighbors are the immediate successors.
  EXPECT_EQ(links[0], 124u);
  EXPECT_EQ(links[1], 125u);
}

TEST(SymphonyOverlay, ShortcutDistancesAreHarmonicish) {
  // Median shortcut distance under p(x) ~ 1/x on [1, N-1] is sqrt(N-1):
  // half the (log-uniform) mass sits on each side.
  const IdSpace space(16);
  math::Rng rng(25);
  const SymphonyOverlay overlay(space, 1, 1, rng);
  std::vector<std::uint64_t> offsets;
  for (NodeId v = 0; v < 4096; ++v) {
    offsets.push_back(ring_distance(v, overlay.shortcut(v, 0), 16));
  }
  std::sort(offsets.begin(), offsets.end());
  const double median = static_cast<double>(offsets[offsets.size() / 2]);
  EXPECT_GT(median, 128.0);  // sqrt(65535) ~ 256; allow 2x band
  EXPECT_LT(median, 512.0);
}

TEST(SymphonyOverlay, FailureFreeRoutesArrive) {
  const IdSpace space(10);
  math::Rng rng(26);
  const SymphonyOverlay overlay(space, 1, 1, rng);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router router(overlay, alive);
  math::Rng route_rng(27);
  for (int i = 0; i < 500; ++i) {
    const NodeId s = route_rng.uniform_below(space.size());
    NodeId t = route_rng.uniform_below(space.size());
    if (s == t) {
      continue;
    }
    const RouteResult r = router.route(s, t, route_rng);
    ASSERT_TRUE(r.success());
  }
}

TEST(SymphonyOverlay, HopCountScalesAsLogSquared) {
  // O(log^2 N) expected latency (Section 3.5): mean hops at d = 14 should
  // be well above d (log N) but far below sqrt(N).
  const IdSpace space(14);
  math::Rng rng(28);
  const SymphonyOverlay overlay(space, 1, 1, rng);
  math::Rng metric_rng(29);
  const auto hops = failure_free_hops(overlay, 2000, metric_rng);
  EXPECT_GT(hops.mean(), 14.0);
  EXPECT_LT(hops.mean(), 0.5 * 14.0 * 14.0);
}

TEST(SymphonyOverlay, RejectsBadParameters) {
  const IdSpace space(4);
  math::Rng rng(30);
  EXPECT_THROW(SymphonyOverlay(space, 0, 1, rng), PreconditionError);
  EXPECT_THROW(SymphonyOverlay(space, 1, 0, rng), PreconditionError);
  EXPECT_THROW(SymphonyOverlay(space, 8, 8, rng), PreconditionError);
}

TEST(Overlays, NamesMatchCoreGeometryNames) {
  const IdSpace space(4);
  math::Rng rng(31);
  EXPECT_EQ(TreeOverlay(space, rng).name(), "tree");
  EXPECT_EQ(XorOverlay(space, rng).name(), "xor");
  EXPECT_EQ(HypercubeOverlay(space).name(), "hypercube");
  EXPECT_EQ(ChordOverlay(space, rng).name(), "ring");
  EXPECT_EQ(SymphonyOverlay(space, 1, 1, rng).name(), "symphony");
}

// table_bytes() counts the routing-table bytes each overlay stores: the
// packed class rows of the prefix tables and the randomized ring,
// ceil(d(d-1)/16) bytes per node plus 8 bytes of tail padding
// (15 * 2^16 + 8 at d = 16), 4 ks 2^d for Symphony's u32 shortcuts,
// nothing for the closed-form ring and hypercube.
TEST(Overlays, TableBytesAtD16) {
  const IdSpace space(16);
  math::Rng rng(32);
  EXPECT_EQ(TreeOverlay(space, rng).table_bytes(), 983048u);
  EXPECT_EQ(XorOverlay(space, rng).table_bytes(), 983048u);
  EXPECT_EQ(ChordOverlay(space, rng, ChordFingers::kRandomized).table_bytes(),
            983048u);
  EXPECT_EQ(ChordOverlay(space, rng).table_bytes(), 0u);
  EXPECT_EQ(HypercubeOverlay(space).table_bytes(), 0u);
  EXPECT_EQ(SymphonyOverlay(space, 1, 1, rng).table_bytes(), 262144u);
  EXPECT_EQ(SymphonyOverlay(space, 1, 3, rng).table_bytes(), 786432u);
}

}  // namespace
}  // namespace dht::sim
