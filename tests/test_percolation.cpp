#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "percolation/components.hpp"
#include "percolation/union_find.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht::perc {
namespace {

// Size of the connected component containing `source` (0 if source dead):
// the failed overlay's alive nodes with undirected links, as in
// analyze_components.
std::uint64_t connected_component_size(const sim::Overlay& overlay,
                                       const sim::FailureScenario& failures,
                                       sim::NodeId source) {
  if (!failures.alive(source)) {
    return 0;
  }
  UnionFind forest(overlay.space().size());
  std::vector<sim::NodeId> links;
  for (sim::NodeId v = 0; v < overlay.space().size(); ++v) {
    if (!failures.alive(v)) {
      continue;
    }
    overlay.links_into(v, links);
    for (sim::NodeId w : links) {
      if (failures.alive(w)) {
        forest.unite(v, w);
      }
    }
  }
  return forest.set_size(source);
}

TEST(UnionFind, SingletonsInitially) {
  UnionFind forest(5);
  EXPECT_EQ(forest.set_count(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(forest.find(i), i);
    EXPECT_EQ(forest.set_size(i), 1u);
  }
}

TEST(UnionFind, UniteMergesAndCounts) {
  UnionFind forest(6);
  EXPECT_TRUE(forest.unite(0, 1));
  EXPECT_TRUE(forest.unite(1, 2));
  EXPECT_FALSE(forest.unite(0, 2));  // already together
  EXPECT_EQ(forest.set_count(), 4u);
  EXPECT_EQ(forest.set_size(2), 3u);
  EXPECT_EQ(forest.find(0), forest.find(2));
  EXPECT_NE(forest.find(0), forest.find(3));
}

TEST(UnionFind, ChainOfUnions) {
  const std::uint64_t n = 1000;
  UnionFind forest(n);
  for (std::uint64_t i = 0; i + 1 < n; ++i) {
    forest.unite(i, i + 1);
  }
  EXPECT_EQ(forest.set_count(), 1u);
  EXPECT_EQ(forest.set_size(123), n);
}

TEST(UnionFind, RejectsOutOfRange) {
  UnionFind forest(3);
  EXPECT_THROW(forest.find(3), PreconditionError);
  EXPECT_THROW(forest.unite(0, 3), PreconditionError);
}

TEST(Components, PerfectOverlayIsOneComponent) {
  const sim::IdSpace space(8);
  math::Rng rng(1);
  const sim::ChordOverlay overlay(space, rng);
  const sim::FailureScenario alive = sim::FailureScenario::all_alive(space);
  const ComponentSummary summary = analyze_components(overlay, alive);
  EXPECT_EQ(summary.alive_nodes, 256u);
  EXPECT_EQ(summary.component_count, 1u);
  EXPECT_EQ(summary.largest_component, 256u);
  EXPECT_EQ(summary.largest_fraction(), 1.0);
}

TEST(Components, ModerateFailureKeepsGiantComponent) {
  // Hypercube site percolation threshold is far below q = 0.3: the giant
  // component must hold nearly all alive nodes.
  const sim::IdSpace space(10);
  const sim::HypercubeOverlay overlay(space);
  math::Rng fail_rng(2);
  const sim::FailureScenario failures(space, 0.3, fail_rng);
  const ComponentSummary summary = analyze_components(overlay, failures);
  EXPECT_GT(summary.largest_fraction(), 0.95);
}

TEST(Components, ExtremeFailureFragments) {
  const sim::IdSpace space(10);
  const sim::HypercubeOverlay overlay(space);
  math::Rng fail_rng(3);
  const sim::FailureScenario failures(space, 0.95, fail_rng);
  const ComponentSummary summary = analyze_components(overlay, failures);
  EXPECT_GT(summary.component_count, 5u);
  EXPECT_LT(summary.largest_fraction(), 0.6);
}

TEST(Components, ConnectedComponentSizeOfDeadNodeIsZero) {
  const sim::IdSpace space(6);
  const sim::HypercubeOverlay overlay(space);
  sim::FailureScenario failures = sim::FailureScenario::all_alive(space);
  failures.kill(9);
  EXPECT_EQ(connected_component_size(overlay, failures, 9), 0u);
  EXPECT_EQ(connected_component_size(overlay, failures, 0), 63u);
}

TEST(Components, ReachableIsSubsetOfConnected) {
  // The paper's Section 1 argument: the reachable component of a node is a
  // subset of its connected component, strictly smaller once greedy
  // routing cannot exploit all surviving paths.
  const sim::IdSpace space(9);
  math::Rng build_rng(4);
  const sim::XorOverlay overlay(space, build_rng);
  for (double q : {0.2, 0.4, 0.6}) {
    math::Rng fail_rng(static_cast<std::uint64_t>(q * 100));
    sim::FailureScenario failures(space, q, fail_rng);
    math::Rng route_rng(5);
    // Pick a handful of alive sources.
    for (int k = 0; k < 5; ++k) {
      const sim::NodeId source = failures.sample_alive(route_rng);
      const std::uint64_t reachable =
          reachable_component_size(overlay, failures, source, route_rng);
      const std::uint64_t connected =
          connected_component_size(overlay, failures, source);
      EXPECT_LE(reachable, connected) << "q=" << q;
    }
  }
}

TEST(Components, RoutabilityGapGrowsWithFailure) {
  // At q = 0.5 the xor overlay's connected component stays giant while
  // greedy reachability drops well below it -- connectivity alone
  // overstates routability.
  const sim::IdSpace space(9);
  math::Rng build_rng(6);
  const sim::XorOverlay overlay(space, build_rng);
  math::Rng fail_rng(7);
  sim::FailureScenario failures(space, 0.5, fail_rng);
  math::Rng route_rng(8);
  const sim::NodeId source = failures.sample_alive(route_rng);
  const std::uint64_t reachable =
      reachable_component_size(overlay, failures, source, route_rng);
  const std::uint64_t connected =
      connected_component_size(overlay, failures, source);
  EXPECT_LT(reachable, connected);
  EXPECT_GT(connected, failures.alive_count() / 2);
}

TEST(Components, ReachableRequiresAliveSource) {
  const sim::IdSpace space(6);
  const sim::HypercubeOverlay overlay(space);
  sim::FailureScenario failures = sim::FailureScenario::all_alive(space);
  failures.kill(3);
  math::Rng rng(9);
  EXPECT_THROW(reachable_component_size(overlay, failures, 3, rng),
               PreconditionError);
}

}  // namespace
}  // namespace dht::perc
