// Unified property suite over all five overlays: the invariants every
// basic-protocol implementation must satisfy, run against each geometry
// via a parameterized factory.
#include <functional>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/router.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht::sim {
namespace {

struct OverlayCase {
  std::string label;
  std::function<std::unique_ptr<Overlay>(const IdSpace&, std::uint64_t seed)>
      make;
};

std::vector<OverlayCase> all_cases() {
  return {
      {"tree",
       [](const IdSpace& space, std::uint64_t seed) {
         math::Rng rng(seed);
         return std::make_unique<TreeOverlay>(space, rng);
       }},
      {"xor",
       [](const IdSpace& space, std::uint64_t seed) {
         math::Rng rng(seed);
         return std::make_unique<XorOverlay>(space, rng);
       }},
      {"hypercube",
       [](const IdSpace& space, std::uint64_t seed) {
         (void)seed;
         return std::make_unique<HypercubeOverlay>(space);
       }},
      {"ring_deterministic",
       [](const IdSpace& space, std::uint64_t seed) {
         math::Rng rng(seed);
         return std::make_unique<ChordOverlay>(space, rng);
       }},
      {"ring_randomized",
       [](const IdSpace& space, std::uint64_t seed) {
         math::Rng rng(seed);
         return std::make_unique<ChordOverlay>(space, rng,
                                               ChordFingers::kRandomized);
       }},
      {"ring_successors",
       [](const IdSpace& space, std::uint64_t seed) {
         math::Rng rng(seed);
         return std::make_unique<ChordOverlay>(
             space, rng, ChordFingers::kDeterministic, 4);
       }},
      {"symphony",
       [](const IdSpace& space, std::uint64_t seed) {
         math::Rng rng(seed);
         return std::make_unique<SymphonyOverlay>(space, 1, 1, rng);
       }},
  };
}

class OverlayProperties : public ::testing::TestWithParam<size_t> {
 protected:
  const OverlayCase& overlay_case() const {
    static const auto cases = all_cases();
    return cases[GetParam()];
  }
};

INSTANTIATE_TEST_SUITE_P(AllOverlays, OverlayProperties,
                         ::testing::Range<size_t>(0, 7),
                         [](const auto& test_info) {
                           static const auto cases = all_cases();
                           return cases[test_info.param].label;
                         });

TEST_P(OverlayProperties, NoSelfLinks) {
  const IdSpace space(9);
  const auto overlay = overlay_case().make(space, 1);
  for (NodeId v = 0; v < space.size(); v += 13) {
    for (const NodeId link : overlay->links(v)) {
      EXPECT_NE(link, v) << "node " << v;
      EXPECT_TRUE(space.contains(link));
    }
  }
}

TEST_P(OverlayProperties, EveryPairRoutesWithoutFailures) {
  const IdSpace space(8);
  const auto overlay = overlay_case().make(space, 2);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router router(*overlay, alive);
  math::Rng rng(3);
  for (int i = 0; i < 1500; ++i) {
    const NodeId s = rng.uniform_below(space.size());
    NodeId t = rng.uniform_below(space.size());
    if (s == t) {
      continue;
    }
    const RouteResult result = router.route(s, t, rng);
    ASSERT_TRUE(result.success())
        << overlay_case().label << ": " << s << " -> " << t;
    EXPECT_EQ(result.last_node, t);
  }
}

TEST_P(OverlayProperties, ConstructionIsDeterministicGivenSeed) {
  const IdSpace space(8);
  const auto a = overlay_case().make(space, 77);
  const auto b = overlay_case().make(space, 77);
  for (NodeId v = 0; v < space.size(); v += 7) {
    EXPECT_EQ(a->links(v), b->links(v)) << "node " << v;
  }
}

TEST_P(OverlayProperties, NextHopNeverReturnsDeadNode) {
  const IdSpace space(9);
  const auto overlay = overlay_case().make(space, 4);
  math::Rng fail_rng(5);
  const FailureScenario failures(space, 0.4, fail_rng);
  math::Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const NodeId s = rng.uniform_below(space.size());
    NodeId t = rng.uniform_below(space.size());
    if (s == t) {
      continue;
    }
    const auto hop = overlay->next_hop(s, t, failures, rng);
    if (hop.has_value()) {
      EXPECT_TRUE(failures.alive(*hop));
      EXPECT_NE(*hop, s);
    }
  }
}

TEST_P(OverlayProperties, RoutabilityDegradesWithFailure) {
  const IdSpace space(10);
  const auto overlay = overlay_case().make(space, 7);
  double previous = 1.1;
  for (double q : {0.1, 0.3, 0.5, 0.7}) {
    math::Rng fail_rng(static_cast<std::uint64_t>(q * 100));
    const FailureScenario failures(space, q, fail_rng);
    math::Rng rng(8);
    const double r =
        estimate_routability_parallel(*overlay, failures, {.pairs = 6000}, rng)
            .routability();
    EXPECT_LT(r, previous + 0.02) << "q=" << q;  // small MC slack
    previous = r;
  }
}

TEST_P(OverlayProperties, HopLimitNeverFiresAtModerateFailure) {
  // All basic protocols make strictly monotone progress; the safety cap
  // must never trigger.
  const IdSpace space(10);
  const auto overlay = overlay_case().make(space, 9);
  math::Rng fail_rng(10);
  const FailureScenario failures(space, 0.3, fail_rng);
  math::Rng rng(11);
  const auto estimate =
      estimate_routability_parallel(*overlay, failures, {.pairs = 6000}, rng);
  EXPECT_EQ(estimate.hop_limit_hits(), 0u);
}

}  // namespace
}  // namespace dht::sim
