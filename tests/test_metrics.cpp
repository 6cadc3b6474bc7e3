// Failure-free hop statistics vs the latency theory each geometry quotes.
#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"
#include "support/oracles.hpp"

namespace dht::sim {
namespace {

TEST(Metrics, HypercubeMeanHopsIsHalfD) {
  // Mean Hamming distance between random ids is d/2 and hops == distance.
  const IdSpace space(12);
  const HypercubeOverlay overlay(space);
  math::Rng rng(1);
  const auto hops = failure_free_hops(overlay, 4000, rng);
  EXPECT_NEAR(hops.mean(), 6.0, 0.15);
  EXPECT_GE(hops.min(), 1.0);
  EXPECT_LE(hops.max(), 12.0);
}

TEST(Metrics, TreeMeanHopsIsHalfD) {
  // Each level needs correction w.p. 1/2 independently (random suffixes):
  // hops ~ Binomial(d, 1/2) conditioned nonzero.
  const IdSpace space(12);
  math::Rng rng(2);
  const TreeOverlay overlay(space, rng);
  const auto hops = failure_free_hops(overlay, 4000, rng);
  EXPECT_NEAR(hops.mean(), 6.0, 0.2);
  EXPECT_LE(hops.max(), 12.0);
}

TEST(Metrics, ClassicChordMeanHopsIsHalfD) {
  // Binary decomposition: hops = popcount(distance), mean d/2.
  const IdSpace space(12);
  math::Rng rng(3);
  const ChordOverlay overlay(space, rng);
  const auto hops = failure_free_hops(overlay, 4000, rng);
  EXPECT_NEAR(hops.mean(), 6.0, 0.15);
  EXPECT_LE(hops.max(), 12.0);
}

TEST(Metrics, XorEqualsTreeWithoutFailures) {
  const IdSpace space(12);
  math::Rng rng(4);
  const XorOverlay overlay(space, rng);
  const auto hops = failure_free_hops(overlay, 4000, rng);
  EXPECT_NEAR(hops.mean(), 6.0, 0.2);
}

TEST(Metrics, SymphonyLatencyGrowsAsLogSquared) {
  // O(log^2 N): the ratio mean_hops / (log N)^2 should be roughly stable
  // across sizes (within a small constant band).
  math::Rng rng(5);
  double ratio_small = 0.0;
  double ratio_large = 0.0;
  {
    const IdSpace space(10);
    const SymphonyOverlay overlay(space, 1, 1, rng);
    math::Rng metric_rng(6);
    ratio_small =
        failure_free_hops(overlay, 1500, metric_rng).mean() / (10.0 * 10.0);
  }
  {
    const IdSpace space(14);
    const SymphonyOverlay overlay(space, 1, 1, rng);
    math::Rng metric_rng(7);
    ratio_large =
        failure_free_hops(overlay, 1500, metric_rng).mean() / (14.0 * 14.0);
  }
  EXPECT_GT(ratio_small, 0.05);
  EXPECT_LT(ratio_small, 1.0);
  EXPECT_NEAR(ratio_large, ratio_small, 0.6 * ratio_small);
}

TEST(Metrics, RejectsZeroSamples) {
  const IdSpace space(6);
  const HypercubeOverlay overlay(space);
  math::Rng rng(8);
  EXPECT_THROW(failure_free_hops(overlay, 0, rng), PreconditionError);
}

}  // namespace
}  // namespace dht::sim
