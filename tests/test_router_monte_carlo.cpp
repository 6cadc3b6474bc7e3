#include <gtest/gtest.h>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/router.hpp"
#include "sim/tree_overlay.hpp"

namespace dht::sim {
namespace {

// Exact measurement over every ordered pair of alive nodes through the
// virtual Router; O(N^2 * hops), for spaces up to ~2^10.  The oracle the
// sampled estimator is checked against, free of sampling noise.
RoutabilityEstimate exact_routability(const Overlay& overlay,
                                      const FailureScenario& failures,
                                      math::Rng& rng) {
  DHT_CHECK(failures.alive_count() >= 2,
            "routability needs at least two alive nodes");
  const Router router(overlay, failures);
  RoutabilityEstimate estimate;
  const std::uint64_t size = failures.size();
  for (NodeId source = 0; source < size; ++source) {
    if (!failures.alive(source)) {
      continue;
    }
    for (NodeId target = 0; target < size; ++target) {
      if (target == source || !failures.alive(target)) {
        continue;
      }
      estimate.record(router.route(source, target, rng));
    }
  }
  return estimate;
}

TEST(Router, TraceStartsAtSourceEndsAtTarget) {
  const IdSpace space(8);
  const HypercubeOverlay overlay(space);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router router(overlay, alive);
  math::Rng rng(3);
  const RouteTrace trace = router.route_traced(5, 200, rng);
  ASSERT_TRUE(trace.result.success());
  ASSERT_GE(trace.path.size(), 2u);
  EXPECT_EQ(trace.path.front(), 5u);
  EXPECT_EQ(trace.path.back(), 200u);
  EXPECT_EQ(static_cast<int>(trace.path.size()) - 1, trace.result.hops);
}

TEST(Router, TraceRecordsDropPoint) {
  const IdSpace space(6);
  math::Rng build_rng(4);
  const TreeOverlay overlay(space, build_rng);
  FailureScenario failures = FailureScenario::all_alive(space);
  const NodeId doomed = overlay.table()->neighbor(0, 1);
  failures.kill(doomed);
  const NodeId target = flip_level(0, 1, 6);
  if (target != doomed) {
    const Router router(overlay, failures);
    math::Rng rng(5);
    const RouteTrace trace = router.route_traced(0, target, rng);
    EXPECT_EQ(trace.result.status, RouteStatus::kDropped);
    EXPECT_EQ(trace.path.size(), 1u);
    EXPECT_EQ(trace.result.last_node, 0u);
  }
}

TEST(Router, HopLimitFires) {
  const IdSpace space(8);
  const HypercubeOverlay overlay(space);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router router(overlay, alive, /*max_hops=*/1);
  math::Rng rng(6);
  // Hamming distance 3 cannot be covered in 1 hop.
  const RouteResult result = router.route(0, 0b111, rng);
  EXPECT_EQ(result.status, RouteStatus::kHopLimit);
}

TEST(Router, RejectsBadEndpoints) {
  const IdSpace space(6);
  const HypercubeOverlay overlay(space);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const Router router(overlay, alive);
  math::Rng rng(7);
  EXPECT_THROW(router.route(0, 0, rng), PreconditionError);
  EXPECT_THROW(router.route(0, 64, rng), PreconditionError);
  EXPECT_THROW(router.route(64, 0, rng), PreconditionError);
}

TEST(Router, MismatchedScenarioRejected) {
  const IdSpace space_a(6);
  const IdSpace space_b(7);
  const HypercubeOverlay overlay(space_a);
  const FailureScenario alive = FailureScenario::all_alive(space_b);
  EXPECT_THROW(Router(overlay, alive), PreconditionError);
}

TEST(RouteStatusToString, AllValues) {
  EXPECT_STREQ(to_string(RouteStatus::kArrived), "arrived");
  EXPECT_STREQ(to_string(RouteStatus::kDropped), "dropped");
  EXPECT_STREQ(to_string(RouteStatus::kHopLimit), "hop-limit");
}

TEST(MonteCarlo, PerfectNetworkIsFullyRoutable) {
  const IdSpace space(10);
  const HypercubeOverlay overlay(space);
  const FailureScenario alive = FailureScenario::all_alive(space);
  math::Rng rng(8);
  const auto estimate =
      estimate_routability_parallel(overlay, alive, {.pairs = 5000}, rng);
  EXPECT_EQ(estimate.routability(), 1.0);
  EXPECT_EQ(estimate.failed_fraction(), 0.0);
  EXPECT_EQ(estimate.hop_limit_hits(), 0u);
  // Mean Hamming distance between random ids is d/2 = 5.
  EXPECT_NEAR(estimate.hops.mean(), 5.0, 0.2);
}

TEST(MonteCarlo, ExactMatchesEstimateOnSmallSpace) {
  const IdSpace space(7);
  const HypercubeOverlay overlay(space);
  math::Rng fail_rng(9);
  const FailureScenario failures(space, 0.2, fail_rng);
  math::Rng rng_a(10);
  math::Rng rng_b(11);
  const auto exact = exact_routability(overlay, failures, rng_a);
  const auto sampled = estimate_routability_parallel(
      overlay, failures, {.pairs = 60000}, rng_b);
  // The sampled estimate must sit inside ~4 sigma of the exact value.
  EXPECT_NEAR(sampled.routability(), exact.routability(), 0.01);
  // Exact enumerates all ordered alive pairs.
  const std::uint64_t alive = failures.alive_count();
  EXPECT_EQ(exact.routed.trials, alive * (alive - 1));
}

TEST(MonteCarlo, ConfidenceIntervalCoversPoint) {
  const IdSpace space(9);
  const HypercubeOverlay overlay(space);
  math::Rng fail_rng(12);
  const FailureScenario failures(space, 0.3, fail_rng);
  math::Rng rng(13);
  const auto estimate = estimate_routability_parallel(
      overlay, failures, {.pairs = 2000}, rng);
  const math::Interval ci = estimate.confidence95();
  EXPECT_TRUE(ci.contains(estimate.routability()));
  EXPECT_LT(ci.width(), 0.1);
}

TEST(MonteCarlo, RequiresTwoAliveNodes) {
  const IdSpace space(4);
  const HypercubeOverlay overlay(space);
  FailureScenario failures = FailureScenario::all_alive(space);
  for (NodeId id = 1; id < space.size(); ++id) {
    failures.kill(id);
  }
  math::Rng rng(14);
  EXPECT_THROW(
      estimate_routability_parallel(overlay, failures, {.pairs = 10}, rng),
      PreconditionError);
  EXPECT_THROW(exact_routability(overlay, failures, rng), PreconditionError);
}

TEST(MonteCarlo, RejectsZeroPairs) {
  const IdSpace space(4);
  const HypercubeOverlay overlay(space);
  const FailureScenario alive = FailureScenario::all_alive(space);
  math::Rng rng(15);
  EXPECT_THROW(
      estimate_routability_parallel(overlay, alive, {.pairs = 0}, rng),
      PreconditionError);
}

}  // namespace
}  // namespace dht::sim
