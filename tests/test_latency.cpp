#include "core/latency.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "markov/absorption.hpp"
#include "markov/builders.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht {
namespace {

TEST(ConditionalAbsorption, CoinChainHasOneStep) {
  markov::Chain chain;
  const auto start = chain.add_state("start");
  const auto win = chain.add_state("win");
  const auto lose = chain.add_state("lose");
  chain.add_transition(start, win, 0.3);
  chain.add_transition(start, lose, 0.7);
  const auto result = markov::conditional_absorption_dag(chain, start, win);
  EXPECT_NEAR(result.probability, 0.3, 1e-15);
  EXPECT_NEAR(result.expected_steps, 1.0, 1e-15);
}

TEST(ConditionalAbsorption, BranchingPathLengths) {
  // start -> win directly (0.5) or via mid (0.25), lose otherwise.
  // E[steps | win] = (0.5*1 + 0.25*2) / 0.75 = 4/3.
  markov::Chain chain;
  const auto start = chain.add_state("start");
  const auto mid = chain.add_state("mid");
  const auto win = chain.add_state("win");
  const auto lose = chain.add_state("lose");
  chain.add_transition(start, win, 0.5);
  chain.add_transition(start, mid, 0.25);
  chain.add_transition(start, lose, 0.25);
  chain.add_transition(mid, win, 1.0);
  const auto result = markov::conditional_absorption_dag(chain, start, win);
  EXPECT_NEAR(result.probability, 0.75, 1e-15);
  EXPECT_NEAR(result.expected_steps, 4.0 / 3.0, 1e-12);
}

TEST(ConditionalAbsorption, ZeroProbabilityGivesZeroSteps) {
  markov::Chain chain;
  const auto start = chain.add_state("start");
  const auto win = chain.add_state("win");
  const auto lose = chain.add_state("lose");
  chain.add_transition(start, lose, 1.0);
  (void)win;
  const auto result = markov::conditional_absorption_dag(chain, start, win);
  EXPECT_EQ(result.probability, 0.0);
  EXPECT_EQ(result.expected_steps, 0.0);
}

TEST(LatencyAtDistance, TreeAndHypercubeTakeExactlyHHops) {
  // Every transition in those chains advances a phase: a successful route
  // to distance h takes exactly h hops, at any q.
  const auto tree = core::make_geometry(core::GeometryKind::kTree);
  const auto cube = core::make_geometry(core::GeometryKind::kHypercube);
  for (double q : {0.0, 0.2, 0.6}) {
    for (int h : {1, 4, 9}) {
      EXPECT_NEAR(core::latency_at_distance(*tree, h, 12, q).expected_hops,
                  h, 1e-12);
      EXPECT_NEAR(core::latency_at_distance(*cube, h, 12, q).expected_hops,
                  h, 1e-12);
    }
  }
}

TEST(LatencyAtDistance, FallbackAddsHopsUnderFailure) {
  // XOR at q = 0: h hops.  Under failure, suboptimal hops stretch the
  // successful routes beyond h.
  const auto xr = core::make_geometry(core::GeometryKind::kXor);
  EXPECT_NEAR(core::latency_at_distance(*xr, 8, 12, 0.0).expected_hops, 8.0,
              1e-12);
  EXPECT_GT(core::latency_at_distance(*xr, 8, 12, 0.4).expected_hops, 8.0);
}

TEST(LatencyAtDistance, SuccessProbabilityMatchesGeometry) {
  // The chain's absorption probability must equal the closed-form p(h, q).
  for (core::GeometryKind kind :
       {core::GeometryKind::kTree, core::GeometryKind::kHypercube,
        core::GeometryKind::kXor, core::GeometryKind::kRing}) {
    const auto geometry = core::make_geometry(kind);
    for (double q : {0.1, 0.5}) {
      for (int h : {2, 6, 10}) {
        EXPECT_NEAR(
            core::latency_at_distance(*geometry, h, 12, q)
                .success_probability,
            geometry->success_probability(h, q, 12), 1e-10)
            << to_string(kind) << " q=" << q << " h=" << h;
      }
    }
  }
}

TEST(ExpectedLatency, FailureFreeMeansMeanDistance) {
  // q = 0: mean hops = mean routing distance = d 2^{d-1} / (2^d - 1) for
  // the C(d, h) geometries.
  const auto cube = core::make_geometry(core::GeometryKind::kHypercube);
  const int d = 12;
  const core::LatencyPoint point = core::expected_latency(*cube, d, 0.0);
  const double expected =
      d * std::exp2(d - 1) / (std::exp2(d) - 1.0);
  EXPECT_NEAR(point.mean_hops_given_success, expected, 1e-9);
  EXPECT_NEAR(point.success_fraction, 1.0, 1e-12);
}

TEST(ExpectedLatency, RingFailureFreeMeanDistanceIsDMinusOne) {
  // n(h) = 2^{h-1}: mean phase distance = sum h 2^{h-1} / (2^d - 1) ~ d-1.
  const auto ring = core::make_geometry(core::GeometryKind::kRing);
  const int d = 12;
  const core::LatencyPoint point = core::expected_latency(*ring, d, 0.0);
  double mean = 0.0;
  for (int h = 1; h <= d; ++h) {
    mean += h * std::exp2(h - 1);
  }
  mean /= std::exp2(d) - 1.0;
  EXPECT_NEAR(point.mean_hops_given_success, mean, 1e-9);
}

TEST(ExpectedLatency, SimulatedTreeHopsMatchChain) {
  const int d = 12;
  const double q = 0.3;
  const auto tree_geo = core::make_geometry(core::GeometryKind::kTree);
  const core::LatencyPoint predicted =
      core::expected_latency(*tree_geo, d, q);

  const sim::IdSpace space(d);
  math::Rng rng(31);
  const sim::TreeOverlay overlay(space, rng);
  math::Rng fail_rng(32);
  const sim::FailureScenario failures(space, q, fail_rng);
  math::Rng route_rng(33);
  const auto estimate = sim::estimate_routability_parallel(
      overlay, failures, {.pairs = 40000}, route_rng);
  // Tree survivors take exactly their correction count; the chain's
  // weighting matches the simulator's survivorship bias.
  EXPECT_NEAR(estimate.hops.mean(), predicted.mean_hops_given_success, 0.15);
}

TEST(ExpectedLatency, SimulatedHypercubeHopsMatchChain) {
  const int d = 12;
  const double q = 0.4;
  const auto cube_geo = core::make_geometry(core::GeometryKind::kHypercube);
  const core::LatencyPoint predicted =
      core::expected_latency(*cube_geo, d, q);

  const sim::IdSpace space(d);
  const sim::HypercubeOverlay overlay(space);
  math::Rng fail_rng(34);
  const sim::FailureScenario failures(space, q, fail_rng);
  math::Rng route_rng(35);
  const auto estimate = sim::estimate_routability_parallel(
      overlay, failures, {.pairs = 40000}, route_rng);
  EXPECT_NEAR(estimate.hops.mean(), predicted.mean_hops_given_success, 0.15);
}

TEST(ExpectedLatency, RingChainOverestimatesRealHops) {
  // The chain's suboptimal hops make no progress; classic Chord's do.  The
  // chain prediction is therefore an upper bound on the measured mean hops
  // under failure.
  const int d = 14;
  const double q = 0.4;
  const auto ring_geo = core::make_geometry(core::GeometryKind::kRing);
  const core::LatencyPoint predicted =
      core::expected_latency(*ring_geo, d, q);

  const sim::IdSpace space(d);
  math::Rng rng(36);
  const sim::ChordOverlay overlay(space, rng);
  math::Rng fail_rng(37);
  const sim::FailureScenario failures(space, q, fail_rng);
  math::Rng route_rng(38);
  const auto estimate = sim::estimate_routability_parallel(
      overlay, failures, {.pairs = 20000}, route_rng);
  EXPECT_LE(estimate.hops.mean(),
            predicted.mean_hops_given_success + 0.1);
}

TEST(ExpectedLatency, RejectsOutOfDomain) {
  const auto ring = core::make_geometry(core::GeometryKind::kRing);
  EXPECT_THROW(core::expected_latency(*ring, 24, 0.1), PreconditionError);
  const auto tree = core::make_geometry(core::GeometryKind::kTree);
  EXPECT_THROW(core::latency_at_distance(*tree, 0, 8, 0.1),
               PreconditionError);
  EXPECT_THROW(core::latency_at_distance(*tree, 3, 8, 1.0),
               PreconditionError);
}

}  // namespace
}  // namespace dht
