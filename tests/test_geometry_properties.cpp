// Systematic property sweeps across all five geometries -- the invariants
// every RCM geometry must satisfy, enforced on a (geometry x q) grid via
// parameterized tests rather than per-geometry spot checks.
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/routability.hpp"
#include "core/scalability.hpp"
#include "markov/absorption.hpp"
#include "markov/builders.hpp"
#include "math/logreal.hpp"
#include "math/rng.hpp"
#include "support/oracles.hpp"

namespace dht::core {
namespace {

using Param = std::tuple<GeometryKind, double>;

class GeometryProperties : public ::testing::TestWithParam<Param> {
 protected:
  std::unique_ptr<Geometry> geometry() const {
    return make_geometry(std::get<0>(GetParam()));
  }
  double q() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Grid, GeometryProperties,
    ::testing::Combine(::testing::ValuesIn(all_geometry_kinds()),
                       ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9)),
    [](const auto& test_info) {
      return std::string(to_string(std::get<0>(test_info.param))) + "_q" +
             std::to_string(static_cast<int>(std::get<1>(test_info.param) * 100));
    });

TEST_P(GeometryProperties, PhaseFailureIsAProbability) {
  const auto g = geometry();
  for (int d : {8, 16, 64}) {
    for (int m = 1; m <= d; ++m) {
      const double failure = g->phase_failure(m, q(), d);
      EXPECT_GE(failure, 0.0) << "d=" << d << " m=" << m;
      EXPECT_LE(failure, 1.0) << "d=" << d << " m=" << m;
    }
  }
}

TEST_P(GeometryProperties, PhaseFailureVanishesAtQZero) {
  const auto g = geometry();
  for (int m = 1; m <= 16; ++m) {
    EXPECT_EQ(g->phase_failure(m, 0.0, 16), 0.0) << "m=" << m;
  }
}

TEST_P(GeometryProperties, SuccessProbabilityMonotoneInDistance) {
  const auto g = geometry();
  const int d = 16;
  double previous = 1.0;
  for (int h = 1; h <= d; ++h) {
    const double p = g->success_probability(h, q(), d);
    EXPECT_LE(p, previous + 1e-14) << "h=" << h;
    EXPECT_GE(p, 0.0);
    previous = p;
  }
}

TEST_P(GeometryProperties, SuccessProbabilityMonotoneInFailure) {
  const auto g = geometry();
  const int d = 16;
  const int h = 8;
  double previous = 1.0;
  for (double qq = 0.0; qq < 0.95; qq += 0.05) {
    const double p = g->success_probability(h, qq, d);
    EXPECT_LE(p, previous + 1e-12) << "q=" << qq;
    previous = p;
  }
}

TEST_P(GeometryProperties, LogAndLinearSuccessAgree) {
  const auto g = geometry();
  const int d = 16;
  for (int h : {1, 5, 12, 16}) {
    const double linear = g->success_probability(h, q(), d);
    const double logged = std::exp(g->log_success_probability(h, q(), d));
    EXPECT_NEAR(linear, logged, 1e-12 * (1.0 + linear)) << "h=" << h;
  }
}

TEST_P(GeometryProperties, DistanceCountsSumToPeers) {
  const auto g = geometry();
  for (int d : {6, 12, 20}) {
    math::LogSum sum;
    for (int h = 1; h <= d; ++h) {
      sum.add(g->distance_count(h, d));
    }
    EXPECT_NEAR(sum.total().log(), std::log(std::exp2(d) - 1.0), 1e-9)
        << "d=" << d;
  }
}

TEST_P(GeometryProperties, DistanceCountOutOfDomainIsZero) {
  const auto g = geometry();
  EXPECT_TRUE(g->distance_count(0, 12).is_zero());
  EXPECT_TRUE(g->distance_count(13, 12).is_zero());
  EXPECT_TRUE(g->distance_count(-1, 12).is_zero());
}

TEST_P(GeometryProperties, RoutabilityWithinUnitInterval) {
  const auto g = geometry();
  for (int d : {4, 12, 24, 64}) {
    const RoutabilityPoint point = evaluate_routability(*g, d, q());
    EXPECT_GE(point.routability, 0.0) << "d=" << d;
    EXPECT_LE(point.routability, 1.0) << "d=" << d;
    EXPECT_GE(point.conditional_success, 0.0) << "d=" << d;
    EXPECT_LE(point.conditional_success, 1.0) << "d=" << d;
  }
}

TEST_P(GeometryProperties, LimitLowerBoundsFiniteSuccess) {
  // p(h, q) decreases to its limit: every finite-h value must be at least
  // the h -> infinity product.
  if (q() >= 0.9) {
    GTEST_SKIP() << "limit underflows to 0 for every geometry at q >= 0.9";
  }
  const auto g = geometry();
  const double limit = limit_success_probability(*g, q());
  const int d = 20;
  for (int h : {1, 5, 10, 20}) {
    EXPECT_GE(g->success_probability(h, q(), d) + 1e-12, limit)
        << "h=" << h;
  }
}

TEST_P(GeometryProperties, ChainAbsorptionMatchesClosedForm) {
  const auto g = geometry();
  const int d = 10;
  for (int h : {1, 3, 6, 10}) {
    markov::RoutingChain built = [&] {
      switch (g->kind()) {
        case GeometryKind::kTree:
          return markov::build_tree_chain(h, q());
        case GeometryKind::kHypercube:
          return markov::build_hypercube_chain(h, q());
        case GeometryKind::kXor:
          return markov::build_xor_chain(h, q());
        case GeometryKind::kRing:
          return markov::build_ring_chain(h, q());
        case GeometryKind::kSymphony:
          return markov::build_symphony_chain(h, d, q(), 1, 1);
      }
      return markov::build_tree_chain(1, 0.0);
    }();
    const double chain_p = markov::absorption_probability_dag(
        built.chain, built.start, built.success);
    EXPECT_NEAR(chain_p, g->success_probability(h, q(), d), 1e-10)
        << "h=" << h;
  }
}

TEST_P(GeometryProperties, WalkerAgreesWithChain) {
  // Monte-Carlo trajectories through the chain: the third estimate of
  // p(h, q), good to sampling noise.
  const auto g = geometry();
  const int d = 10;
  const int h = 6;
  markov::RoutingChain built = [&] {
    switch (g->kind()) {
      case GeometryKind::kTree:
        return markov::build_tree_chain(h, q());
      case GeometryKind::kHypercube:
        return markov::build_hypercube_chain(h, q());
      case GeometryKind::kXor:
        return markov::build_xor_chain(h, q());
      case GeometryKind::kRing:
        return markov::build_ring_chain(h, q());
      case GeometryKind::kSymphony:
        return markov::build_symphony_chain(h, d, q(), 1, 1);
    }
    return markov::build_tree_chain(1, 0.0);
  }();
  math::Rng rng(static_cast<std::uint64_t>(q() * 1000) + 7);
  const auto estimate = markov::estimate_absorption(
      built.chain, built.start, built.success, 40000, rng);
  const double exact = g->success_probability(h, q(), d);
  // 5-sigma band on 40k Bernoulli trials.
  const double sigma = std::sqrt(std::max(exact * (1 - exact), 1e-6) / 40000);
  EXPECT_NEAR(estimate.point(), exact, 5 * sigma + 1e-4);
}

TEST_P(GeometryProperties, ScalabilityVerdictStableAcrossQ) {
  // Definition 2 classifies the geometry, not the operating point: the
  // verdict must not flip with q.
  const auto g = geometry();
  const auto verdict = g->scalability_class();
  if (q() > 0.0 && q() < 1.0) {
    const ScalabilityReport report = analyze_scalability(*g, q());
    EXPECT_EQ(report.analytic, verdict);
  }
}

}  // namespace
}  // namespace dht::core
