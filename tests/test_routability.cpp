#include "core/routability.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/registry.hpp"

namespace dht::core {
namespace {

class RoutabilityAllGeometries
    : public ::testing::TestWithParam<GeometryKind> {};

INSTANTIATE_TEST_SUITE_P(AllKinds, RoutabilityAllGeometries,
                         ::testing::ValuesIn(all_geometry_kinds()),
                         [](const auto& test_info) {
                           return std::string(to_string(test_info.param));
                         });

TEST_P(RoutabilityAllGeometries, PerfectNetworkIsFullyRoutable) {
  const auto geometry = make_geometry(GetParam());
  for (int d : {2, 8, 16, 32}) {
    const RoutabilityPoint point = evaluate_routability(*geometry, d, 0.0);
    EXPECT_NEAR(point.routability, 1.0, 1e-9) << "d=" << d;
    EXPECT_NEAR(point.failed_fraction, 0.0, 1e-9) << "d=" << d;
    EXPECT_NEAR(point.conditional_success, 1.0, 1e-9) << "d=" << d;
  }
}

TEST_P(RoutabilityAllGeometries, BoundedToUnitInterval) {
  const auto geometry = make_geometry(GetParam());
  for (int d : {4, 16}) {
    for (double q = 0.0; q < 0.95; q += 0.05) {
      const RoutabilityPoint point = evaluate_routability(*geometry, d, q);
      EXPECT_GE(point.routability, 0.0) << "d=" << d << " q=" << q;
      EXPECT_LE(point.routability, 1.0) << "d=" << d << " q=" << q;
      EXPECT_NEAR(point.routability + point.failed_fraction, 1.0, 1e-12);
      EXPECT_GE(point.conditional_success, 0.0);
      EXPECT_LE(point.conditional_success, 1.0);
    }
  }
}

TEST_P(RoutabilityAllGeometries, MonotoneNonIncreasingInQ) {
  // Symphony's r(q) turns non-monotone above q ~ 0.7: E[S] saturates at its
  // one-phase floor while the pair denominator (1-q)2^d keeps shrinking.
  // That is a property of the paper's model (Eq. 7's hop cap grows as
  // d/(1-q)), so the monotonicity check stops at 0.6 for symphony and runs
  // the full range for the other four geometries.
  const auto geometry = make_geometry(GetParam());
  const double q_max = GetParam() == GeometryKind::kSymphony ? 0.6 : 0.9;
  double previous = 1.0;
  for (double q = 0.0; q < q_max; q += 0.02) {
    const double r = evaluate_routability(*geometry, 16, q).routability;
    EXPECT_LE(r, previous + 1e-10) << "q=" << q;
    previous = r;
  }
}

TEST_P(RoutabilityAllGeometries, ConditionalSuccessMatchesRoutabilityScale) {
  // conditional_success = r * ((1-q)2^d - 1) / ((1-q)(2^d - 1)): the two
  // differ by O(q / N).
  const auto geometry = make_geometry(GetParam());
  const int d = 16;
  for (double q : {0.1, 0.3, 0.5}) {
    const RoutabilityPoint point = evaluate_routability(*geometry, d, q);
    const double n = std::exp2(d);
    const double rescaled = point.routability * ((1 - q) * n - 1.0) /
                            ((1 - q) * (n - 1.0));
    EXPECT_NEAR(point.conditional_success, rescaled, 1e-9) << "q=" << q;
  }
}

TEST_P(RoutabilityAllGeometries, NearTotalFailureKillsRouting) {
  const auto geometry = make_geometry(GetParam());
  // (1-q) 2^4 <= 1 at q = 0.95: fewer than one expected survivor.
  const RoutabilityPoint point = evaluate_routability(*geometry, 4, 0.95);
  EXPECT_EQ(point.routability, 0.0);
  EXPECT_EQ(point.failed_fraction, 1.0);
}

TEST(Routability, HypercubeScalesFlatInN) {
  // Fig. 7(b): the hypercube curve is flat in system size at q = 0.1.
  const auto cube = make_geometry(GeometryKind::kHypercube);
  const double r16 = evaluate_routability(*cube, 16, 0.1).routability;
  const double r40 = evaluate_routability(*cube, 40, 0.1).routability;
  const double r100 = evaluate_routability(*cube, 100, 0.1).routability;
  EXPECT_NEAR(r16, r100, 1e-3);
  EXPECT_NEAR(r40, r100, 1e-6);
  EXPECT_GT(r100, 0.98);  // ~0.989 at q = 0.1
}

TEST(Routability, TreeCollapsesInN) {
  // Fig. 7(b): the tree curve decays to zero as the system grows.
  const auto tree = make_geometry(GeometryKind::kTree);
  const double r16 = evaluate_routability(*tree, 16, 0.1).routability;
  const double r33 = evaluate_routability(*tree, 33, 0.1).routability;
  const double r100 = evaluate_routability(*tree, 100, 0.1).routability;
  EXPECT_GT(r16, r33);
  EXPECT_GT(r33, r100);
  EXPECT_LT(r100, 0.01);
}

TEST(Routability, SymphonyCollapsesInN) {
  const auto sym = make_geometry(GeometryKind::kSymphony);
  const double r16 = evaluate_routability(*sym, 16, 0.1).routability;
  const double r33 = evaluate_routability(*sym, 33, 0.1).routability;
  const double r100 = evaluate_routability(*sym, 100, 0.1).routability;
  EXPECT_GT(r16, r33);
  EXPECT_GT(r33, r100);
  EXPECT_LT(r100, 0.02);
}

TEST(Routability, GiganticDEvaluatesStably) {
  // The log-domain evaluator must handle d far beyond double overflow in
  // linear space (2^4096 node ids).
  const auto cube = make_geometry(GeometryKind::kHypercube);
  const RoutabilityPoint point = evaluate_routability(*cube, 4096, 0.2);
  EXPECT_GT(point.routability, 0.90);
  EXPECT_LE(point.routability, 1.0);
  // The unscalable tree is not exactly zero at finite d but is
  // astronomically small: r ~ ((2-q)/2)^d / (1-q) ~ 1e-188 at d = 4096.
  const auto tree = make_geometry(GeometryKind::kTree);
  const double tree_r = evaluate_routability(*tree, 4096, 0.2).routability;
  EXPECT_GT(tree_r, 0.0);
  EXPECT_LT(tree_r, 1e-150);
}

TEST(Routability, SweepPointsEchoTheirArguments) {
  // The Fig. 6 / Fig. 7(a) axis (q at fixed d) and the Fig. 7(b) axis (d at
  // fixed q): every point records the (d, q) it was evaluated at.
  const auto ring = make_geometry(GeometryKind::kRing);
  for (double q : {0.0, 0.2, 0.4}) {
    const RoutabilityPoint point = evaluate_routability(*ring, 12, q);
    EXPECT_EQ(point.q, q);
    EXPECT_EQ(point.d, 12);
  }
  for (int d : {4, 8, 16}) {
    const RoutabilityPoint point = evaluate_routability(*ring, d, 0.1);
    EXPECT_EQ(point.d, d);
    EXPECT_EQ(point.q, 0.1);
  }
}

TEST(Routability, RejectsBadArguments) {
  const auto tree = make_geometry(GeometryKind::kTree);
  EXPECT_THROW(evaluate_routability(*tree, 0, 0.1), PreconditionError);
  EXPECT_THROW(evaluate_routability(*tree, 8, -0.1), PreconditionError);
  EXPECT_THROW(evaluate_routability(*tree, 8, 1.0), PreconditionError);
}

}  // namespace
}  // namespace dht::core
