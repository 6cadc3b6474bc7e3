#include "core/tree_geometry.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/routability.hpp"

namespace dht::core {
namespace {

/// C(n, k) from Pascal's triangle, exact for the small rows used here.
double pascal_binomial(int n, int k) {
  std::vector<double> row{1.0};
  for (int i = 1; i <= n; ++i) {
    row.push_back(0.0);
    for (int j = i; j >= 1; --j) {
      row[j] += row[j - 1];
    }
  }
  return row[k];
}

TEST(TreeGeometry, Identity) {
  const TreeGeometry tree;
  EXPECT_EQ(tree.kind(), GeometryKind::kTree);
  EXPECT_EQ(tree.name(), "tree");
  EXPECT_EQ(tree.exactness(), Exactness::kExact);
  EXPECT_EQ(tree.scalability_class(), ScalabilityClass::kUnscalable);
  EXPECT_FALSE(tree.scalability_argument().empty());
}

TEST(TreeGeometry, DistanceCountIsBinomial) {
  const TreeGeometry tree;
  for (int d : {3, 8, 16}) {
    for (int h = 1; h <= d; ++h) {
      EXPECT_NEAR(tree.distance_count(h, d).value(),
                  pascal_binomial(d, h), 1e-6)
          << "d=" << d << " h=" << h;
    }
  }
}

TEST(TreeGeometry, DistanceCountOutOfDomainIsZero) {
  const TreeGeometry tree;
  EXPECT_TRUE(tree.distance_count(0, 8).is_zero());
  EXPECT_TRUE(tree.distance_count(9, 8).is_zero());
  EXPECT_TRUE(tree.distance_count(-3, 8).is_zero());
}

TEST(TreeGeometry, DistanceCountsSumToPeers) {
  // sum_h n(h) = 2^d - 1: every other node sits at some distance.
  const TreeGeometry tree;
  for (int d : {4, 10, 16}) {
    math::LogSum sum;
    for (int h = 1; h <= d; ++h) {
      sum.add(tree.distance_count(h, d));
    }
    EXPECT_NEAR(sum.total().value(), std::exp2(d) - 1.0,
                1e-9 * std::exp2(d));
  }
}

TEST(TreeGeometry, PhaseFailureIsConstantQ) {
  const TreeGeometry tree;
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    for (int m = 1; m <= 64; ++m) {
      EXPECT_EQ(tree.phase_failure(m, q, 64), q);
    }
  }
}

TEST(TreeGeometry, SuccessProbabilityIsPowerLaw) {
  // p(h, q) = (1-q)^h (Section 4.3.1).
  const TreeGeometry tree;
  for (double q : {0.05, 0.3, 0.6}) {
    for (int h = 1; h <= 32; ++h) {
      EXPECT_NEAR(tree.success_probability(h, q, 32), std::pow(1.0 - q, h),
                  1e-12)
          << "q=" << q << " h=" << h;
    }
  }
}

TEST(TreeGeometry, ClosedFormMatchesGenericEvaluator) {
  // r = ((2-q)^d - 1) / ((1-q) 2^d - 1) must equal the generic Eq. 3 sum.
  const TreeGeometry tree;
  for (int d : {4, 8, 16, 32}) {
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75}) {
      const double closed = TreeGeometry::closed_form_routability(d, q);
      const double generic = evaluate_routability(tree, d, q).routability;
      EXPECT_NEAR(generic, closed, 1e-10) << "d=" << d << " q=" << q;
    }
  }
}

TEST(TreeGeometry, ClosedFormKnownValue) {
  // d = 16, q = 0.1: r = (1.9^16 - 1) / (0.9 * 65536 - 1) = 0.4891465...
  const double r = TreeGeometry::closed_form_routability(16, 0.1);
  const double expected =
      (std::pow(1.9, 16) - 1.0) / (0.9 * 65536.0 - 1.0);
  EXPECT_NEAR(r, expected, 1e-12);
  EXPECT_NEAR(r, 0.489, 0.001);
}

TEST(TreeGeometry, ClosedFormExtremeD) {
  // d = 100 (Fig. 7(a) regime): (1.9/2)^100 ~ 5.9e-3 relative to survivors.
  const double r = TreeGeometry::closed_form_routability(100, 0.1);
  const double expected = std::pow(1.9 / 2.0, 100) / 0.9;
  EXPECT_NEAR(r, expected, expected * 1e-6);
  EXPECT_LT(r, 0.01);  // the tree is essentially dead at this scale
}

TEST(TreeGeometry, PerfectNetworkRoutesEverything) {
  EXPECT_DOUBLE_EQ(TreeGeometry::closed_form_routability(12, 0.0), 1.0);
}

TEST(TreeGeometry, RejectsBadArguments) {
  const TreeGeometry tree;
  EXPECT_THROW(tree.phase_failure(0, 0.5, 8), PreconditionError);
  EXPECT_THROW(tree.phase_failure(1, -0.1, 8), PreconditionError);
  EXPECT_THROW(tree.phase_failure(1, 1.5, 8), PreconditionError);
  EXPECT_THROW(tree.distance_count(1, 0), PreconditionError);
  EXPECT_THROW(TreeGeometry::closed_form_routability(0, 0.5),
               PreconditionError);
  EXPECT_THROW(TreeGeometry::closed_form_routability(8, 1.0),
               PreconditionError);
}

}  // namespace
}  // namespace dht::core
