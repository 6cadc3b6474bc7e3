#include "math/stats.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "support/oracles.hpp"

namespace dht::math {
namespace {

TEST(Proportion, PointEstimate) {
  Proportion p;
  EXPECT_EQ(p.point(), 0.0);
  p.record(true);
  p.record(true);
  p.record(false);
  p.record(true);
  EXPECT_DOUBLE_EQ(p.point(), 0.75);
  EXPECT_EQ(p.successes, 3u);
  EXPECT_EQ(p.trials, 4u);
}

TEST(Proportion, WilsonIntervalContainsPoint) {
  Proportion p;
  for (int i = 0; i < 100; ++i) {
    p.record(i < 37);
  }
  const Interval ci = p.wilson(1.96);
  EXPECT_TRUE(ci.contains(p.point()));
  EXPECT_GT(ci.lo, 0.25);
  EXPECT_LT(ci.hi, 0.50);
}

TEST(Proportion, WilsonKnownValue) {
  // 37/100 at z = 1.96: center = (p + z^2/2n)/(1 + z^2/n) = 0.374809,
  // spread = 0.092987, giving [0.281822, 0.467797].
  Proportion p{37, 100};
  const Interval ci = p.wilson(1.96);
  EXPECT_NEAR(ci.lo, 0.281822, 5e-4);
  EXPECT_NEAR(ci.hi, 0.467797, 5e-4);
}

TEST(Proportion, WilsonBehavedAtExtremes) {
  Proportion all{100, 100};
  const Interval hi = all.wilson(1.96);
  EXPECT_GT(hi.lo, 0.95);
  EXPECT_DOUBLE_EQ(hi.hi, 1.0);

  Proportion none{0, 100};
  const Interval lo = none.wilson(1.96);
  EXPECT_DOUBLE_EQ(lo.lo, 0.0);
  EXPECT_LT(lo.hi, 0.05);
}

TEST(Proportion, WilsonShrinksWithTrials) {
  Proportion small{5, 10};
  Proportion large{5000, 10000};
  EXPECT_GT(small.wilson(1.96).width(), large.wilson(1.96).width());
}

TEST(Proportion, WilsonRejectsDegenerate) {
  Proportion empty;
  EXPECT_THROW(empty.wilson(1.96), PreconditionError);
  Proportion ok{1, 2};
  EXPECT_THROW(ok.wilson(0.0), PreconditionError);
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic example is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, FewSamples) {
  RunningStat s;
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.0);
  EXPECT_EQ(s.max(), 3.0);
}

TEST(RunningStat, NumericallyStableAroundLargeOffset) {
  // Welford must not cancel: variance of {1e9 + 4, 1e9 + 7, 1e9 + 13,
  // 1e9 + 16} is exactly 30.
  RunningStat s;
  for (double x : {4.0, 7.0, 13.0, 16.0}) {
    s.add(1e9 + x);
  }
  EXPECT_NEAR(s.variance(), 30.0, 1e-6);
}

TEST(Interval, ContainsAndWidth) {
  const Interval i{0.2, 0.6};
  EXPECT_TRUE(i.contains(0.2));
  EXPECT_TRUE(i.contains(0.6));
  EXPECT_TRUE(i.contains(0.4));
  EXPECT_FALSE(i.contains(0.1));
  EXPECT_FALSE(i.contains(0.7));
  EXPECT_NEAR(i.width(), 0.4, 1e-15);
}

}  // namespace
}  // namespace dht::math
