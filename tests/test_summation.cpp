#include "math/summation.hpp"

#include <cstddef>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace dht::math {
namespace {

/// Compensated sum of a range.
double sum_compensated(std::span<const double> values) noexcept {
  NeumaierSum acc;
  for (double v : values) {
    acc.add(v);
  }
  return acc.total();
}

/// Pairwise (cascade) summation; O(log n) error growth, an independent
/// reference for the compensated sum.
double sum_pairwise(std::span<const double> values) noexcept {
  constexpr std::size_t kBaseCase = 32;
  if (values.size() <= kBaseCase) {
    double s = 0.0;
    for (double v : values) {
      s += v;
    }
    return s;
  }
  const std::size_t half = values.size() / 2;
  return sum_pairwise(values.first(half)) + sum_pairwise(values.subspan(half));
}

TEST(NeumaierSum, EmptyIsZero) {
  const NeumaierSum sum;
  EXPECT_EQ(sum.total(), 0.0);
}

TEST(NeumaierSum, PlainValues) {
  NeumaierSum sum;
  sum.add(1.5);
  sum.add(2.25);
  sum.add(-0.75);
  EXPECT_DOUBLE_EQ(sum.total(), 3.0);
}

TEST(NeumaierSum, ClassicKahanFailureCase) {
  // 1 + 1e100 + 1 - 1e100 == 2 exactly under Neumaier, 0 under naive/Kahan.
  NeumaierSum sum;
  sum.add(1.0);
  sum.add(1e100);
  sum.add(1.0);
  sum.add(-1e100);
  EXPECT_DOUBLE_EQ(sum.total(), 2.0);
}

TEST(NeumaierSum, ManySmallIncrements) {
  // Summing 0.1 ten million times: naive drifts by ~1e-8 or worse; the
  // compensated total must stay within a few ulps of 1e6.
  NeumaierSum sum;
  for (int i = 0; i < 10000000; ++i) {
    sum.add(0.1);
  }
  EXPECT_NEAR(sum.total(), 1e6, 1e-7);
}

TEST(NeumaierSum, ResetClears) {
  NeumaierSum sum;
  sum.add(5.0);
  sum.reset();
  EXPECT_EQ(sum.total(), 0.0);
}

TEST(SumCompensated, MatchesNeumaier) {
  const std::vector<double> values{1.0, 1e100, 1.0, -1e100};
  EXPECT_DOUBLE_EQ(sum_compensated(values), 2.0);
}

TEST(SumPairwise, SimpleRange) {
  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i + 1);
  }
  EXPECT_DOUBLE_EQ(sum_pairwise(values), 1000.0 * 1001.0 / 2.0);
}

TEST(SumPairwise, AgreesWithCompensatedOnAlternatingSeries) {
  std::vector<double> values;
  double sign = 1.0;
  for (int i = 1; i <= 100000; ++i) {
    values.push_back(sign / static_cast<double>(i));
    sign = -sign;
  }
  EXPECT_NEAR(sum_pairwise(values), sum_compensated(values), 1e-12);
}

TEST(SumPairwise, EmptyAndSingle) {
  EXPECT_EQ(sum_pairwise({}), 0.0);
  const std::vector<double> one{42.0};
  EXPECT_EQ(sum_pairwise(one), 42.0);
}

}  // namespace
}  // namespace dht::math
