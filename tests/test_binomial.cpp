#include "math/binomial.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace dht::math {
namespace {

/// Exact C(n, k) in 64 bits, the reference for the log-space path.
/// Precondition: 0 <= n <= 62 (the largest n for which every C(n, k) fits
/// in uint64_t is 67; 62 keeps the multiply-divide loop overflow-free
/// without 128-bit arithmetic) and 0 <= k <= n.
std::uint64_t binomial_exact(int n, int k) {
  DHT_CHECK(n >= 0 && n <= 62, "binomial_exact supports 0 <= n <= 62");
  DHT_CHECK(k >= 0 && k <= n, "binomial_exact requires 0 <= k <= n");
  if (k > n - k) {
    k = n - k;
  }
  // Multiplicative formula; dividing by i at each step keeps the running
  // value integral: the product of i consecutive integers is divisible by i!.
  std::uint64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    result = result * static_cast<std::uint64_t>(n - k + i) /
             static_cast<std::uint64_t>(i);
  }
  return result;
}

TEST(BinomialExact, SmallValues) {
  EXPECT_EQ(binomial_exact(0, 0), 1u);
  EXPECT_EQ(binomial_exact(1, 0), 1u);
  EXPECT_EQ(binomial_exact(1, 1), 1u);
  EXPECT_EQ(binomial_exact(4, 2), 6u);
  EXPECT_EQ(binomial_exact(5, 2), 10u);
  EXPECT_EQ(binomial_exact(10, 5), 252u);
  EXPECT_EQ(binomial_exact(16, 8), 12870u);
}

TEST(BinomialExact, PaperFig3HypercubeRow) {
  // Fig. 3: n(h) for the 8-node hypercube is C(3, h) = 3, 3, 1.
  EXPECT_EQ(binomial_exact(3, 1), 3u);
  EXPECT_EQ(binomial_exact(3, 2), 3u);
  EXPECT_EQ(binomial_exact(3, 3), 1u);
}

TEST(BinomialExact, Symmetry) {
  for (int n = 1; n <= 30; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_EQ(binomial_exact(n, k), binomial_exact(n, n - k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(BinomialExact, PascalIdentity) {
  for (int n = 2; n <= 40; ++n) {
    for (int k = 1; k < n; ++k) {
      EXPECT_EQ(binomial_exact(n, k),
                binomial_exact(n - 1, k - 1) + binomial_exact(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(BinomialExact, RowSumIsPowerOfTwo) {
  for (int n = 1; n <= 62; ++n) {
    std::uint64_t sum = 0;
    for (int k = 0; k <= n; ++k) {
      sum += binomial_exact(n, k);
    }
    EXPECT_EQ(sum, std::uint64_t{1} << n) << "n=" << n;
  }
}

TEST(BinomialExact, LargestSupportedRow) {
  // C(62, 31) = 465428353255261088, comfortably inside uint64.
  EXPECT_EQ(binomial_exact(62, 31), 465428353255261088ull);
}

TEST(BinomialExact, RejectsOutOfRange) {
  EXPECT_THROW(binomial_exact(63, 3), PreconditionError);
  EXPECT_THROW(binomial_exact(-1, 0), PreconditionError);
  EXPECT_THROW(binomial_exact(5, 6), PreconditionError);
  EXPECT_THROW(binomial_exact(5, -1), PreconditionError);
}

TEST(LogBinomial, MatchesExactForSmallN) {
  for (int n = 1; n <= 62; ++n) {
    for (int k = 0; k <= n; ++k) {
      const double expected = std::log(static_cast<double>(binomial_exact(n, k)));
      EXPECT_NEAR(log_binomial(n, k), expected, 1e-9 * (1.0 + expected))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(LogBinomial, OutOfDomainIsZeroCount) {
  EXPECT_TRUE(std::isinf(log_binomial(10, -1)));
  EXPECT_TRUE(log_binomial(10, -1) < 0);
  EXPECT_TRUE(std::isinf(log_binomial(10, 11)));
}

TEST(LogBinomial, EdgesAreExactlyZero) {
  EXPECT_EQ(log_binomial(100, 0), 0.0);
  EXPECT_EQ(log_binomial(100, 100), 0.0);
}

TEST(LogBinomial, RejectsNegativeN) {
  EXPECT_THROW(log_binomial(-2, 0), PreconditionError);
}

TEST(LogBinomial, HugeRowSumsToPowerOfTwo) {
  // Fig. 7(a) regime: d = 100.  sum_h C(100, h) = 2^100.
  LogSum sum;
  for (int h = 0; h <= 100; ++h) {
    sum.add(binomial(100, h));
  }
  EXPECT_NEAR(sum.total().log(), 100.0 * std::log(2.0), 1e-9);
}

TEST(LogBinomial, CentralCoefficientStirlingSanity) {
  // C(1000, 500) ~ 2^1000 / sqrt(500 pi); check to 1% in log space.
  const double expected =
      1000.0 * std::log(2.0) - 0.5 * std::log(500.0 * 3.14159265358979);
  EXPECT_NEAR(log_binomial(1000, 500), expected, 0.01);
}

}  // namespace
}  // namespace dht::math
