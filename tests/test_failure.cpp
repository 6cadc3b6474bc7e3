#include "sim/failure.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace dht::sim {
namespace {

TEST(FailureScenario, AllAliveBaseline) {
  const IdSpace space(8);
  const FailureScenario scenario = FailureScenario::all_alive(space);
  EXPECT_EQ(scenario.alive_count(), 256u);
  EXPECT_EQ(scenario.alive_fraction(), 1.0);
  for (NodeId id = 0; id < 256; ++id) {
    EXPECT_TRUE(scenario.alive(id));
  }
}

TEST(FailureScenario, QZeroKillsNobody) {
  const IdSpace space(10);
  math::Rng rng(1);
  const FailureScenario scenario(space, 0.0, rng);
  EXPECT_EQ(scenario.alive_count(), space.size());
}

TEST(FailureScenario, AliveFractionTracksQ) {
  const IdSpace space(14);  // 16384 nodes
  for (double q : {0.1, 0.3, 0.5, 0.9}) {
    math::Rng rng(static_cast<std::uint64_t>(q * 1000));
    const FailureScenario scenario(space, q, rng);
    // SE = sqrt(q(1-q)/16384) <= 0.004; allow 5 sigma.
    EXPECT_NEAR(scenario.alive_fraction(), 1.0 - q, 0.02) << "q=" << q;
  }
}

TEST(FailureScenario, DeterministicGivenSeed) {
  const IdSpace space(10);
  math::Rng rng_a(77);
  math::Rng rng_b(77);
  const FailureScenario a(space, 0.4, rng_a);
  const FailureScenario b(space, 0.4, rng_b);
  for (NodeId id = 0; id < space.size(); ++id) {
    EXPECT_EQ(a.alive(id), b.alive(id));
  }
}

TEST(FailureScenario, DifferentSeedsDiffer) {
  const IdSpace space(10);
  math::Rng rng_a(1);
  math::Rng rng_b(2);
  const FailureScenario a(space, 0.5, rng_a);
  const FailureScenario b(space, 0.5, rng_b);
  int differences = 0;
  for (NodeId id = 0; id < space.size(); ++id) {
    differences += a.alive(id) != b.alive(id) ? 1 : 0;
  }
  EXPECT_GT(differences, 100);  // expected ~512
}

TEST(FailureScenario, SampleAliveOnlyReturnsAliveNodes) {
  const IdSpace space(8);
  math::Rng rng(5);
  FailureScenario scenario(space, 0.6, rng);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(scenario.alive(scenario.sample_alive(rng)));
  }
}

TEST(FailureScenario, SampleAliveIsRoughlyUniform) {
  const IdSpace space(4);
  math::Rng rng(11);
  FailureScenario scenario(space, 0.0, rng);
  scenario.kill(3);
  std::vector<int> histogram(16, 0);
  const int draws = 30000;
  for (int i = 0; i < draws; ++i) {
    ++histogram[scenario.sample_alive(rng)];
  }
  EXPECT_EQ(histogram[3], 0);
  for (NodeId id = 0; id < 16; ++id) {
    if (id == 3) {
      continue;
    }
    EXPECT_NEAR(histogram[id], draws / 15, 350) << "id=" << id;
  }
}

TEST(FailureScenario, KillAndReviveMaintainCount) {
  const IdSpace space(6);
  FailureScenario scenario = FailureScenario::all_alive(space);
  scenario.kill(7);
  scenario.kill(7);  // idempotent
  EXPECT_FALSE(scenario.alive(7));
  EXPECT_EQ(scenario.alive_count(), 63u);
  scenario.revive(7);
  scenario.revive(7);
  EXPECT_TRUE(scenario.alive(7));
  EXPECT_EQ(scenario.alive_count(), 64u);
}

// kill/revive must keep the alive index in one fixed order: sample_alive
// draws index it directly, so any change in the swap-remove order moves
// every sampled route.
TEST(FailureScenario, KillReviveOrderIsPinned) {
  const IdSpace space(6);
  FailureScenario s = FailureScenario::all_alive(space);
  s.kill(10);   // middle: the last id (63) moves into its slot
  s.kill(63);   // the moved id
  s.kill(63);   // killing twice is a no-op
  s.kill(0);
  s.revive(63);  // appended at the back
  s.kill(63);    // killing the last element
  s.kill(62);
  s.revive(10);
  s.kill(61);
  s.kill(5);
  s.kill(5);
  s.revive(0);
  s.kill(10);
  s.kill(33);
  const std::vector<std::uint32_t> expected_ids = {
      0,  1,  2,  3,  4,  59, 6,  7,  8,  9,  60, 11, 12, 13, 14, 15,
      16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
      32, 58, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47,
      48, 49, 50, 51, 52, 53, 54, 55, 56, 57};
  EXPECT_EQ(s.alive_ids(), expected_ids);
  EXPECT_EQ(s.alive_count(), 58u);
  const std::vector<NodeId> expected_draws = {
      42, 6,  21, 4,  45, 55, 27, 58, 14, 30, 52, 53, 47, 50, 45, 43,
      31, 32, 25, 58, 32, 20, 31, 1,  34, 21, 7,  24, 41, 59, 24, 42,
      25, 43, 8,  22, 48, 39, 28, 55, 12, 46, 21, 16, 21, 30, 12, 51,
      36, 30, 48, 42, 2,  6,  60, 30, 11, 40, 30, 4,  28, 11, 51, 6};
  math::CounterRng rng(19);
  std::vector<NodeId> draws;
  for (int i = 0; i < 64; ++i) {
    draws.push_back(s.sample_alive(rng));
  }
  EXPECT_EQ(draws, expected_draws);
}

// The packed mask is the only liveness representation: alive(id), the
// words the routing kernels probe, alive_count() and the alive index must
// agree after construction and after any kill/revive sequence, with the
// padding bits past size() zero.
void expect_packed_consistent(const FailureScenario& s, const char* what) {
  const std::uint64_t words = (s.size() + 63) / 64;
  std::uint64_t popcount = 0;
  for (std::uint64_t w = 0; w < words; ++w) {
    popcount += static_cast<std::uint64_t>(std::popcount(s.alive_bits()[w]));
  }
  EXPECT_EQ(popcount, s.alive_count()) << what;
  for (NodeId id = 0; id < s.size(); ++id) {
    ASSERT_EQ(s.alive(id), ((s.alive_bits()[id >> 6] >> (id & 63)) & 1) != 0)
        << what << " id=" << id;
  }
  const std::uint64_t tail = s.size() & 63;
  if (tail != 0) {
    EXPECT_EQ(s.alive_bits()[words - 1] >> tail, 0u) << what;
  }
  EXPECT_EQ(s.alive_ids().size(), s.alive_count()) << what;
  for (const std::uint32_t id : s.alive_ids()) {
    EXPECT_TRUE(s.alive(id)) << what << " id=" << id;
  }
}

TEST(FailureScenario, PackedLivenessStaysConsistent) {
  for (const int bits : {3, 6, 7, 10}) {
    const IdSpace space(bits);
    for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        math::Rng rng(seed * 100 + static_cast<std::uint64_t>(bits));
        FailureScenario s(space, q, rng);
        const std::string what = "bits=" + std::to_string(bits) +
                                 " q=" + std::to_string(q) +
                                 " seed=" + std::to_string(seed);
        expect_packed_consistent(s, what.c_str());
        if (q == 0.0) {
          EXPECT_EQ(s.alive_count(), space.size());
        } else if (q == 1.0) {
          EXPECT_EQ(s.alive_count(), 0u);
        }
        std::vector<bool> expected(space.size());
        for (NodeId id = 0; id < space.size(); ++id) {
          expected[id] = s.alive(id);
        }
        math::Rng ops(seed);
        for (int op = 0; op < 200; ++op) {
          const NodeId id = ops.uniform_below(space.size());
          if (ops.bernoulli(0.5)) {
            s.kill(id);
            expected[id] = false;
          } else {
            s.revive(id);
            expected[id] = true;
          }
        }
        expect_packed_consistent(s, what.c_str());
        for (NodeId id = 0; id < space.size(); ++id) {
          EXPECT_EQ(s.alive(id), expected[id]) << what << " id=" << id;
        }
      }
    }
  }
}

TEST(FailureScenario, AllAliveSetsEveryBitAndNoPadding) {
  for (const int bits : {1, 5, 6, 9}) {
    const IdSpace space(bits);
    const FailureScenario s = FailureScenario::all_alive(space);
    expect_packed_consistent(s, "all_alive");
    EXPECT_EQ(s.alive_count(), space.size());
    for (std::uint64_t w = 0; w + 1 < (space.size() + 63) / 64; ++w) {
      EXPECT_EQ(s.alive_bits()[w], ~std::uint64_t{0});
    }
  }
}

TEST(FailureScenario, RejectsBadArguments) {
  const IdSpace space(6);
  math::Rng rng(1);
  EXPECT_THROW(FailureScenario(space, -0.1, rng), PreconditionError);
  EXPECT_THROW(FailureScenario(space, 1.1, rng), PreconditionError);
  FailureScenario scenario = FailureScenario::all_alive(space);
  EXPECT_THROW(scenario.kill(64), PreconditionError);
  EXPECT_THROW(scenario.revive(64), PreconditionError);
}

TEST(IdSpace, SizeAndContains) {
  const IdSpace space(16);
  EXPECT_EQ(space.bits(), 16);
  EXPECT_EQ(space.size(), 65536u);
  EXPECT_TRUE(space.contains(0));
  EXPECT_TRUE(space.contains(65535));
  EXPECT_FALSE(space.contains(65536));
}

TEST(IdSpace, RejectsBadWidth) {
  EXPECT_THROW(IdSpace(0), PreconditionError);
  EXPECT_THROW(IdSpace(27), PreconditionError);
}

}  // namespace
}  // namespace dht::sim
