// Property tests for the flattened overlay hot paths against brute-force
// oracles: table-less deterministic Chord fingers vs the closed-form
// offsets, the flattened greedy next_hop vs a straight reimplementation of
// the scan, the O(1) alive-index sample_alive vs a linear-scan index, the
// non-allocating links_into vs links, and every rng-free flat kernel vs
// the virtual-dispatch Router on every ordered alive pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/flat_route.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/router.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht::sim {
namespace {

// The deterministic ring stores no finger table at any d: finger() and
// links_into() are the closed form node + 2^{d-i}.
TEST(ChordFlattening, DeterministicFingerTableMatchesClosedForm) {
  const auto closed_form = [](const IdSpace& space, NodeId v, int i) {
    return (v + (std::uint64_t{1} << (space.bits() - i))) & (space.size() - 1);
  };
  math::Rng rng(1);
  {
    const IdSpace space(8);
    const ChordOverlay overlay(space, rng);
    EXPECT_TRUE(overlay.finger_table().empty());
    EXPECT_EQ(overlay.table_bytes(), 0u);
    std::vector<NodeId> links;
    for (NodeId v = 0; v < space.size(); ++v) {
      overlay.links_into(v, links);
      ASSERT_EQ(links.size(), static_cast<std::size_t>(space.bits()));
      for (int i = 1; i <= space.bits(); ++i) {
        const NodeId expected = closed_form(space, v, i);
        EXPECT_EQ(overlay.finger(v, i), expected) << "v=" << v << " i=" << i;
        EXPECT_EQ(links[static_cast<std::size_t>(i - 1)], expected)
            << "v=" << v << " i=" << i;
      }
    }
  }
  {
    const IdSpace space(20);
    const ChordOverlay overlay(space, rng);
    EXPECT_TRUE(overlay.finger_table().empty());
  }
  {
    // A 22 x 2^22 u32 finger table would take 352 MiB.
    const IdSpace space(22);
    const ChordOverlay overlay(space, rng);
    EXPECT_TRUE(overlay.finger_table().empty());
    math::Rng pick(3);
    std::vector<NodeId> links;
    for (int sample = 0; sample < 64; ++sample) {
      const NodeId v = pick.uniform_below(space.size());
      overlay.links_into(v, links);
      ASSERT_EQ(links.size(), static_cast<std::size_t>(space.bits()));
      for (int i = 1; i <= space.bits(); ++i) {
        const NodeId expected = closed_form(space, v, i);
        EXPECT_EQ(overlay.finger(v, i), expected) << "v=" << v << " i=" << i;
        EXPECT_EQ(links[static_cast<std::size_t>(i - 1)], expected)
            << "v=" << v << " i=" << i;
      }
    }
    // The top edge of the ring wraps to the bottom.
    EXPECT_EQ(overlay.finger(space.size() - 1, space.bits()), 0u);
  }
}

TEST(ChordFlattening, RandomizedFingerOffsetsStayInDyadicRanges) {
  const IdSpace space(8);
  math::Rng rng(2);
  const ChordOverlay overlay(space, rng, ChordFingers::kRandomized);
  const int d = space.bits();
  for (NodeId v = 0; v < space.size(); ++v) {
    for (int i = 1; i <= d; ++i) {
      const std::uint64_t offset = ring_distance(v, overlay.finger(v, i), d);
      const std::uint64_t lo = std::uint64_t{1} << (d - i);
      EXPECT_GE(offset, lo) << "v=" << v << " i=" << i;
      EXPECT_LT(offset, 2 * lo) << "v=" << v << " i=" << i;
    }
  }
}

TEST(ChordFlattening, RandomizedConstructionIsSeedDeterministic) {
  const IdSpace space(7);
  math::Rng rng_a(99);
  math::Rng rng_b(99);
  const ChordOverlay a(space, rng_a, ChordFingers::kRandomized);
  const ChordOverlay b(space, rng_b, ChordFingers::kRandomized);
  EXPECT_EQ(a.finger_table(), b.finger_table());
}

// Brute-force oracle for the chord forwarding rule, written directly from
// the comment in chord_overlay.hpp: greedy clockwise among alive,
// non-overshooting fingers (scanned i = 1..d, first hit wins), with the
// successor list taking over when it outreaches the best alive finger.
std::optional<NodeId> chord_next_hop_oracle(const ChordOverlay& overlay,
                                            NodeId current, NodeId target,
                                            const FailureScenario& failures) {
  const int d = overlay.space().bits();
  const std::uint64_t size = overlay.space().size();
  const std::uint64_t distance = ring_distance(current, target, d);
  std::uint64_t best_progress = 0;
  NodeId best = current;
  for (int i = 1; i <= d; ++i) {
    const NodeId f = overlay.finger(current, i);
    const std::uint64_t progress = ring_distance(current, f, d);
    if (progress > distance) {
      continue;
    }
    if (failures.alive(f)) {
      best_progress = progress;
      best = f;
      break;
    }
  }
  for (int k = overlay.successor_links();
       k > static_cast<int>(best_progress); --k) {
    if (static_cast<std::uint64_t>(k) > distance) {
      continue;
    }
    const NodeId succ = (current + static_cast<std::uint64_t>(k)) & (size - 1);
    if (failures.alive(succ)) {
      return succ;
    }
  }
  if (best_progress == 0) {
    return std::nullopt;
  }
  return best;
}

TEST(ChordFlattening, NextHopMatchesBruteForceOracle) {
  const IdSpace space(8);
  struct Variant {
    ChordFingers fingers;
    int successors;
  };
  for (const Variant variant :
       {Variant{ChordFingers::kDeterministic, 0},
        Variant{ChordFingers::kDeterministic, 3},
        Variant{ChordFingers::kRandomized, 0},
        Variant{ChordFingers::kRandomized, 3}}) {
    math::Rng build_rng(7);
    const ChordOverlay overlay(space, build_rng, variant.fingers,
                               variant.successors);
    math::Rng fail_rng(8);
    const FailureScenario failures(space, 0.3, fail_rng);
    math::Rng pair_rng(9);
    for (int trial = 0; trial < 2000; ++trial) {
      const NodeId current = pair_rng.uniform_below(space.size());
      NodeId target = pair_rng.uniform_below(space.size());
      if (target == current) {
        continue;
      }
      const auto expected =
          chord_next_hop_oracle(overlay, current, target, failures);
      const auto actual =
          overlay.next_hop(current, target, failures, pair_rng);
      EXPECT_EQ(actual, expected)
          << "current=" << current << " target=" << target;
    }
  }
}

// Linear-scan oracle for the alive-index array.
std::vector<std::uint32_t> brute_force_alive_ids(
    const FailureScenario& failures) {
  std::vector<std::uint32_t> ids;
  for (NodeId id = 0; id < failures.size(); ++id) {
    if (failures.alive(id)) {
      ids.push_back(static_cast<std::uint32_t>(id));
    }
  }
  return ids;
}

TEST(AliveIndex, FreshScenarioMatchesBruteForceScan) {
  const IdSpace space(8);
  math::Rng rng(31);
  const FailureScenario failures(space, 0.4, rng);
  // A freshly built scenario lists alive ids in increasing order, exactly
  // the brute-force scan.
  EXPECT_EQ(failures.alive_ids(), brute_force_alive_ids(failures));
  EXPECT_EQ(failures.alive_ids().size(), failures.alive_count());
}

TEST(AliveIndex, KillReviveKeepsIndexConsistentWithMask) {
  const IdSpace space(7);
  math::Rng rng(32);
  FailureScenario failures(space, 0.3, rng);
  math::Rng churn_rng(33);
  for (int step = 0; step < 500; ++step) {
    const NodeId id = churn_rng.uniform_below(space.size());
    if (churn_rng.bernoulli(0.5)) {
      failures.kill(id);
    } else {
      failures.revive(id);
    }
    ASSERT_EQ(failures.alive_ids().size(), failures.alive_count());
  }
  // Same *set* of ids as the brute-force scan (order is shuffled by the
  // swap-remove maintenance).
  std::vector<std::uint32_t> index = failures.alive_ids();
  std::sort(index.begin(), index.end());
  EXPECT_EQ(index, brute_force_alive_ids(failures));
}

TEST(AliveIndex, SampleAliveDrawsFromTheIndex) {
  const IdSpace space(8);
  math::Rng rng(34);
  const FailureScenario failures(space, 0.5, rng);
  math::Rng sample_rng(35);
  for (int i = 0; i < 1000; ++i) {
    // Predict the O(1) draw with a cloned generator, then check it.
    math::Rng predictor = sample_rng;
    const NodeId expected =
        failures.alive_ids()[predictor.uniform_below(failures.alive_count())];
    const NodeId actual = failures.sample_alive(sample_rng);
    ASSERT_EQ(actual, expected);
    ASSERT_TRUE(failures.alive(actual));
  }
}

TEST(AliveIndex, SampleAliveIsRoughlyUniformAfterChurn) {
  const IdSpace space(4);
  FailureScenario failures = FailureScenario::all_alive(space);
  failures.kill(3);
  failures.kill(9);
  failures.revive(9);  // exercise the append path
  std::vector<int> histogram(16, 0);
  math::Rng rng(36);
  const int draws = 30000;
  for (int i = 0; i < draws; ++i) {
    ++histogram[failures.sample_alive(rng)];
  }
  EXPECT_EQ(histogram[3], 0);
  for (NodeId id = 0; id < 16; ++id) {
    if (id == 3) {
      continue;
    }
    EXPECT_NEAR(histogram[id], draws / 15, 350) << "id=" << id;
  }
}

TEST(LinksInto, MatchesLinksForEveryOverlay) {
  const IdSpace space(6);
  math::Rng rng(41);
  std::vector<std::unique_ptr<Overlay>> overlays;
  overlays.push_back(std::make_unique<TreeOverlay>(space, rng));
  overlays.push_back(std::make_unique<XorOverlay>(space, rng));
  overlays.push_back(std::make_unique<HypercubeOverlay>(space));
  overlays.push_back(std::make_unique<ChordOverlay>(space, rng));
  overlays.push_back(std::make_unique<ChordOverlay>(
      space, rng, ChordFingers::kRandomized, 2));
  overlays.push_back(std::make_unique<SymphonyOverlay>(space, 2, 3, rng));
  std::vector<NodeId> scratch;  // reused across nodes and overlays
  for (const auto& overlay : overlays) {
    for (NodeId v = 0; v < space.size(); ++v) {
      overlay->links_into(v, scratch);
      EXPECT_EQ(scratch, overlay->links(v))
          << overlay->name() << " v=" << v;
    }
  }
}

TEST(FlatKernels, MatchRouterOnEveryPair) {
  // The static parallel estimator routes only through the flat kernels;
  // for the rng-free rules each must reproduce the virtual next_hop path
  // route for route.  (The hypercube kernel samples its uniform choice
  // along a different path; ParallelMonteCarlo.AgreesWithSequentialEstimator
  // compares it statistically.)
  using Step = NodeId (*)(const flat::FlatCtx&, NodeId, NodeId);
  struct Kernel {
    std::string name;
    std::unique_ptr<Overlay> overlay;
    Step step;
  };
  const IdSpace space(7);
  math::Rng build_rng(61);
  std::vector<Kernel> kernels;
  kernels.push_back({"tree", std::make_unique<TreeOverlay>(space, build_rng),
                     &flat::step_tree});
  kernels.push_back({"xor", std::make_unique<XorOverlay>(space, build_rng),
                     &flat::step_xor});
  kernels.push_back({"chord", std::make_unique<ChordOverlay>(space, build_rng),
                     &flat::step_chord_deterministic});
  kernels.push_back({"chord-randomized",
                     std::make_unique<ChordOverlay>(
                         space, build_rng, ChordFingers::kRandomized),
                     &flat::step_chord_randomized});
  kernels.push_back({"chord-successors",
                     std::make_unique<ChordOverlay>(
                         space, build_rng, ChordFingers::kDeterministic, 3),
                     &flat::step_chord_deterministic});
  kernels.push_back({"symphony",
                     std::make_unique<SymphonyOverlay>(space, 2, 2, build_rng),
                     &flat::step_symphony});
  for (const double q : {0.0, 0.2, 0.35}) {
    math::Rng fail_rng(62);
    const FailureScenario failures(space, q, fail_rng);
    for (const Kernel& kernel : kernels) {
      const std::string what = kernel.name + " q=" + std::to_string(q);
      const Router router(*kernel.overlay, failures);
      const flat::FlatCtx ctx = flat::make_ctx(*kernel.overlay, failures, 0);
      math::Rng unused(63);  // none of these rules draws
      for (NodeId s = 0; s < space.size(); ++s) {
        for (NodeId t = 0; t < space.size(); ++t) {
          if (s == t || !failures.alive(s) || !failures.alive(t)) {
            continue;
          }
          const RouteResult want = router.route(s, t, unused);
          const RouteResult got = flat::route_stepped(ctx, s, t, kernel.step);
          ASSERT_TRUE(got.status == want.status && got.hops == want.hops &&
                      got.last_node == want.last_node)
              << what << " s=" << s << " t=" << t << ": kernel "
              << to_string(got.status) << " after " << got.hops
              << " hops at " << got.last_node << ", router "
              << to_string(want.status) << " after " << want.hops
              << " hops at " << want.last_node;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dht::sim
