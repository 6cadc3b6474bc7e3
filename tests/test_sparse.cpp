// Non-fully-populated identifier spaces (the paper's Section 6 future
// work): structural invariants, dense-limit equivalence, and the density
// reduction (sparse systems behave like the dense model at d' = log2 N).
#include <set>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "core/routability.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/xor_overlay.hpp"
#include "sparse/density_analysis.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_space.hpp"
#include "sparse/sparse_symphony.hpp"

namespace dht::sparse {
namespace {

TEST(SparseIdSpace, IdsAreDistinctSortedAndInRange) {
  math::Rng rng(1);
  const SparseIdSpace space(20, 2000, rng);
  EXPECT_EQ(space.node_count(), 2000u);
  EXPECT_EQ(space.bits(), 20);
  EXPECT_NEAR(space.density(), 2000.0 / (1 << 20), 1e-12);
  std::set<sim::NodeId> seen;
  sim::NodeId previous = 0;
  for (NodeIndex i = 0; i < space.node_count(); ++i) {
    const sim::NodeId id = space.id_of(i);
    EXPECT_LT(id, space.key_space_size());
    if (i > 0) {
      EXPECT_GT(id, previous);  // strictly ascending => distinct
    }
    previous = id;
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 2000u);
}

TEST(SparseIdSpace, FullyPopulatedDegeneratesToIdentity) {
  math::Rng rng(2);
  const SparseIdSpace space(8, 256, rng);
  for (NodeIndex i = 0; i < 256; ++i) {
    EXPECT_EQ(space.id_of(i), i);
  }
}

TEST(SparseIdSpace, SuccessorOfKey) {
  math::Rng rng(3);
  const SparseIdSpace space(16, 100, rng);
  // The successor of a node's own id is that node.
  for (NodeIndex i = 0; i < space.node_count(); ++i) {
    EXPECT_EQ(space.successor_of_key(space.id_of(i)), i);
  }
  // A key past the largest id wraps to node 0.
  const sim::NodeId largest = space.id_of(
      static_cast<NodeIndex>(space.node_count() - 1));
  if (largest + 1 < space.key_space_size()) {
    EXPECT_EQ(space.successor_of_key(largest + 1), 0u);
  }
}

TEST(SparseIdSpace, RingStepWraps) {
  math::Rng rng(5);
  const SparseIdSpace space(12, 100, rng);
  EXPECT_EQ(space.ring_step(99, 1), 0u);
  EXPECT_EQ(space.ring_step(50, 100), 50u);
}

TEST(SparseIdSpace, RejectsBadArguments) {
  math::Rng rng(6);
  EXPECT_THROW(SparseIdSpace(0, 2, rng), PreconditionError);
  EXPECT_THROW(SparseIdSpace(64, 2, rng), PreconditionError);
  EXPECT_THROW(SparseIdSpace(8, 1, rng), PreconditionError);
  EXPECT_THROW(SparseIdSpace(8, 257, rng), PreconditionError);
}

TEST(SparseFailure, TracksAliveCount) {
  math::Rng rng(7);
  const SparseIdSpace space(14, 4096, rng);
  const SparseFailure failures(space, 0.3, rng);
  EXPECT_NEAR(static_cast<double>(failures.alive_count()) / 4096.0, 0.7,
              0.05);
  std::uint64_t count = 0;
  for (NodeIndex i = 0; i < 4096; ++i) {
    count += failures.alive(i) ? 1 : 0;
  }
  EXPECT_EQ(count, failures.alive_count());
}

TEST(SparseChord, DenseLimitFingersMatchClassicChord) {
  // Fully populated: successor(id + 2^{d-i}) == id + 2^{d-i} exactly.
  math::Rng rng(8);
  const SparseIdSpace space(8, 256, rng);
  const SparseChordOverlay overlay(space);
  for (NodeIndex v = 0; v < 256; v += 7) {
    for (int i = 1; i <= 8; ++i) {
      EXPECT_EQ(space.id_of(overlay.finger(v, i)),
                (v + (1u << (8 - i))) % 256);
    }
  }
}

TEST(SparseChord, FingersAreSuccessorsOfDyadicPoints) {
  math::Rng rng(9);
  const SparseIdSpace space(20, 1024, rng);
  const SparseChordOverlay overlay(space);
  for (NodeIndex v = 0; v < space.node_count(); v += 101) {
    const sim::NodeId base = space.id_of(v);
    for (int i = 1; i <= 20; ++i) {
      const sim::NodeId key =
          (base + (std::uint64_t{1} << (20 - i))) & (space.key_space_size() - 1);
      EXPECT_EQ(overlay.finger(v, i), space.successor_of_key(key));
    }
  }
}

TEST(SparseChord, FailureFreeRoutesArrive) {
  math::Rng rng(10);
  const SparseIdSpace space(20, 1024, rng);
  const SparseChordOverlay overlay(space);
  const SparseFailure none(space, 0.0, rng);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeIndex>(rng.uniform_below(1024));
    auto t = static_cast<NodeIndex>(rng.uniform_below(1024));
    if (s == t) {
      continue;
    }
    const auto hops = route(overlay, none, s, t);
    ASSERT_TRUE(hops.has_value());
    // O(log N) routing: generously bounded by the key-space bits.
    EXPECT_LE(*hops, 20);
  }
}

TEST(SparseKademlia, BucketsRespectXorRanges) {
  math::Rng rng(11);
  const SparseIdSpace space(16, 512, rng);
  const SparseKademliaOverlay overlay(space, rng);
  for (NodeIndex v = 0; v < space.node_count(); v += 37) {
    const sim::NodeId base = space.id_of(v);
    for (int i = 1; i <= 16; ++i) {
      const auto entry = overlay.contact(v, i);
      if (!entry.has_value()) {
        continue;
      }
      const std::uint64_t distance =
          sim::xor_distance(base, space.id_of(*entry));
      EXPECT_GE(distance, std::uint64_t{1} << (16 - i));
      EXPECT_LT(distance, std::uint64_t{2} << (16 - i));
    }
  }
}

TEST(SparseKademlia, TopBucketsAreNeverEmptyAtModerateDensity) {
  // Bucket 1 covers half the key space; with 512 nodes it is essentially
  // never empty.  Deep buckets (singleton ranges) are mostly empty.
  math::Rng rng(12);
  const SparseIdSpace space(16, 512, rng);
  const SparseKademliaOverlay overlay(space, rng);
  int empty_top = 0;
  int empty_bottom = 0;
  for (NodeIndex v = 0; v < space.node_count(); ++v) {
    empty_top += overlay.contact(v, 1).has_value() ? 0 : 1;
    empty_bottom += overlay.contact(v, 16).has_value() ? 0 : 1;
  }
  EXPECT_EQ(empty_top, 0);
  EXPECT_GT(empty_bottom, 400);  // density 2^-7: most flip-ids unoccupied
}

TEST(SparseKademlia, FailureFreeRoutesArrive) {
  math::Rng rng(13);
  const SparseIdSpace space(20, 1024, rng);
  const SparseKademliaOverlay overlay(space, rng);
  const SparseFailure none(space, 0.0, rng);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeIndex>(rng.uniform_below(1024));
    auto t = static_cast<NodeIndex>(rng.uniform_below(1024));
    if (s == t) {
      continue;
    }
    const auto hops = route(overlay, none, s, t);
    ASSERT_TRUE(hops.has_value());
    EXPECT_LE(*hops, 20);
  }
}

TEST(DensityAnalysis, EffectiveBits) {
  EXPECT_EQ(effective_bits(2), 1);
  EXPECT_EQ(effective_bits(1024), 10);
  EXPECT_EQ(effective_bits(1000), 10);   // rounds
  EXPECT_EQ(effective_bits(1u << 20), 20);
  EXPECT_THROW(effective_bits(1), PreconditionError);
}

TEST(DensityAnalysis, SparseChordTracksDenseModelAtOccupancyScale) {
  // The density reduction: routability of 2^10 nodes scattered in a large
  // key space tracks the dense ring model at d' = 10, independent of the
  // key-space size.  The reduction is approximate, not a bound: sparse
  // Chord fails slightly *more* than the dense model at small q because
  // deep fingers collapse onto the same few successors (correlated
  // failures), so the assertion is a tolerance band, not an inequality.
  const auto ring = core::make_geometry(core::GeometryKind::kRing);
  for (double q : {0.1, 0.2}) {
    const double predicted =
        predict_sparse_routability(*ring, 1024, q).conditional_success;
    for (int bits : {14, 20}) {
      math::Rng rng(100 + bits);
      const SparseIdSpace space(bits, 1024, rng);
      const SparseChordOverlay overlay(space);
      const SparseFailure failures(space, q, rng);
      const auto estimate =
          estimate_routability_parallel(overlay, failures, {.pairs = 20000},
                                        rng);
      EXPECT_NEAR(estimate.routability(), predicted, 0.08)
          << "bits=" << bits << " q=" << q;
    }
  }
}

TEST(DensityAnalysis, SparseKademliaIndependentOfKeySpaceSize) {
  // Same N, very different key-space sizes: measured routability must
  // agree with itself across densities (the density reduction).
  const double q = 0.2;
  double reference = -1.0;
  for (int bits : {12, 18, 24}) {
    math::Rng rng(200 + bits);
    const SparseIdSpace space(bits, 1024, rng);
    const SparseKademliaOverlay overlay(space, rng);
    const SparseFailure failures(space, q, rng);
    const auto estimate = estimate_routability_parallel(
        overlay, failures, {.pairs = 20000}, rng);
    if (reference < 0.0) {
      reference = estimate.routability();
    } else {
      EXPECT_NEAR(estimate.routability(), reference, 0.05)
          << "bits=" << bits;
    }
  }
}

TEST(SparseChord, FullyPopulatedNextHopMatchesDenseOracle) {
  // A fully populated sparse space degenerates to the identity mapping, so
  // sparse Chord must make exactly the dense deterministic-finger overlay's
  // forwarding decision for every ordered pair -- both rules pick the
  // farthest alive non-overshooting finger.
  const int d = 8;
  math::Rng sparse_rng(40);
  const SparseIdSpace sparse_space(d, 256, sparse_rng);
  const SparseChordOverlay sparse_overlay(sparse_space);
  const SparseFailure sparse_none(sparse_space, 0.0, sparse_rng);

  const sim::IdSpace dense_space(d);
  math::Rng dense_rng(41);
  const sim::ChordOverlay dense_overlay(dense_space, dense_rng);
  const sim::FailureScenario dense_none =
      sim::FailureScenario::all_alive(dense_space);

  math::Rng hop_rng(42);  // unused by chord forwarding
  for (NodeIndex v = 0; v < 256; ++v) {
    for (NodeIndex t = 0; t < 256; t += 5) {
      if (v == t) {
        continue;
      }
      const auto sparse_next = sparse_overlay.next_hop(v, t, sparse_none);
      const auto dense_next =
          dense_overlay.next_hop(v, t, dense_none, hop_rng);
      ASSERT_TRUE(sparse_next.has_value());
      ASSERT_TRUE(dense_next.has_value());
      EXPECT_EQ(sparse_space.id_of(*sparse_next), *dense_next)
          << "v=" << v << " t=" << t;
    }
  }
}

TEST(SparseChord, FullyPopulatedLinkSetsMatchDenseOracle) {
  // Same degenerate setting, structural form: the finger set of every node
  // equals the dense overlay's link set.
  const int d = 8;
  math::Rng sparse_rng(43);
  const SparseIdSpace sparse_space(d, 256, sparse_rng);
  const SparseChordOverlay sparse_overlay(sparse_space);
  const sim::IdSpace dense_space(d);
  math::Rng dense_rng(44);
  const sim::ChordOverlay dense_overlay(dense_space, dense_rng);
  for (NodeIndex v = 0; v < 256; ++v) {
    std::set<sim::NodeId> sparse_links;
    for (int i = 1; i <= d; ++i) {
      sparse_links.insert(sparse_space.id_of(sparse_overlay.finger(v, i)));
    }
    const auto dense = dense_overlay.links(v);
    const std::set<sim::NodeId> dense_links(dense.begin(), dense.end());
    EXPECT_EQ(sparse_links, dense_links) << "v=" << v;
  }
}

TEST(SparseKademlia, FullyPopulatedContactsSatisfyDenseClassConstraint) {
  // Fully populated, every bucket has candidates, so no bucket may be
  // empty, and each contact must satisfy the dense PrefixTable class
  // constraint: shares the first i-1 bits, differs at bit i.
  const int d = 8;
  math::Rng rng(45);
  const SparseIdSpace space(d, 256, rng);
  const SparseKademliaOverlay overlay(space, rng);
  for (NodeIndex v = 0; v < 256; ++v) {
    for (int i = 1; i <= d; ++i) {
      const auto entry = overlay.contact(v, i);
      ASSERT_TRUE(entry.has_value()) << "v=" << v << " bucket=" << i;
      const sim::NodeId id = space.id_of(*entry);
      EXPECT_TRUE(sim::shares_prefix(v, id, i - 1, d));
      EXPECT_NE(sim::bit_at_level(v, i, d), sim::bit_at_level(id, i, d));
    }
  }
}

TEST(SparseKademlia, FullyPopulatedRoutabilityMatchesDenseXorOracle) {
  // Statistical oracle: at full population sparse Kademlia and the dense
  // XOR overlay draw their tables from the same distribution (one uniform
  // class member per level) and forward with the same greedy-fallback rule,
  // so routability under the same q must agree to sampling + scenario
  // accuracy.
  const int d = 10;
  const double q = 0.3;
  math::Rng sparse_rng(46);
  const SparseIdSpace sparse_space(d, 1024, sparse_rng);
  const SparseKademliaOverlay sparse_overlay(sparse_space, sparse_rng);
  const SparseFailure sparse_failures(sparse_space, q, sparse_rng);
  math::Rng sparse_route_rng(47);
  const auto sparse_estimate = estimate_routability_parallel(
      sparse_overlay, sparse_failures, {.pairs = 20000}, sparse_route_rng);

  const sim::IdSpace dense_space(d);
  math::Rng dense_rng(48);
  const sim::XorOverlay dense_overlay(dense_space, dense_rng);
  math::Rng dense_fail_rng(49);
  const sim::FailureScenario dense_failures(dense_space, q, dense_fail_rng);
  const math::Rng dense_route_rng(50);
  const auto dense_estimate = sim::estimate_routability_parallel(
      dense_overlay, dense_failures, {.pairs = 20000}, dense_route_rng);

  EXPECT_NEAR(sparse_estimate.routability(), dense_estimate.routability(),
              0.04);
  EXPECT_NEAR(sparse_estimate.mean_hops(), dense_estimate.hops.mean(), 0.3);
}

TEST(SparseSymphony, FullyPopulatedRoutabilityMatchesDenseSymphonyOracle) {
  // Same statistical oracle for Symphony: harmonic shortcut keys over a
  // fully populated ring are the dense overlay's construction.
  const int d = 9;
  const double q = 0.2;
  math::Rng sparse_rng(51);
  const SparseIdSpace sparse_space(d, 512, sparse_rng);
  const SparseSymphonyOverlay sparse_overlay(sparse_space, 1, 1, sparse_rng);
  const SparseFailure sparse_failures(sparse_space, q, sparse_rng);
  math::Rng sparse_route_rng(52);
  const auto sparse_estimate = estimate_routability_parallel(
      sparse_overlay, sparse_failures, {.pairs = 20000}, sparse_route_rng);

  const sim::IdSpace dense_space(d);
  math::Rng dense_rng(53);
  const sim::SymphonyOverlay dense_overlay(dense_space, 1, 1, dense_rng);
  math::Rng dense_fail_rng(54);
  const sim::FailureScenario dense_failures(dense_space, q, dense_fail_rng);
  const math::Rng dense_route_rng(55);
  const auto dense_estimate = sim::estimate_routability_parallel(
      dense_overlay, dense_failures, {.pairs = 20000}, dense_route_rng);

  EXPECT_NEAR(sparse_estimate.routability(), dense_estimate.routability(),
              0.06);
}

TEST(DensityAnalysis, PredictionBoundsAndMonotonicity) {
  // Sanity bounds on the density-reduction prediction: a probability,
  // non-increasing in q, exactly the dense model at power-of-two N, and
  // independent of everything but N and q.
  for (const auto kind :
       {core::GeometryKind::kRing, core::GeometryKind::kXor}) {
    const auto geometry = core::make_geometry(kind);
    double previous = 1.1;
    for (const double q : {0.05, 0.2, 0.4, 0.6, 0.8}) {
      const auto point = predict_sparse_routability(*geometry, 1024, q);
      EXPECT_GE(point.routability, 0.0);
      EXPECT_LE(point.routability, 1.0);
      EXPECT_LE(point.routability, previous + 1e-12);
      EXPECT_NEAR(point.routability,
                  core::evaluate_routability(*geometry, 10, q).routability,
                  1e-15);
      previous = point.routability;
    }
  }
}

TEST(DensityAnalysis, EffectiveBitsRoundsToNearestPowerOfTwo) {
  EXPECT_EQ(effective_bits(768), 10);    // log2 = 9.58 -> 10
  EXPECT_EQ(effective_bits(1536), 11);   // log2 = 10.58 -> 11
  EXPECT_EQ(effective_bits(3u << 20), 22);  // log2 = 21.58 -> 22
}

TEST(SparseSymphony, ShortcutsPointToKeyOwners) {
  math::Rng rng(31);
  const SparseIdSpace space(18, 512, rng);
  const SparseSymphonyOverlay overlay(space, 1, 2, rng);
  EXPECT_EQ(overlay.near_neighbors(), 1);
  EXPECT_EQ(overlay.shortcuts(), 2);
  for (NodeIndex v = 0; v < space.node_count(); v += 19) {
    for (int j = 0; j < 2; ++j) {
      const NodeIndex link = overlay.shortcut(v, j);
      EXPECT_LT(link, space.node_count());
      EXPECT_NE(link, v);
    }
  }
}

TEST(SparseSymphony, FailureFreeRoutesArrive) {
  math::Rng rng(32);
  const SparseIdSpace space(18, 512, rng);
  const SparseSymphonyOverlay overlay(space, 1, 1, rng);
  const SparseFailure none(space, 0.0, rng);
  for (int i = 0; i < 300; ++i) {
    const auto s = static_cast<NodeIndex>(rng.uniform_below(512));
    auto t = static_cast<NodeIndex>(rng.uniform_below(512));
    if (s == t) {
      continue;
    }
    const auto hops = route(overlay, none, s, t);
    ASSERT_TRUE(hops.has_value());
    // O(log^2 N) expected; bound loosely by N.
    EXPECT_LT(*hops, 512);
  }
}

TEST(SparseSymphony, DegradesWithFailureAndRecoversWithLinks) {
  math::Rng rng(33);
  const SparseIdSpace space(18, 1024, rng);
  const double q = 0.2;
  const auto measure = [&](int kn, int ks, std::uint64_t seed) {
    math::Rng build_rng(seed);
    const SparseSymphonyOverlay overlay(space, kn, ks, build_rng);
    math::Rng fail_rng(seed + 1);
    const SparseFailure failures(space, q, fail_rng);
    math::Rng route_rng(seed + 2);
    return estimate_routability_parallel(overlay, failures, {.pairs = 8000},
                                         route_rng)
        .routability();
  };
  const double sparse_links = measure(1, 1, 100);
  const double dense_links = measure(3, 3, 200);
  EXPECT_LT(sparse_links, 0.9);  // minimal provisioning suffers at q = 0.2
  EXPECT_GT(dense_links, sparse_links + 0.1);
}

TEST(SparseRoute, DropsWhenIsolated) {
  // Kill everything except source and target: with all contacts dead the
  // route must drop, not loop.
  math::Rng rng(14);
  const SparseIdSpace space(14, 256, rng);
  const SparseKademliaOverlay overlay(space, rng);
  SparseFailure failures(space, 0.0, rng);
  // No kill API on SparseFailure: emulate by a q = 1-epsilon scenario
  // instead -- route between two alive nodes across a dead sea.
  math::Rng harsh_rng(15);
  const SparseFailure harsh(space, 0.98, harsh_rng);
  if (harsh.alive_count() >= 2) {
    const NodeIndex s = harsh.sample_alive(harsh_rng);
    NodeIndex t = harsh.sample_alive(harsh_rng);
    if (t != s) {
      const auto hops = route(overlay, harsh, s, t);
      // Either it found a miracle path or it dropped; both are legal --
      // the point is that it returns.
      SUCCEED();
      (void)hops;
    }
  }
}

}  // namespace
}  // namespace dht::sparse
