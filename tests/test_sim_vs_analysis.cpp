// The paper's Fig. 6 experiment as a test: the RCM analytical predictions
// must track the measured static-resilience of the simulated overlays.
//
// The analytical quantity compared is the conditional success fraction
// E[S] / ((1-q)(N-1)) -- exactly what pair-sampling among alive nodes
// measures.  Tolerances reflect each geometry's Exactness:
//   * tree / hypercube: the model is exact for the basic protocol;
//     deviations are sampling plus topology/failure-instance noise, so the
//     tests average over several independent instances.
//   * xor: Eq. 6 idealizes fallback progress as durable, while the real
//     protocol re-randomizes low-order bits on every fallback hop.  The
//     measured bias is stable across d (see EXPERIMENTS.md): the model is
//     optimistic by <= 0.09 routability in the mid-q knee and pessimistic
//     by <= 0.04 around q = 0.5; the test pins that band.
//   * ring: with classic deterministic fingers (Gummadi's simulated
//     system) the model is a true lower bound on routability, tight for
//     q <= 0.2 (paper Fig. 6(b)).
//   * symphony: Eq. 7 ignores overshoot-blocking (successor dead, alive
//     shortcuts overshoot), so it upper-bounds the unidirectional greedy
//     protocol; the paper never validates Symphony against simulation.
#include <memory>

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht {
namespace {

constexpr int kBits = 12;  // N = 4096
constexpr std::uint64_t kPairs = 20000;
constexpr int kInstances = 4;  // independent topology+failure instances

/// Mean simulated routability over independent (table, failure) instances.
template <typename MakeOverlay>
double mean_simulated(const MakeOverlay& make_overlay, double q,
                      std::uint64_t seed) {
  double total = 0.0;
  for (int instance = 0; instance < kInstances; ++instance) {
    math::Rng build_rng(seed + 17 * static_cast<std::uint64_t>(instance));
    const auto overlay = make_overlay(build_rng);
    math::Rng fail_rng(seed + 1000 + static_cast<std::uint64_t>(instance));
    const sim::FailureScenario failures(overlay->space(), q, fail_rng);
    math::Rng route_rng(seed + 2000 + static_cast<std::uint64_t>(instance));
    const auto estimate = sim::estimate_routability_parallel(
        *overlay, failures, {.pairs = kPairs}, route_rng);
    EXPECT_EQ(estimate.hop_limit_hits(), 0u);
    total += estimate.routability();
  }
  return total / kInstances;
}

double analytical_conditional(core::GeometryKind kind, double q) {
  const auto geometry = core::make_geometry(kind);
  return core::evaluate_routability(*geometry, kBits, q).conditional_success;
}

TEST(SimVsAnalysis, TreeMatchesExactModel) {
  const sim::IdSpace space(kBits);
  const auto make = [&](math::Rng& rng) {
    return std::make_unique<sim::TreeOverlay>(space, rng);
  };
  for (double q : {0.05, 0.1, 0.2, 0.3, 0.5}) {
    const double simulated = mean_simulated(make, q, 1000);
    const double analytical =
        analytical_conditional(core::GeometryKind::kTree, q);
    EXPECT_NEAR(simulated, analytical, 0.02) << "q=" << q;
  }
}

TEST(SimVsAnalysis, HypercubeMatchesExactModel) {
  const sim::IdSpace space(kBits);
  const auto make = [&](math::Rng&) {
    return std::make_unique<sim::HypercubeOverlay>(space);
  };
  for (double q : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7}) {
    const double simulated = mean_simulated(make, q, 2000);
    const double analytical =
        analytical_conditional(core::GeometryKind::kHypercube, q);
    EXPECT_NEAR(simulated, analytical, 0.015) << "q=" << q;
  }
}

TEST(SimVsAnalysis, XorTracksModelWithinDocumentedBias) {
  const sim::IdSpace space(kBits);
  const auto make = [&](math::Rng& rng) {
    return std::make_unique<sim::XorOverlay>(space, rng);
  };
  for (double q : {0.05, 0.1, 0.2, 0.3, 0.5}) {
    const double simulated = mean_simulated(make, q, 3000);
    const double analytical =
        analytical_conditional(core::GeometryKind::kXor, q);
    EXPECT_GE(simulated, analytical - 0.10) << "q=" << q;
    EXPECT_LE(simulated, analytical + 0.05) << "q=" << q;
  }
}

TEST(SimVsAnalysis, XorStrictlyBetweenTreeAndHypercube) {
  // The qualitative Fig. 6(a) structure at every q: the fallback-equipped
  // XOR protocol beats the tree and loses to the hypercube.
  const sim::IdSpace space(kBits);
  const auto make_tree = [&](math::Rng& rng) {
    return std::make_unique<sim::TreeOverlay>(space, rng);
  };
  const auto make_xor = [&](math::Rng& rng) {
    return std::make_unique<sim::XorOverlay>(space, rng);
  };
  const auto make_cube = [&](math::Rng&) {
    return std::make_unique<sim::HypercubeOverlay>(space);
  };
  for (double q : {0.1, 0.3, 0.5}) {
    const double tree = mean_simulated(make_tree, q, 4000);
    const double xr = mean_simulated(make_xor, q, 4000);
    const double cube = mean_simulated(make_cube, q, 4000);
    EXPECT_GT(xr, tree) << "q=" << q;
    EXPECT_GT(cube, xr) << "q=" << q;
  }
}

TEST(SimVsAnalysis, RingAnalysisIsALowerBound) {
  // Fig. 6(b): with classic (deterministic-finger) Chord the analytical
  // failed-paths curve upper-bounds the simulation; the curves are close
  // below q = 0.2 and diverge at larger q because real suboptimal hops
  // preserve progress.
  const sim::IdSpace space(kBits);
  const auto make = [&](math::Rng& rng) {
    return std::make_unique<sim::ChordOverlay>(space, rng);
  };
  for (double q : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7}) {
    const double simulated = mean_simulated(make, q, 5000);
    const double analytical =
        analytical_conditional(core::GeometryKind::kRing, q);
    EXPECT_GE(simulated + 0.005, analytical) << "q=" << q;
    // Tightness in the "region of practical interest" (paper Fig. 6(b)):
    // near-exact at q <= 0.1, within a few percent at q = 0.2, after which
    // preserved suboptimal-hop progress widens the gap.
    if (q <= 0.1) {
      EXPECT_NEAR(simulated, analytical, 0.02) << "q=" << q;
    } else if (q <= 0.2) {
      EXPECT_NEAR(simulated, analytical, 0.05) << "q=" << q;
    }
  }
}

TEST(SimVsAnalysis, RandomizedFingersBreakTheBound) {
  // The ablation that motivated the deterministic default: with randomized
  // fingers the top in-phase finger sometimes overshoots, leaving m-1
  // usable fingers where the chain assumes m, and the measured routability
  // can fall below the "lower bound".  Document rather than hide it.
  const sim::IdSpace space(kBits);
  const auto make = [&](math::Rng& rng) {
    return std::make_unique<sim::ChordOverlay>(
        space, rng, sim::ChordFingers::kRandomized);
  };
  const double q = 0.1;
  const double simulated = mean_simulated(make, q, 6000);
  const double analytical =
      analytical_conditional(core::GeometryKind::kRing, q);
  EXPECT_LT(simulated, analytical) << "randomized fingers should measure "
                                      "below the deterministic-chain bound";
  EXPECT_NEAR(simulated, analytical, 0.05);  // still the same ballpark
}

TEST(SimVsAnalysis, SymphonyModelIsOptimisticUpperBound) {
  const sim::IdSpace space(kBits);
  const auto make = [&](math::Rng& rng) {
    return std::make_unique<sim::SymphonyOverlay>(space, 1, 1, rng);
  };
  const auto geometry = core::make_geometry(core::GeometryKind::kSymphony,
                                            core::SymphonyParams{1, 1});
  double previous_sim = 1.0;
  for (double q : {0.05, 0.1, 0.2, 0.3}) {
    const double simulated = mean_simulated(make, q, 7000);
    const double analytical =
        core::evaluate_routability(*geometry, kBits, q).conditional_success;
    // Monotone degradation; the model never under-predicts the protocol.
    EXPECT_LT(simulated, previous_sim) << "q=" << q;
    EXPECT_LE(simulated, analytical + 0.01) << "q=" << q;
    previous_sim = simulated;
  }
}

TEST(SimVsAnalysis, MoreSymphonyLinksRaiseMeasuredRoutability) {
  const sim::IdSpace space(kBits);
  const double q = 0.2;
  const auto measure = [&](int kn, int ks) {
    const auto make = [&](math::Rng& rng) {
      return std::make_unique<sim::SymphonyOverlay>(space, kn, ks, rng);
    };
    return mean_simulated(make, q, 8000);
  };
  const double sparse = measure(1, 1);
  const double medium = measure(2, 2);
  const double dense = measure(4, 4);
  EXPECT_GT(medium, sparse + 0.05);
  EXPECT_GT(dense, medium);
}

TEST(SimVsAnalysis, OrderingAcrossGeometriesAtModerateFailure) {
  // Fig. 6/7 structure at q = 0.3.  Among the *measured* systems the two
  // any-order geometries (hypercube, classic ring) are the robust pair --
  // simulated ring can even beat the hypercube because its suboptimal hops
  // preserve progress -- followed by xor, then tree, with symphony worst.
  const sim::IdSpace space(kBits);
  math::Rng build_rng(106);
  const sim::TreeOverlay tree(space, build_rng);
  const sim::XorOverlay xr(space, build_rng);
  const sim::HypercubeOverlay cube(space);
  const sim::ChordOverlay ring(space, build_rng);
  const sim::SymphonyOverlay symphony(space, 1, 1, build_rng);

  const double q = 0.3;
  const auto failed = [&](const sim::Overlay& overlay) {
    math::Rng fail_rng(9000);
    const sim::FailureScenario failures(space, q, fail_rng);
    math::Rng route_rng(9001);
    return 1.0 - sim::estimate_routability_parallel(
                     overlay, failures, {.pairs = 2 * kPairs}, route_rng)
                     .routability();
  };
  const double f_cube = failed(cube);
  const double f_ring = failed(ring);
  const double f_xor = failed(xr);
  const double f_tree = failed(tree);
  const double f_symphony = failed(symphony);
  EXPECT_LT(f_cube, f_xor);
  EXPECT_LT(f_ring, f_xor);
  EXPECT_LT(f_xor, f_tree);
  EXPECT_LT(f_tree, f_symphony);
}

TEST(SimVsAnalysis, XorBeatsTreeOnIdenticalTables) {
  // The fallback ablation (paper Section 3.3): same tables, same failures,
  // the XOR rule must strictly dominate the tree rule.
  const sim::IdSpace space(kBits);
  math::Rng build_rng(107);
  auto table = std::make_shared<const sim::PrefixTable>(space, build_rng);
  const sim::TreeOverlay tree(space, table);
  const sim::XorOverlay xr(space, table);
  for (double q : {0.1, 0.3, 0.5}) {
    math::Rng fail_rng(9100);
    const sim::FailureScenario failures(space, q, fail_rng);
    math::Rng rng_a(9101);
    math::Rng rng_b(9101);
    const double r_tree =
        sim::estimate_routability_parallel(tree, failures, {.pairs = kPairs},
                                           rng_a)
            .routability();
    const double r_xor =
        sim::estimate_routability_parallel(xr, failures, {.pairs = kPairs},
                                           rng_b)
            .routability();
    EXPECT_GT(r_xor, r_tree) << "q=" << q;
  }
}

}  // namespace
}  // namespace dht
