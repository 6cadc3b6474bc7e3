// The sequential-neighbor extension of the ring geometry (paper Sections
// 1-2: "the designer can always add enough sequential neighbors to achieve
// an acceptable routability").
//
// Key structural fact (discovered by the simulation, encoded in the
// model): in a fully populated space, successor offsets that are powers of
// two duplicate fingers, so only s_eff = s - bit_width(s) of the s
// successor links add resilience.  s = 2 adds nothing; s = 4 adds one
// node; s = 8 adds four.
#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/ring_geometry.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"

namespace dht {
namespace {

TEST(RingSuccessors, ZeroReducesToPaperModel) {
  const core::RingGeometry base;
  const core::RingGeometry with_zero(0);
  for (double q : {0.1, 0.4, 0.8}) {
    for (int m = 1; m <= 12; ++m) {
      EXPECT_EQ(with_zero.phase_failure(m, q, 12),
                base.phase_failure(m, q, 12));
    }
  }
  EXPECT_EQ(base.exactness(), core::Exactness::kLowerBound);
  EXPECT_EQ(core::RingGeometry(4).exactness(), core::Exactness::kApproximate);
}

TEST(RingSuccessors, EffectiveExtraLinksDiscountPowersOfTwo) {
  EXPECT_EQ(core::RingGeometry(0).effective_extra_links(), 0);
  EXPECT_EQ(core::RingGeometry(1).effective_extra_links(), 0);  // +1 = finger
  EXPECT_EQ(core::RingGeometry(2).effective_extra_links(), 0);  // +2 = finger
  EXPECT_EQ(core::RingGeometry(3).effective_extra_links(), 1);  // +3 new
  EXPECT_EQ(core::RingGeometry(4).effective_extra_links(), 1);  // +4 = finger
  EXPECT_EQ(core::RingGeometry(8).effective_extra_links(), 4);  // +3,5,6,7
}

TEST(RingSuccessors, RedundantSuccessorsChangeNothing) {
  // s = 1 and s = 2 are pure finger duplicates: Q identical to s = 0.
  const core::RingGeometry base;
  for (int s : {1, 2}) {
    const core::RingGeometry geometry(s);
    for (double q : {0.2, 0.6}) {
      for (int m = 1; m <= 10; ++m) {
        EXPECT_EQ(geometry.phase_failure(m, q, 10),
                  base.phase_failure(m, q, 10))
            << "s=" << s;
      }
    }
  }
}

TEST(RingSuccessors, PhaseFailureDropsWithEffectiveLinks) {
  const double q = 0.3;
  for (int m : {1, 4, 8}) {
    const double s0 = core::RingGeometry(0).phase_failure(m, q, 12);
    const double s4 = core::RingGeometry(4).phase_failure(m, q, 12);
    const double s8 = core::RingGeometry(8).phase_failure(m, q, 12);
    EXPECT_LT(s4, s0) << "m=" << m;
    EXPECT_LT(s8, s4) << "m=" << m;
  }
}

TEST(RingSuccessors, FirstPhaseClosedForm) {
  // m = 1: a single slot, Q = q^{1+s_eff}.
  for (double q : {0.2, 0.6}) {
    for (int s : {0, 3, 4, 8}) {
      const core::RingGeometry geometry(s);
      EXPECT_NEAR(geometry.phase_failure(1, q, 10),
                  std::pow(q, 1 + geometry.effective_extra_links()), 1e-12)
          << "q=" << q << " s=" << s;
    }
  }
}

TEST(RingSuccessors, RejectsNegative) {
  EXPECT_THROW(core::RingGeometry(-1), PreconditionError);
  const sim::IdSpace space(6);
  math::Rng rng(1);
  EXPECT_THROW(
      sim::ChordOverlay(space, rng, sim::ChordFingers::kDeterministic, -2),
      PreconditionError);
}

TEST(ChordSuccessors, LinksIncludeSuccessorList) {
  const sim::IdSpace space(8);
  math::Rng rng(2);
  const sim::ChordOverlay overlay(space, rng,
                                  sim::ChordFingers::kDeterministic, 3);
  EXPECT_EQ(overlay.successor_links(), 3);
  const auto links = overlay.links(10);
  ASSERT_EQ(links.size(), 8u + 3u);
  EXPECT_EQ(links[8], 11u);
  EXPECT_EQ(links[9], 12u);
  EXPECT_EQ(links[10], 13u);
}

TEST(ChordSuccessors, FailureFreeSuccessorsOnlyShortenRoutes) {
  // With nobody dead the successor list can only improve the end game
  // (e.g. distance 3 becomes a single +3 hop instead of +2 then +1).
  const sim::IdSpace space(10);
  math::Rng rng(3);
  const sim::ChordOverlay plain(space, rng);
  const sim::ChordOverlay with_successors(space, rng,
                                          sim::ChordFingers::kDeterministic,
                                          4);
  const sim::FailureScenario alive = sim::FailureScenario::all_alive(space);
  const sim::Router router_a(plain, alive);
  const sim::Router router_b(with_successors, alive);
  math::Rng route_rng(4);
  bool some_shorter = false;
  for (int i = 0; i < 500; ++i) {
    const sim::NodeId s = route_rng.uniform_below(space.size());
    sim::NodeId t = route_rng.uniform_below(space.size());
    if (s == t) {
      continue;
    }
    const auto a = router_a.route(s, t, route_rng);
    const auto b = router_b.route(s, t, route_rng);
    ASSERT_TRUE(b.success());
    EXPECT_LE(b.hops, a.hops);
    some_shorter = some_shorter || b.hops < a.hops;
  }
  EXPECT_TRUE(some_shorter);
}

TEST(ChordSuccessors, SuccessorListRescuesDeadFingerRoutes) {
  // Kill a node's entire useful finger set for a short route; the
  // successor list must still deliver.
  const sim::IdSpace space(8);
  math::Rng rng(5);
  const sim::ChordOverlay overlay(space, rng,
                                  sim::ChordFingers::kDeterministic, 3);
  sim::FailureScenario failures = sim::FailureScenario::all_alive(space);
  // Route 0 -> 3 (distance 3): useful fingers of node 0 are +2 and +1.
  failures.kill(1);
  failures.kill(2);
  const sim::Router router(overlay, failures);
  math::Rng route_rng(6);
  const auto result = router.route(0, 3, route_rng);
  EXPECT_TRUE(result.success());  // via successor +3
  EXPECT_EQ(result.hops, 1);
}

TEST(ChordSuccessors, MeasuredRoutabilityRisesWithEffectiveLinks) {
  const sim::IdSpace space(12);
  const double q = 0.3;
  const auto measure = [&](int s) {
    math::Rng rng(7);
    const sim::ChordOverlay overlay(space, rng,
                                    sim::ChordFingers::kDeterministic, s);
    math::Rng fail_rng(8);
    const sim::FailureScenario failures(space, q, fail_rng);
    math::Rng route_rng(9);
    return sim::estimate_routability_parallel(overlay, failures,
                                              {.pairs = 20000}, route_rng)
        .routability();
  };
  const double r0 = measure(0);
  const double r2 = measure(2);  // redundant: same links as s = 0
  const double r4 = measure(4);
  const double r8 = measure(8);
  EXPECT_NEAR(r2, r0, 0.01);  // powers of two buy nothing
  EXPECT_GT(r4, r0 + 0.01);
  EXPECT_GT(r8, r4);
}

TEST(ChordSuccessors, ModelTracksSimulation) {
  // The generalized Q_s is an approximation (end-game successors can
  // overshoot); it should still track the measurement within a few percent
  // at moderate q.
  const sim::IdSpace space(12);
  for (int s : {4, 8}) {
    const core::RingGeometry geometry(s);
    for (double q : {0.1, 0.3}) {
      math::Rng rng(10 + static_cast<std::uint64_t>(s));
      const sim::ChordOverlay overlay(space, rng,
                                      sim::ChordFingers::kDeterministic, s);
      math::Rng fail_rng(20 + static_cast<std::uint64_t>(s));
      const sim::FailureScenario failures(space, q, fail_rng);
      math::Rng route_rng(30);
      const double simulated =
          sim::estimate_routability_parallel(overlay, failures,
                                             {.pairs = 20000}, route_rng)
              .routability();
      const double predicted =
          core::evaluate_routability(geometry, 12, q).conditional_success;
      EXPECT_NEAR(simulated, predicted, 0.05) << "s=" << s << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace dht
