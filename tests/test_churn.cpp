// The churn extension: lifecycle model, the q_eff bridge, and the dynamic
// simulator's agreement with the static analysis (the paper's Section 1
// open question for this churn model).
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "churn/churn.hpp"
#include "churn/trajectory.hpp"
#include "common/check.hpp"
#include "core/registry.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"

namespace dht::churn {
namespace {

TEST(ChurnModel, AvailabilityIsStationaryDistribution) {
  EXPECT_NEAR(availability({.death_per_round = 0.01,
                            .rebirth_per_round = 0.04,
                            .refresh_interval = 5}),
              0.8, 1e-12);
  EXPECT_NEAR(availability({.death_per_round = 0.05,
                            .rebirth_per_round = 0.05,
                            .refresh_interval = 5}),
              0.5, 1e-12);
}

TEST(ChurnModel, DeadGivenAgeGrowsToStationary) {
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};
  EXPECT_EQ(dead_given_age(params, 0), 0.0);  // just refreshed to alive
  double previous = 0.0;
  for (int age = 1; age <= 200; age += 10) {
    const double p = dead_given_age(params, age);
    EXPECT_GT(p, previous);
    previous = p;
  }
  // Long ages approach the stationary dead probability 1 - a = 0.2.
  EXPECT_NEAR(dead_given_age(params, 2000), 0.2, 1e-9);
}

TEST(ChurnModel, EffectiveQLimits) {
  ChurnParams params{.death_per_round = 0.02,
                     .rebirth_per_round = 0.08,
                     .refresh_interval = 1};
  // Continuous refresh: entries are always fresh, q_eff = dead_given_age(0).
  EXPECT_NEAR(effective_q(params), 0.0, 1e-12);
  // Rare refresh: q_eff approaches the stationary dead probability.
  params.refresh_interval = 100000;
  EXPECT_NEAR(effective_q(params), 0.2, 1e-3);
}

TEST(ChurnModel, EffectiveQMonotoneInRefreshLag) {
  ChurnParams params{.death_per_round = 0.02,
                     .rebirth_per_round = 0.08,
                     .refresh_interval = 1};
  double previous = -1.0;
  for (int r : {1, 2, 5, 10, 30, 100, 1000}) {
    params.refresh_interval = r;
    const double q = effective_q(params);
    EXPECT_GT(q, previous) << "R=" << r;
    EXPECT_LE(q, 0.2 + 1e-12);
    previous = q;
  }
}

TEST(ChurnModel, EffectiveQMatchesDirectAverage) {
  const ChurnParams params{.death_per_round = 0.03,
                           .rebirth_per_round = 0.07,
                           .refresh_interval = 17};
  double direct = 0.0;
  for (int age = 0; age < params.refresh_interval; ++age) {
    direct += dead_given_age(params, age);
  }
  direct /= params.refresh_interval;
  EXPECT_NEAR(effective_q(params), direct, 1e-12);
}

TEST(ChurnModel, GoldenClosedFormValues) {
  // pd = 0.1, pr = 0.3: a = 0.75, lambda = 0.6 -- every quantity below is
  // exact in closed form, so the tolerances are float-roundoff only.
  const ChurnParams params{.death_per_round = 0.1,
                           .rebirth_per_round = 0.3,
                           .refresh_interval = 5};
  EXPECT_DOUBLE_EQ(availability(params), 0.75);
  EXPECT_DOUBLE_EQ(dead_given_age(params, 0), 0.0);
  EXPECT_NEAR(dead_given_age(params, 1), 0.25 * (1.0 - 0.6), 1e-15);   // 0.1
  EXPECT_NEAR(dead_given_age(params, 2), 0.25 * (1.0 - 0.36), 1e-15);  // 0.16
  EXPECT_NEAR(dead_given_age(params, 3), 0.25 * (1.0 - 0.216), 1e-15);
  // q_eff(5) = 0.25 * (1 - (1 - 0.6^5) / (5 * 0.4)) = 0.13472 exactly.
  EXPECT_NEAR(effective_q(params), 0.13472, 1e-12);

  // pd = 0.2, pr = 0.6, R = 2: lambda = 0.2, a = 0.75;
  // q_eff = 0.25 * (1 - 0.96 / 1.6) = 0.1 exactly.
  EXPECT_NEAR(effective_q({.death_per_round = 0.2,
                           .rebirth_per_round = 0.6,
                           .refresh_interval = 2}),
              0.1, 1e-12);
}

TEST(ChurnModel, GoldenEdgeCaseRefreshEveryRound) {
  // R = 1: the age average covers only age 0, so q_eff = 0 regardless of
  // the lifecycle rates.
  for (const double pd : {0.01, 0.3, 0.5}) {
    EXPECT_DOUBLE_EQ(effective_q({.death_per_round = pd,
                                  .rebirth_per_round = 0.5,
                                  .refresh_interval = 1}),
                     0.0)
        << "pd=" << pd;
  }
}

TEST(ChurnModel, GoldenEdgeCaseMemorylessChain) {
  // pd + pr = 1 (lambda = 0): the chain forgets its state in one round, so
  // every entry of age >= 1 is dead with exactly the stationary probability
  // 1 - a, and q_eff = (1 - a)(1 - 1/R).
  const ChurnParams params{.death_per_round = 0.5,
                           .rebirth_per_round = 0.5,
                           .refresh_interval = 4};
  EXPECT_DOUBLE_EQ(availability(params), 0.5);
  EXPECT_DOUBLE_EQ(dead_given_age(params, 1), 0.5);
  EXPECT_DOUBLE_EQ(dead_given_age(params, 7), 0.5);
  EXPECT_NEAR(effective_q(params), 0.5 * 0.75, 1e-15);  // 0.375

  // Asymmetric memoryless chain: pd = 0.6, pr = 0.4 -> a = 0.4.
  EXPECT_NEAR(effective_q({.death_per_round = 0.6,
                           .rebirth_per_round = 0.4,
                           .refresh_interval = 10}),
              0.6 * 0.9, 1e-15);  // 0.54
}

TEST(ChurnModel, GoldenEdgeCaseNearZeroLambda) {
  // lambda -> 0+ continuously approaches the memoryless closed form.
  const ChurnParams params{.death_per_round = 0.4995,
                           .rebirth_per_round = 0.4995,
                           .refresh_interval = 4};  // lambda = 0.001
  EXPECT_NEAR(effective_q(params), 0.5 * 0.75, 2e-4);
  EXPECT_NEAR(dead_given_age(params, 1), 0.5 * (1.0 - 0.001), 1e-12);
}

TEST(ChurnModel, GoldenEdgeCaseSlowChurn) {
  // lambda -> 1 (pd + pr -> 0): first-order expansion gives
  // dead_given_age(k) ~ (1-a) k (pd + pr) = k pd, and the age average
  // gives q_eff ~ pd (R-1)/2.
  const ChurnParams params{.death_per_round = 1e-5,
                           .rebirth_per_round = 4e-5,
                           .refresh_interval = 11};
  EXPECT_NEAR(dead_given_age(params, 3), 3e-5, 1e-8);
  EXPECT_NEAR(effective_q(params), 1e-5 * 5.0, 1e-8);
}

TEST(ChurnModel, GoldenNoReturnEffectiveQ) {
  // departed_given_age drops the rebirth term: 1 - (1-pd)^k exactly.
  const ChurnParams params{.death_per_round = 0.1,
                           .rebirth_per_round = 0.3,
                           .refresh_interval = 5};
  EXPECT_DOUBLE_EQ(departed_given_age(params, 0), 0.0);
  EXPECT_NEAR(departed_given_age(params, 1), 0.1, 1e-15);
  EXPECT_NEAR(departed_given_age(params, 2), 0.19, 1e-15);
  EXPECT_NEAR(departed_given_age(params, 3), 0.271, 1e-15);
  // q_nr(R) = 1 - (1 - (1-pd)^R) / (R pd); pd = 0.5, R = 4:
  // 1 - (1 - 0.0625) / 2 = 0.53125 exactly.
  EXPECT_NEAR(effective_q_no_return({.death_per_round = 0.5,
                                     .rebirth_per_round = 0.5,
                                     .refresh_interval = 4}),
              0.53125, 1e-15);
  // R = 1: fresh entries every round, no decay window.
  EXPECT_DOUBLE_EQ(effective_q_no_return({.death_per_round = 0.3,
                                          .rebirth_per_round = 0.2,
                                          .refresh_interval = 1}),
                   0.0);
  // Without rebirths stale entries only decay: q_nr >= q_eff -- equal up
  // to R = 2 (entries of age <= 1 leave no time for a rebirth to matter:
  // both give pd/2 at R = 2), strictly above for R >= 3 -- and q_nr is
  // monotone in the refresh lag with limit 1, not 1 - a.
  double previous = -1.0;
  for (int r : {1, 2, 5, 20, 100, 5000}) {
    const ChurnParams point{.death_per_round = 0.02,
                            .rebirth_per_round = 0.08,
                            .refresh_interval = r};
    const double q_nr = effective_q_no_return(point);
    EXPECT_GE(q_nr, effective_q(point) - 1e-12) << "R=" << r;
    if (r > 2) {
      EXPECT_GT(q_nr, effective_q(point)) << "R=" << r;
    }
    EXPECT_GT(q_nr, previous) << "R=" << r;
    EXPECT_LE(q_nr, 1.0);
    previous = q_nr;
  }
  EXPECT_NEAR(previous, 1.0, 0.02);  // R = 5000 approaches full decay
}

TEST(SessionModel, GeometricLimitRecoversNoReturnClosedForm) {
  // The generalized bridge must collapse onto the memoryless closed forms
  // exactly when the session model is geometric -- the golden anchor of
  // the heavy-tailed q_nr.
  const SessionModel geometric{.kind = SessionKind::kGeometric};
  for (const double pd : {0.02, 0.1, 0.5}) {
    for (const int r : {1, 2, 5, 30}) {
      const ChurnParams params{.death_per_round = pd,
                               .rebirth_per_round = 0.4,
                               .refresh_interval = r};
      EXPECT_DOUBLE_EQ(effective_q_no_return(params, geometric),
                       effective_q_no_return(params))
          << "pd=" << pd << " R=" << r;
      for (const int age : {0, 1, 3, 10}) {
        EXPECT_DOUBLE_EQ(departed_given_entry_age(params, geometric, age),
                         departed_given_age(params, age))
            << "pd=" << pd << " age=" << age;
      }
    }
  }
}

TEST(SessionModel, GoldenParetoNoReturnBridge) {
  const SessionModel pareto{.kind = SessionKind::kPareto,
                            .pareto_alpha = 1.5};
  // R = 1: fresh entries every round, zero decay window -- exactly 0 by
  // the T(0)/E[L] normalization, for any tail shape.
  EXPECT_DOUBLE_EQ(effective_q_no_return({.death_per_round = 0.3,
                                          .rebirth_per_round = 0.2,
                                          .refresh_interval = 1},
                                         pareto),
                   0.0);
  EXPECT_DOUBLE_EQ(
      departed_given_entry_age({.death_per_round = 0.3,
                                .rebirth_per_round = 0.2,
                                .refresh_interval = 1},
                               pareto, 0),
      0.0);
  // Golden pins of the discrete shifted-Pareto bridge (beta calibrated so
  // the mean session stays 1/pd); values cross-checked against the CLI and
  // the live-churn bench table.
  EXPECT_NEAR(effective_q_no_return({.death_per_round = 0.05,
                                     .rebirth_per_round = 0.05,
                                     .refresh_interval = 30},
                                    pareto),
              0.337623, 1e-5);
  EXPECT_NEAR(effective_q_no_return({.death_per_round = 0.02,
                                     .rebirth_per_round = 0.08,
                                     .refresh_interval = 10},
                                    pareto),
              0.078096, 1e-5);

  // Heavy tails at EQUAL mean lifetime lower the bridge: a fresh entry
  // points at a stationary-aged node, and under a decreasing hazard the
  // long-lived majority is stickier than the memoryless average (the
  // inspection paradox) -- strictly below the geometric q_nr for R >= 2,
  // monotonically more so as alpha drops toward 1.
  double previous_gap = 0.0;
  for (const double alpha : {8.0, 3.0, 2.0, 1.5, 1.2}) {
    const ChurnParams params{.death_per_round = 0.02,
                             .rebirth_per_round = 0.08,
                             .refresh_interval = 20};
    const double q_nr_pareto = effective_q_no_return(
        params, {.kind = SessionKind::kPareto, .pareto_alpha = alpha});
    const double gap = effective_q_no_return(params) - q_nr_pareto;
    EXPECT_GT(gap, previous_gap) << "alpha=" << alpha;
    previous_gap = gap;
  }

  // Monotone in the entry age with the right limits: 0 at age 0, toward 1
  // as the window outgrows every plausible remaining lifetime.
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 10};
  double previous = -1.0;
  for (const int age : {0, 1, 2, 5, 20, 100, 2000}) {
    const double dead = departed_given_entry_age(params, pareto, age);
    EXPECT_GT(dead, previous) << "age=" << age;
    EXPECT_LE(dead, 1.0) << "age=" << age;
    previous = dead;
  }
  EXPECT_GT(previous, 0.9);  // age 2000 >> E[L] = 20
}

TEST(SessionModel, SessionProcessHazardsAndStationaryAges) {
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 10};
  // Geometric: constant hazard pd at every age, and the stationary-age
  // draw is memoryless -- it must NOT consume the generator (the k = 1 /
  // geometric bit-compat contract of the sparse churn world).
  const SessionProcess geometric(params,
                                 {.kind = SessionKind::kGeometric});
  EXPECT_DOUBLE_EQ(geometric.hazard(1), 0.05);
  EXPECT_DOUBLE_EQ(geometric.hazard(1000), 0.05);
  EXPECT_DOUBLE_EQ(geometric.mean_session(), 20.0);
  math::Rng rng(7);
  math::Rng untouched(7);
  EXPECT_EQ(geometric.sample_stationary_age(rng), 0);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());

  // Pareto: decreasing hazard (old nodes are stickier), same mean session
  // by calibration, and stationary ages average E[L^2]-ish above the mean.
  const SessionProcess pareto(
      params, {.kind = SessionKind::kPareto, .pareto_alpha = 1.5});
  EXPECT_DOUBLE_EQ(pareto.mean_session(), 20.0);
  EXPECT_GT(pareto.hazard(1), pareto.hazard(5));
  EXPECT_GT(pareto.hazard(5), pareto.hazard(100));
  EXPECT_GT(pareto.hazard(1), 0.05);  // young nodes churn faster...
  EXPECT_LT(pareto.hazard(200), 0.05);  // ...old nodes slower
  math::Rng age_rng(11);
  double mean_age = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const auto age = pareto.sample_stationary_age(age_rng);
    ASSERT_GE(age, 0);
    mean_age += static_cast<double>(age);
  }
  mean_age /= 20000.0;
  // Stationary age mean = sum a S(a) / sum S(a); for alpha = 1.5 the tail
  // is fat enough that this sits far above E[L] (heavy-tail signature).
  EXPECT_GT(mean_age, 2.0 * pareto.mean_session());
}

TEST(SessionModel, NamesRoundTripAndRejectsBadShape) {
  SessionKind kind = SessionKind::kGeometric;
  for (const char* name : {"geometric", "pareto"}) {
    ASSERT_TRUE(session_kind_from_name(name, kind)) << name;
    EXPECT_STREQ(to_string(kind), name);
  }
  EXPECT_FALSE(session_kind_from_name("weibull", kind));
  const ChurnParams params{};
  EXPECT_THROW(SessionProcess(params, {.kind = SessionKind::kPareto,
                                       .pareto_alpha = 1.0}),
               PreconditionError);
  EXPECT_THROW(
      effective_q_no_return(params, {.kind = SessionKind::kPareto,
                                     .pareto_alpha = 0.5}),
      PreconditionError);
}

TEST(ChurnWorld, MeasureWithFewerThanTwoAliveNodesIsEmpty) {
  // The empty-estimate contract (regression: downstream confidence95 used
  // to trip Wilson's trials > 0 precondition on a collapsed world).  The
  // sparse churn engine honors the same contract (test_sparse_churn).
  const sim::IdSpace space(3);
  const ChurnParams params{.death_per_round = 0.99,
                           .rebirth_per_round = 0.005,
                           .refresh_interval = 3};
  ChurnWorld world(TrajectoryGeometry::kXor, space, params,
                   /*repair_probability=*/0.0, /*max_hops=*/0, math::Rng(71));
  bool collapsed = world.alive_count() < 2;
  for (int round = 0; round < 300 && !collapsed; ++round) {
    world.step();
    collapsed = world.alive_count() < 2;
  }
  ASSERT_TRUE(collapsed) << "population never dropped below 2";
  const sim::RoutabilityEstimate estimate = world.measure(100);
  EXPECT_EQ(estimate.routed.trials, 0u);
  EXPECT_EQ(estimate.routed.successes, 0u);
  EXPECT_EQ(estimate.hops.count(), 0u);
  EXPECT_EQ(estimate.hop_limit_hits(), 0u);
  EXPECT_EQ(estimate.routability(), 0.0);
  // The vacuous interval, not a PreconditionError.
  const math::Interval interval = estimate.confidence95();
  EXPECT_EQ(interval.lo, 0.0);
  EXPECT_EQ(interval.hi, 1.0);
  // The world keeps stepping; rebirths may repopulate it.
  for (int round = 0; round < 20; ++round) {
    world.step();
  }
}

TEST(ChurnWorld, PackedLivenessFollowsTheLifecycle) {
  // The world keeps its liveness as packed words only, and the routing
  // kernels read them directly.  Replay the lifecycle chain from the same
  // fork of the caller's generator (fork 1 feeds nothing but the flips)
  // and check every word after every round; d = 3 leaves 56 padding bits
  // in the one word, which must stay zero.
  for (const int d : {3, 8}) {
    for (const TrajectoryGeometry geometry :
         {TrajectoryGeometry::kXor, TrajectoryGeometry::kRing}) {
      const sim::IdSpace space(d);
      const ChurnParams params{.death_per_round = 0.2,
                               .rebirth_per_round = 0.3,
                               .refresh_interval = 4};
      const math::Rng rng(90 + static_cast<std::uint64_t>(d));
      ChurnWorld world(geometry, space, params, /*repair_probability=*/0.5,
                       /*max_hops=*/0, rng);
      math::Rng lifecycle = rng.fork(1);
      const std::uint64_t n = space.size();
      std::vector<bool> up(n);
      for (std::uint64_t v = 0; v < n; ++v) {
        up[v] = lifecycle.bernoulli(availability(params));
      }
      for (int round = 0; round <= 12; ++round) {
        if (round > 0) {
          world.step();
          for (std::uint64_t v = 0; v < n; ++v) {
            up[v] = up[v] ? !lifecycle.bernoulli(params.death_per_round)
                          : lifecycle.bernoulli(params.rebirth_per_round);
          }
        }
        const std::vector<std::uint64_t>& words = world.alive_bits();
        ASSERT_EQ(words.size(), (n + 63) / 64);
        std::vector<std::uint64_t> expected(words.size(), 0);
        std::uint64_t count = 0;
        for (std::uint64_t v = 0; v < n; ++v) {
          expected[v >> 6] |= static_cast<std::uint64_t>(up[v]) << (v & 63);
          count += up[v] ? 1 : 0;
          EXPECT_EQ(world.alive(v), up[v]) << "d=" << d << " v=" << v;
        }
        EXPECT_EQ(words, expected) << "d=" << d << " round=" << round;
        std::uint64_t popcount = 0;
        for (const std::uint64_t word : words) {
          popcount += static_cast<std::uint64_t>(std::popcount(word));
        }
        EXPECT_EQ(popcount, world.alive_count());
        EXPECT_EQ(world.alive_count(), count);
        if (count >= 2) {
          EXPECT_EQ(world.measure(50).routed.trials, 50u);
        }
      }
    }
  }
}

TEST(ChurnWorld, TrajectoryWithCollapsingWorldsStaysWellFormed) {
  // Shard replicas whose populations collapse contribute empty rounds; the
  // merged result must stay usable (routability 0, vacuous interval)
  // rather than throwing.
  const sim::IdSpace space(3);
  const ChurnParams params{.death_per_round = 0.99,
                           .rebirth_per_round = 0.005,
                           .refresh_interval = 3};
  const TrajectoryOptions options{.warmup_rounds = 20,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 50,
                                  .shards = 4};
  const auto result = run_churn_trajectory(TrajectoryGeometry::kXor, space,
                                           params, options, math::Rng(73));
  EXPECT_LE(result.overall.routed.trials, 4u * 3u * 50u);
  const math::Interval interval = result.overall.confidence95();
  EXPECT_GE(interval.lo, 0.0);
  EXPECT_LE(interval.hi, 1.0);
}

TEST(ChurnModel, RejectsBadParameters) {
  EXPECT_THROW(availability({.death_per_round = 0.0,
                             .rebirth_per_round = 0.5,
                             .refresh_interval = 5}),
               PreconditionError);
  EXPECT_THROW(availability({.death_per_round = 0.6,
                             .rebirth_per_round = 0.6,
                             .refresh_interval = 5}),
               PreconditionError);
  EXPECT_THROW(effective_q({.death_per_round = 0.1,
                            .rebirth_per_round = 0.1,
                            .refresh_interval = 0}),
               PreconditionError);
}

TEST(ChurnSimulator, AliveFractionTracksAvailability) {
  const sim::IdSpace space(12);
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};
  math::Rng rng(1);
  ChurnSimulator simulator(space, params, rng);
  simulator.run(100);
  // a = 0.8; N = 4096 => SE ~ 0.006 plus autocorrelation; 5x band.
  EXPECT_NEAR(simulator.alive_fraction(), 0.8, 0.04);
  EXPECT_EQ(simulator.round(), 100);
}

TEST(ChurnSimulator, MeanEntryAgeMatchesUniformAssumption) {
  // With lifetimes >> R, entry ages should hover near (R-1)/2.
  const sim::IdSpace space(12);
  const ChurnParams params{.death_per_round = 0.005,
                           .rebirth_per_round = 0.02,
                           .refresh_interval = 10};
  math::Rng rng(2);
  ChurnSimulator simulator(space, params, rng);
  simulator.run(60);
  EXPECT_NEAR(simulator.mean_entry_age(), 4.5, 1.2);
}

TEST(ChurnSimulator, PerfectStabilityRoutesEverything) {
  // Tiny churn, instant refresh: routability ~ 1.
  const sim::IdSpace space(10);
  const ChurnParams params{.death_per_round = 1e-6,
                           .rebirth_per_round = 0.5,
                           .refresh_interval = 1};
  math::Rng rng(3);
  ChurnSimulator simulator(space, params, rng);
  simulator.run(10);
  const auto measured = simulator.measure_routability(3000, rng);
  EXPECT_GT(measured.point(), 0.999);
}

TEST(ChurnSimulator, StaticModelAtEffectiveQPredictsChurnRoutability) {
  // The headline: run the dynamic system, compare against the static XOR
  // analysis evaluated at q_eff.  Tolerance covers Eq. 6's documented knee
  // bias plus Monte-Carlo noise (the benchmark prints the full curves).
  const sim::IdSpace space(12);
  const auto xor_geo = core::make_geometry(core::GeometryKind::kXor);
  for (int refresh : {5, 20}) {
    const ChurnParams params{.death_per_round = 0.02,
                             .rebirth_per_round = 0.08,
                             .refresh_interval = refresh};
    math::Rng rng(100 + static_cast<std::uint64_t>(refresh));
    ChurnSimulator simulator(space, params, rng);
    simulator.run(3 * refresh + 50);  // warm past several refresh cycles
    math::Rng measure_rng(4);
    const double measured =
        simulator.measure_routability(20000, measure_rng).point();
    const double q_eff = effective_q(params);
    const double predicted =
        core::evaluate_routability(*xor_geo, space.bits(), q_eff)
            .conditional_success;
    EXPECT_NEAR(measured, predicted, 0.08)
        << "R=" << refresh << " q_eff=" << q_eff;
    // More refresh lag must hurt.
    if (refresh == 20) {
      EXPECT_LT(measured, 0.995);
    }
  }
}

TEST(ChurnSimulator, SlowerRefreshLowersRoutability) {
  const sim::IdSpace space(12);
  double previous = 1.1;
  for (int refresh : {2, 10, 40}) {
    const ChurnParams params{.death_per_round = 0.03,
                             .rebirth_per_round = 0.07,
                             .refresh_interval = refresh};
    math::Rng rng(200 + static_cast<std::uint64_t>(refresh));
    ChurnSimulator simulator(space, params, rng);
    simulator.run(3 * refresh + 30);
    math::Rng measure_rng(5);
    const double measured =
        simulator.measure_routability(15000, measure_rng).point();
    EXPECT_LT(measured, previous + 0.02) << "R=" << refresh;
    previous = measured;
  }
}

}  // namespace
}  // namespace dht::churn
