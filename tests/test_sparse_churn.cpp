// The dynamic-membership sparse churn engine (churn/sparse_trajectory.hpp):
// membership/order-index invariants under joins and leaves (bucket ranges
// and drift-widened seek windows against full-array search oracles),
// pinned k-bucket counters in both measurement modes, thread-count
// determinism and merge semantics of the sharded replica estimator, the
// successor-list and join-announcement mechanisms, the empty-estimate
// contract on collapsed populations, the sweep grid API, and the headline
// dense-limit oracle -- at full population (capacity = 2^d, join rate =
// rebirth, leave rate = death) the engine statistically matches the dense
// ChurnWorld and the static model at q_eff, pinning it to the PR 2 bridge
// at d' = log2 N.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "churn/sparse_trajectory.hpp"
#include "churn/trajectory.hpp"
#include "common/check.hpp"
#include "common/hugepage.hpp"
#include "common/page_buffer.hpp"
#include "core/registry.hpp"
#include "math/rng.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/xor_overlay.hpp"
#include "sparse/density_analysis.hpp"

namespace dht::churn {
namespace {

void expect_identical(const sparse::SparseEstimate& a,
                      const sparse::SparseEstimate& b, const char* what) {
  EXPECT_EQ(a.attempts, b.attempts) << what;
  EXPECT_EQ(a.hops.count(), b.hops.count()) << what;
  EXPECT_EQ(a.hops.sum(), b.hops.sum()) << what;
  EXPECT_EQ(a.hops.sum_squares(), b.hops.sum_squares()) << what;
  EXPECT_EQ(a.hops.min(), b.hops.min()) << what;
  EXPECT_EQ(a.hops.max(), b.hops.max()) << what;
  EXPECT_EQ(a.hop_limit_hits(), b.hop_limit_hits()) << what;
}

constexpr SparseChurnGeometry kAllGeometries[] = {
    SparseChurnGeometry::kChord, SparseChurnGeometry::kKademlia,
    SparseChurnGeometry::kSymphony};

TEST(SparseMembership, OrderIndexStaysConsistentUnderChurn) {
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 5};
  const SparseChurnConfig config{
      .bits = 24, .capacity = 2048, .successors = 3, .shortcuts = 4};
  SparseChurnWorld world(SparseChurnGeometry::kChord, config, params, 0.0, 0,
                         math::Rng(61));
  for (int round = 0; round < 40; ++round) {
    world.step();
    world.audit();
    const SparseMembership& membership = world.membership();
    // The order index covers exactly the present slots, in strictly
    // ascending id order (ids distinct), each mapping back to a present
    // slot with the matching identifier.
    std::uint64_t present = 0;
    for (NodeSlot slot = 0; slot < membership.capacity(); ++slot) {
      present += membership.present(slot) ? 1 : 0;
    }
    ASSERT_EQ(membership.population(), present) << "round " << round;
    ASSERT_EQ(membership.order_size(), present) << "round " << round;
    for (std::uint64_t pos = 0; pos < membership.order_size(); ++pos) {
      const NodeSlot slot = membership.slot_at(pos);
      ASSERT_TRUE(membership.present(slot)) << "round " << round;
      ASSERT_EQ(membership.id_at(pos), membership.id_of(slot))
          << "round " << round;
      if (pos > 0) {
        ASSERT_LT(membership.id_at(pos - 1), membership.id_at(pos))
            << "round " << round;
      }
    }
  }
  EXPECT_GT(world.total_joins(), 0u);
  EXPECT_GT(world.total_leaves(), 0u);
}

TEST(SparseChurn, BitIdenticalAcrossThreadCounts) {
  const ChurnParams params{.death_per_round = 0.03,
                           .rebirth_per_round = 0.07,
                           .refresh_interval = 6};
  const SparseChurnConfig config{
      .bits = 30, .capacity = 1500, .successors = 3, .shortcuts = 4};
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    for (const double rho : {0.0, 0.5}) {
      const TrajectoryOptions base{.warmup_rounds = 8,
                                   .measured_rounds = 3,
                                   .pairs_per_round = 400,
                                   .shards = 8,
                                   .repair_probability = rho};
      const math::Rng rng(17);
      SparseChurnResult reference;
      bool first = true;
      for (const unsigned threads : {1u, 2u, 8u}) {
        TrajectoryOptions options = base;
        options.threads = threads;
        const SparseChurnResult result = run_sparse_churn_trajectory(
            geometry, config, params, options, rng);
        ASSERT_EQ(result.per_round.size(), 3u);
        if (first) {
          reference = result;
          first = false;
          EXPECT_GT(result.overall.attempts, 0u) << to_string(geometry);
          EXPECT_EQ(result.overall.hop_limit_hits(), 0u) << to_string(geometry);
        } else {
          for (std::size_t r = 0; r < result.per_round.size(); ++r) {
            expect_identical(reference.per_round[r], result.per_round[r],
                             to_string(geometry));
          }
          expect_identical(reference.overall, result.overall,
                           to_string(geometry));
          EXPECT_EQ(reference.mean_population, result.mean_population);
          EXPECT_EQ(reference.mean_alive_fraction,
                    result.mean_alive_fraction);
          EXPECT_EQ(reference.mean_entry_age, result.mean_entry_age);
        }
      }
    }
  }
}

TEST(SparseChurn, GoldenBitCompatWithPreKBucketEngine) {
  // The k = 1 / geometric-session configuration must reproduce the
  // pre-k-bucket engine bit for bit: these counters were captured from the
  // PR 5 build (before bucket widening, SessionModel threading, and the
  // in-flight refactor) at this exact configuration.  Any rng-stream or
  // table-layout drift in the defaults shows up here as an exact-integer
  // mismatch.
  const ChurnParams params{.death_per_round = 0.03,
                           .rebirth_per_round = 0.07,
                           .refresh_interval = 6};
  const SparseChurnConfig config{
      .bits = 30, .capacity = 1500, .successors = 3, .shortcuts = 4};
  const TrajectoryOptions options{.warmup_rounds = 8,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 400,
                                  .shards = 8};
  struct Golden {
    SparseChurnGeometry geometry;
    std::uint64_t attempts, count, sum, sum_squares, min, max;
  };
  const Golden goldens[] = {
      {SparseChurnGeometry::kKademlia, 9600, 9352, 48958, 284378, 1, 14},
      {SparseChurnGeometry::kChord, 9600, 9598, 46887, 250337, 1, 10},
      {SparseChurnGeometry::kSymphony, 9600, 9590, 151311, 2873797, 1, 51},
  };
  for (const Golden& golden : goldens) {
    const auto result = run_sparse_churn_trajectory(
        golden.geometry, config, params, options, math::Rng(17));
    EXPECT_EQ(result.overall.attempts, golden.attempts)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.count(), golden.count)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.sum(), golden.sum)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.sum_squares(), golden.sum_squares)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.min(), golden.min)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hops.max(), golden.max)
        << to_string(golden.geometry);
    EXPECT_EQ(result.overall.hop_limit_hits(), 0u)
        << to_string(golden.geometry);
    EXPECT_DOUBLE_EQ(result.mean_population, 1048.375)
        << to_string(golden.geometry);
  }
}

TEST(SparseChurn, KBucketCountersPinnedAcrossMeasurementModes) {
  // Exact counters of the k-bucket Kademlia world under Pareto sessions:
  // k in {1, 4} x announce in {0, 8}, each measured round-synchronously
  // and in flight.  The in-flight rows commit the order index without a
  // seek refresh at every joiner boundary, so they exercise the
  // drift-widened membership queries; every row bootstraps joiners and
  // announces them through the per-node bucket ranges.  Any change to a
  // drawn bucket member, an announce insert or a query result bends one of
  // these integers.
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 8};
  struct Golden {
    int bucket_k;
    int announce;
    bool inflight;
    std::uint64_t attempts, delivered, hop_sum, fail_dead_entry;
    double mean_population;
  };
  const Golden goldens[] = {
      {1, 0, false, 2400, 2204, 11914, 196, 1502.5},
      {1, 0, true, 2400, 2169, 11747, 231, 1502.5},
      {1, 8, false, 2400, 2350, 12739, 50, 1502.5},
      {1, 8, true, 2400, 2342, 12960, 58, 1502.5},
      {4, 0, false, 2400, 2303, 12036, 97, 1502.5},
      {4, 0, true, 2400, 2297, 11982, 103, 1502.5},
      {4, 8, false, 2400, 2400, 12605, 0, 1502.5},
      {4, 8, true, 2400, 2400, 12463, 0, 1502.5},
  };
  for (const Golden& golden : goldens) {
    SparseChurnConfig config{
        .bits = 32, .capacity = 3000, .successors = 2, .shortcuts = 4};
    config.bucket_k = golden.bucket_k;
    config.announce = golden.announce;
    config.session = SessionModel{.kind = SessionKind::kPareto,
                                  .pareto_alpha = 2.0};
    TrajectoryOptions options{.warmup_rounds = 8,
                              .measured_rounds = 3,
                              .pairs_per_round = 400,
                              .shards = 2,
                              .repair_probability = 0.3};
    options.inflight = golden.inflight;
    const auto result = run_sparse_churn_trajectory(
        SparseChurnGeometry::kKademlia, config, params, options,
        math::Rng(29));
    const std::string what = "k=" + std::to_string(golden.bucket_k) +
                             " announce=" + std::to_string(golden.announce) +
                             (golden.inflight ? " inflight" : " sync");
    EXPECT_EQ(result.overall.attempts, golden.attempts) << what;
    EXPECT_EQ(result.overall.hops.count(), golden.delivered) << what;
    EXPECT_EQ(result.overall.hops.sum(), golden.hop_sum) << what;
    EXPECT_EQ(result.overall.failures[obs::RouteFailure::kDeadEntry],
              golden.fail_dead_entry)
        << what;
    EXPECT_DOUBLE_EQ(result.mean_population, golden.mean_population) << what;
  }
}

TEST(SparseChurn, WidthBoundaryCountersPinned) {
  // The routing rows cache target ids as u32 at bits <= 32 and as u64
  // above, with one kernel instantiation per width.  These counters were
  // captured before the narrowing, on the all-u64 engine; bits 32 and 33
  // straddle the switch, so both instantiations stay pinned to it, across
  // the ring, the k-bucket Kademlia stack (k 4, Pareto sessions, announce
  // 8, rho 0.3: the LRU eviction path) and Symphony, measured
  // round-synchronously and in flight.  The world is audited after every
  // step: a truncated cached id fails audit() even where routing would
  // not notice.
  const ChurnParams params{.death_per_round = 0.1,
                           .rebirth_per_round = 0.1,
                           .refresh_interval = 10};
  struct Golden {
    SparseChurnGeometry geometry;
    int bits;
    bool inflight;
    std::uint64_t attempts, delivered, hop_sum, fail_dead_entry;
    double mean_population;
  };
  const Golden goldens[] = {
      {SparseChurnGeometry::kChord, 31, false, 600, 599, 3188, 1, 473},
      {SparseChurnGeometry::kChord, 31, true, 600, 588, 3151, 4, 473},
      {SparseChurnGeometry::kChord, 32, false, 600, 598, 3143, 2, 473},
      {SparseChurnGeometry::kChord, 32, true, 600, 589, 3077, 6, 473},
      {SparseChurnGeometry::kChord, 33, false, 600, 594, 3184, 6, 473},
      {SparseChurnGeometry::kChord, 33, true, 600, 588, 3204, 8, 473},
      {SparseChurnGeometry::kChord, 63, false, 600, 599, 3144, 1, 473},
      {SparseChurnGeometry::kChord, 63, true, 600, 588, 3147, 4, 473},
      {SparseChurnGeometry::kKademlia, 31, false, 600, 599, 2672, 1, 516.33333333333337},
      {SparseChurnGeometry::kKademlia, 31, true, 600, 598, 2613, 2, 516.33333333333337},
      {SparseChurnGeometry::kKademlia, 32, false, 600, 600, 2584, 0, 516.33333333333337},
      {SparseChurnGeometry::kKademlia, 32, true, 600, 598, 2664, 1, 516.33333333333337},
      {SparseChurnGeometry::kKademlia, 33, false, 600, 600, 2692, 0, 516.33333333333337},
      {SparseChurnGeometry::kKademlia, 33, true, 600, 599, 2656, 1, 516.33333333333337},
      {SparseChurnGeometry::kKademlia, 63, false, 600, 600, 2637, 0, 516.33333333333337},
      {SparseChurnGeometry::kKademlia, 63, true, 600, 596, 2689, 4, 516.33333333333337},
      {SparseChurnGeometry::kSymphony, 31, false, 600, 596, 11862, 4, 473},
      {SparseChurnGeometry::kSymphony, 31, true, 600, 544, 11862, 9, 473},
      {SparseChurnGeometry::kSymphony, 32, false, 600, 591, 10935, 9, 473},
      {SparseChurnGeometry::kSymphony, 32, true, 600, 465, 8217, 13, 473},
      {SparseChurnGeometry::kSymphony, 33, false, 600, 593, 12424, 7, 473},
      {SparseChurnGeometry::kSymphony, 33, true, 600, 481, 9193, 5, 473},
      {SparseChurnGeometry::kSymphony, 63, false, 600, 593, 17480, 7, 473},
      {SparseChurnGeometry::kSymphony, 63, true, 600, 532, 14486, 5, 473},
  };
  for (const Golden& golden : goldens) {
    SparseChurnConfig config{.bits = golden.bits,
                             .capacity = 1024,
                             .successors = 2,
                             .shortcuts = 4};
    double rho = 0.0;
    if (golden.geometry == SparseChurnGeometry::kKademlia) {
      config.bucket_k = 4;
      config.announce = 8;
      config.session = SessionModel{.kind = SessionKind::kPareto,
                                    .pareto_alpha = 2.0};
      rho = 0.3;
    }
    const std::string what = std::string(to_string(golden.geometry)) +
                             " bits=" + std::to_string(golden.bits) +
                             (golden.inflight ? " inflight" : " sync");
    SparseChurnWorld world(golden.geometry, config, params, rho, 0,
                           math::Rng(113));
    world.audit();
    for (int round = 0; round < 6; ++round) {
      world.step();
      world.audit();
    }
    sparse::SparseEstimate total;
    double population = 0.0;
    for (int round = 0; round < 3; ++round) {
      if (golden.inflight) {
        total.merge(world.measure_inflight(200));
      } else {
        world.step();
        world.audit();
        total.merge(world.measure(200));
      }
      world.audit();
      population += static_cast<double>(world.population());
    }
    EXPECT_EQ(total.attempts, golden.attempts) << what;
    EXPECT_EQ(total.hops.count(), golden.delivered) << what;
    EXPECT_EQ(total.hops.sum(), golden.hop_sum) << what;
    EXPECT_EQ(total.failures[obs::RouteFailure::kDeadEntry],
              golden.fail_dead_entry)
        << what;
    EXPECT_DOUBLE_EQ(population / 3.0, golden.mean_population) << what;
  }
}

TEST(SparseChurn, RowArenaSurvivesFullTurnover) {
  // Routing rows exist only for present members: a leaving slot returns
  // its row to the arena's free list and a joiner takes a row from it.  At
  // pd = pr = 0.5 about half the members leave and half the absent slots
  // join every round, so rows are recycled between unrelated slots all
  // the time.  Row placement feeds no decision: these counters were
  // captured on the capacity-sized layout (one row per roster slot), at
  // both id widths and in both measurement modes.  The world is audited
  // after every step: a row that leaked, went to two slots, or kept a
  // previous owner's cells fails audit() before routing notices.
  const ChurnParams params{.death_per_round = 0.5,
                           .rebirth_per_round = 0.5,
                           .refresh_interval = 4};
  struct Golden {
    SparseChurnGeometry geometry;
    int bits;
    bool inflight;
    std::uint64_t attempts, delivered, hop_sum, fail_dead_entry;
  };
  const Golden goldens[] = {
      {SparseChurnGeometry::kChord, 32, false, 600, 600, 2860, 0},
      {SparseChurnGeometry::kChord, 32, true, 600, 550, 3215, 34},
      {SparseChurnGeometry::kChord, 40, false, 600, 600, 2889, 0},
      {SparseChurnGeometry::kChord, 40, true, 600, 529, 2982, 27},
      {SparseChurnGeometry::kKademlia, 32, false, 600, 581, 2470, 19},
      {SparseChurnGeometry::kKademlia, 32, true, 600, 568, 2512, 29},
      {SparseChurnGeometry::kKademlia, 40, false, 600, 575, 2539, 25},
      {SparseChurnGeometry::kKademlia, 40, true, 600, 551, 2397, 42},
      {SparseChurnGeometry::kSymphony, 32, false, 600, 600, 6260, 0},
      {SparseChurnGeometry::kSymphony, 32, true, 600, 480, 6370, 19},
      {SparseChurnGeometry::kSymphony, 40, false, 600, 600, 7508, 0},
      {SparseChurnGeometry::kSymphony, 40, true, 600, 340, 4186, 9},
  };
  for (const Golden& golden : goldens) {
    SparseChurnConfig config{.bits = golden.bits,
                             .capacity = 512,
                             .successors = 3,
                             .shortcuts = 5};
    // Ring and Kademlia run lazy refresh only (rho = 0), so the audit
    // also checks the due-round bound across row recycling; Symphony
    // takes the eager-repair branch.
    double rho = 0.0;
    if (golden.geometry == SparseChurnGeometry::kKademlia) {
      config.bucket_k = 4;
      config.announce = 8;
    } else if (golden.geometry == SparseChurnGeometry::kSymphony) {
      rho = 0.3;
    }
    const std::string what = std::string(to_string(golden.geometry)) +
                             " bits=" + std::to_string(golden.bits) +
                             (golden.inflight ? " inflight" : " sync");
    SparseChurnWorld world(golden.geometry, config, params, rho, 0,
                           math::Rng(271));
    world.audit();
    for (int round = 0; round < 5; ++round) {
      world.step();
      world.audit();
    }
    sparse::SparseEstimate total;
    for (int round = 0; round < 4; ++round) {
      if (golden.inflight) {
        total.merge(world.measure_inflight(150));
      } else {
        world.step();
        world.audit();
        total.merge(world.measure(150));
      }
      world.audit();
    }
    // More leaves than two full rosters.
    EXPECT_GT(world.total_leaves(), 2 * config.capacity) << what;
    EXPECT_EQ(total.attempts, golden.attempts) << what;
    EXPECT_EQ(total.hops.count(), golden.delivered) << what;
    EXPECT_EQ(total.hops.sum(), golden.hop_sum) << what;
    EXPECT_EQ(total.failures[obs::RouteFailure::kDeadEntry],
              golden.fail_dead_entry)
        << what;
  }
}

TEST(SparseChurn, InflightBitIdenticalAcrossThreadCounts) {
  // In-flight measurement interleaves lifecycle, repair, and routing
  // inside each shard's private world, so the replica-sharding determinism
  // contract must survive it: 1/2/8 threads bit-identical, across
  // geometries and the full realism stack (k buckets + Pareto sessions).
  const ChurnParams params{.death_per_round = 0.04,
                           .rebirth_per_round = 0.06,
                           .refresh_interval = 6};
  struct Stack {
    int bucket_k;
    SessionKind session;
  };
  const Stack stacks[] = {{1, SessionKind::kGeometric},
                          {4, SessionKind::kPareto}};
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    for (const Stack& stack : stacks) {
      SparseChurnConfig config{
          .bits = 30, .capacity = 1500, .successors = 3, .shortcuts = 4};
      config.bucket_k = stack.bucket_k;
      config.session = SessionModel{.kind = stack.session,
                                    .pareto_alpha = 1.5};
      TrajectoryOptions base{.warmup_rounds = 6,
                             .measured_rounds = 3,
                             .pairs_per_round = 400,
                             .shards = 8,
                             .repair_probability = 0.4};
      base.inflight = true;
      const math::Rng rng(37);
      SparseChurnResult reference;
      bool first = true;
      for (const unsigned threads : {1u, 2u, 8u}) {
        TrajectoryOptions options = base;
        options.threads = threads;
        const SparseChurnResult result = run_sparse_churn_trajectory(
            geometry, config, params, options, rng);
        ASSERT_EQ(result.per_round.size(), 3u);
        if (first) {
          reference = result;
          first = false;
          EXPECT_GT(result.overall.attempts, 0u) << to_string(geometry);
        } else {
          for (std::size_t r = 0; r < result.per_round.size(); ++r) {
            expect_identical(reference.per_round[r], result.per_round[r],
                             to_string(geometry));
          }
          expect_identical(reference.overall, result.overall,
                           to_string(geometry));
          EXPECT_EQ(reference.mean_population, result.mean_population);
          EXPECT_EQ(reference.mean_entry_age, result.mean_entry_age);
        }
      }
    }
  }
}

TEST(SparseChurn, InflightWorldKeepsRoundAndOrderInvariants) {
  // measure_inflight advances the round itself and interleaves membership
  // events with routing; after it returns, the world must satisfy the same
  // order-index invariants as a step()ed world, and the lifecycle must
  // have run exactly once per slot (population stays near stationarity).
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 5};
  const SparseChurnConfig config{
      .bits = 24, .capacity = 2048, .successors = 3, .shortcuts = 4};
  SparseChurnWorld world(SparseChurnGeometry::kKademlia, config, params, 0.3,
                         0, math::Rng(91));
  for (int round = 0; round < 20; ++round) {
    const int before = world.round();
    (void)world.measure_inflight(50);
    ASSERT_EQ(world.round(), before + 1);
    world.audit();
    const SparseMembership& membership = world.membership();
    std::uint64_t present = 0;
    for (NodeSlot slot = 0; slot < membership.capacity(); ++slot) {
      present += membership.present(slot) ? 1 : 0;
    }
    ASSERT_EQ(membership.population(), present) << "round " << round;
    ASSERT_EQ(membership.order_size(), present) << "round " << round;
    for (std::uint64_t pos = 1; pos < membership.order_size(); ++pos) {
      ASSERT_LT(membership.id_at(pos - 1), membership.id_at(pos))
          << "round " << round;
    }
  }
  EXPECT_NEAR(world.alive_fraction(), 0.5, 0.08);  // a = 0.5 stationarity
  EXPECT_GT(world.total_joins(), 0u);
  EXPECT_GT(world.total_leaves(), 0u);
}

TEST(SparseChurn, KBucketsBeatSingleContactUnderHeavyChurn) {
  // The acceptance claim: k = 4 Kademlia buckets with dead-observed LRU
  // eviction measurably beat the single-contact rows under pd = pr = 0.05,
  // R = 30 -- redundancy exactly where decay bites (no successor-list
  // crutch: succ = 0 isolates the bucket effect).
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 30};
  const TrajectoryOptions options{.warmup_rounds = 90,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 600,
                                  .shards = 4};
  double routability[2] = {0.0, 0.0};
  int i = 0;
  for (const int k : {1, 4}) {
    SparseChurnConfig config{
        .bits = 32, .capacity = 4096, .successors = 0, .shortcuts = 4};
    config.bucket_k = k;
    const auto result = run_sparse_churn_trajectory(
        SparseChurnGeometry::kKademlia, config, params, options,
        math::Rng(13));
    routability[i++] = result.overall.routability();
  }
  EXPECT_GT(routability[1], routability[0] + 0.15)
      << "k=1: " << routability[0] << " k=4: " << routability[1];
  EXPECT_GT(routability[1], 0.9);
}

TEST(SparseChurn, HeavyTailedSessionsTrackGeneralizedBridge) {
  // The acceptance claim: measured heavy-tailed routability tracks the
  // static dense model at the density-reduction scale d' = log2 N0
  // evaluated at the GENERALIZED no-return bridge q_nr (the Pareto tail
  // sum), within the dense-limit-oracle tolerance band.  The heavy tail
  // at equal mean lifetime must also strictly beat the geometric run --
  // the inspection-paradox dividend the generalized bridge predicts.
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};
  const SessionModel pareto{.kind = SessionKind::kPareto,
                            .pareto_alpha = 1.5};
  const TrajectoryOptions options{.warmup_rounds = 90,
                                  .measured_rounds = 4,
                                  .pairs_per_round = 600,
                                  .shards = 8};
  const std::uint64_t n0 = 4096;
  SparseChurnConfig config{
      .bits = 32,
      .capacity = capacity_for_population(n0, params),
      .successors = 0,
      .shortcuts = 4};
  config.session = pareto;
  const auto heavy = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options, math::Rng(3));
  config.session = SessionModel{};
  const auto geometric = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options, math::Rng(3));

  // The composed model of the ext_sparse_churn bridge: the dense analytic
  // model at the density-reduction scale d' = log2 N0, evaluated at the
  // generalized (Pareto) q_nr.
  const double q_nr = effective_q_no_return(params, pareto);
  const auto xor_geo = core::make_geometry(core::GeometryKind::kXor);
  const double at_q_nr =
      sparse::predict_sparse_routability(*xor_geo, n0, q_nr)
          .conditional_success;
  EXPECT_NEAR(heavy.overall.routability(), at_q_nr, 0.05)
      << "q_nr=" << q_nr;
  // Equal mean, heavier tail: strictly better measured routability, and a
  // strictly lower generalized bridge than the geometric q_nr.
  EXPECT_GT(heavy.overall.routability(), geometric.overall.routability());
  EXPECT_LT(q_nr, effective_q_no_return(params));
}

TEST(SparseMembership, JoinStaysFastAtFullOccupancyDenseLimit) {
  // Regression for the rejection-sampling degeneracy: with capacity =
  // 2^bits and occupancy -> 1, each fresh-id draw used to spin ~2^bits
  // rejection rounds; the free-key enumeration path bounds a join by
  // O(keys).  This churns the LAST free keys of a full 2^12 space many
  // times -- catastrophic before the fix, instant after it.
  const int bits = 12;
  const std::uint64_t keys = std::uint64_t{1} << bits;
  SparseMembership membership(bits, keys);
  math::Rng rng(29);
  std::vector<NodeSlot> cohort;
  cohort.reserve(keys);
  for (NodeSlot slot = 0; slot + 1 < keys; ++slot) {
    cohort.push_back(slot);
  }
  membership.join(cohort, rng);
  membership.commit();
  ASSERT_EQ(membership.population(), keys - 1);
  // Churn single slots at occupancy (2^bits - 1) / 2^bits: each join must
  // find one of the two free keys without scanning the whole space per
  // rejection draw.
  std::vector<NodeSlot> one(1);
  for (int iter = 0; iter < 2000; ++iter) {
    const NodeSlot victim =
        static_cast<NodeSlot>(rng.uniform_below(keys - 1));
    membership.leave(victim);
    one[0] = victim;
    membership.join(one, rng);
    membership.commit();
    ASSERT_EQ(membership.population(), keys - 1);
  }
  // Ids stay distinct under heavy recycling (order-index invariant).
  for (std::uint64_t pos = 1; pos < membership.order_size(); ++pos) {
    ASSERT_LT(membership.id_at(pos - 1), membership.id_at(pos));
  }
  // The fully occupied space still joins its final slot instantly.
  membership.join({static_cast<NodeSlot>(keys - 1)}, rng);
  membership.commit();
  EXPECT_EQ(membership.population(), keys);
}

// The committed order ids, read back through the public accessors.
std::vector<std::uint64_t> order_ids_of(const SparseMembership& m) {
  std::vector<std::uint64_t> ids(m.order_size());
  for (std::uint64_t pos = 0; pos < ids.size(); ++pos) {
    ids[pos] = m.id_at(pos);
  }
  return ids;
}

// Full-array searches: the answers every windowed query must reproduce.
std::pair<std::uint64_t, std::uint64_t> full_range(
    const std::vector<std::uint64_t>& ids, std::uint64_t lo,
    std::uint64_t hi) {
  const auto first = std::lower_bound(ids.begin(), ids.end(), lo);
  const auto last = std::upper_bound(first, ids.end(), hi);
  return {static_cast<std::uint64_t>(first - ids.begin()),
          static_cast<std::uint64_t>(last - ids.begin())};
}

// bucket_ranges(id) against the per-level oracle order_range(
// kademlia_bucket_range(id, l, bits)), which in turn must equal the
// full-array search.
void expect_bucket_ranges_match_oracle(const SparseMembership& m,
                                       const std::vector<std::uint64_t>& ids,
                                       std::uint64_t id,
                                       const std::string& what) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  m.bucket_ranges(id, ranges);
  ASSERT_EQ(ranges.size(), static_cast<std::size_t>(m.bits())) << what;
  for (int level = 1; level <= m.bits(); ++level) {
    const auto [lo, hi] = kademlia_bucket_range(id, level, m.bits());
    const auto oracle = m.order_range(lo, hi);
    ASSERT_EQ(oracle, full_range(ids, lo, hi))
        << what << " id=" << id << " level=" << level;
    ASSERT_EQ(ranges[static_cast<std::size_t>(level - 1)], oracle)
        << what << " id=" << id << " level=" << level;
  }
}

// A membership of `population` present slots over 2^bits keys.  A stale
// build first commits a seek-refreshed cohort, then recycles or retires it
// and commits the final set without a refresh, so every query runs on a
// drift-widened window.
SparseMembership make_membership(int bits, std::uint64_t population,
                                 bool fresh, math::Rng& rng) {
  const std::uint64_t capacity = std::max<std::uint64_t>(
      2, std::min(2 * population, std::uint64_t{1} << bits));
  SparseMembership m(bits, capacity);
  std::vector<NodeSlot> cohort;
  if (!fresh) {
    const std::uint64_t half = (capacity + 1) / 2;
    for (NodeSlot slot = 0; slot < half; ++slot) {
      cohort.push_back(slot);
    }
    m.join(cohort, rng);
    m.commit(true);
    for (NodeSlot slot = 0; slot < half; ++slot) {
      if (slot < capacity - population || slot % 2 == 0) {
        m.leave(slot);
      }
    }
    cohort.clear();
  }
  for (NodeSlot slot = capacity - population; slot < capacity; ++slot) {
    if (!m.present(slot)) {
      cohort.push_back(slot);
    }
  }
  m.join(cohort, rng);
  m.commit(fresh);
  return m;
}

TEST(SparseMembership, BucketRangesMatchPerLevelOracle) {
  math::Rng rng(71);
  for (const int bits : {8, 20, 32, 63}) {
    const std::uint64_t max_id = (std::uint64_t{1} << bits) - 1;
    for (const std::uint64_t population :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
          bits == 8 ? std::uint64_t{256} : std::uint64_t{1000}}) {
      for (const bool fresh : {true, false}) {
        const std::string what = "bits=" + std::to_string(bits) +
                                 " n=" + std::to_string(population) +
                                 (fresh ? " fresh" : " stale");
        SparseMembership m = make_membership(bits, population, fresh, rng);
        ASSERT_EQ(m.population(), population) << what;
        m.audit();
        // Queries: both ends of the key space, random (mostly absent) ids,
        // present ids, and ids of nodes that left after the commit -- the
        // index still holds them, as it does mid-round in flight.
        std::vector<std::uint64_t> queries = {0, max_id};
        for (int i = 0; i < 8; ++i) {
          queries.push_back(rng.uniform_below(max_id) + 1);
        }
        std::vector<NodeSlot> present;
        for (NodeSlot slot = 0; slot < m.capacity(); ++slot) {
          if (m.present(slot)) {
            present.push_back(slot);
          }
        }
        for (std::size_t i = 0; i < present.size() && i < 6; ++i) {
          const NodeSlot slot =
              present[rng.uniform_below(present.size())];
          queries.push_back(m.id_of(slot));
          if (i % 2 == 1 && m.present(slot)) {
            m.leave(slot);  // departed, not yet committed
          }
        }
        m.audit();
        const std::vector<std::uint64_t> ids = order_ids_of(m);
        for (const std::uint64_t id : queries) {
          expect_bucket_ranges_match_oracle(m, ids, id, what);
        }
      }
    }
  }
}

TEST(SparseMembership, DriftWindowsAnswerExactlyUnderRandomCommitWalk) {
  // A seeded walk of leave / join+commit(false) / join+commit(true) /
  // bare commit steps.  Runs of non-refreshing commits pile up drift well
  // past the population; after every step each windowed query must equal
  // the full-array search, and the index must pass its audit.
  for (const int bits : {12, 40}) {
    const std::uint64_t capacity = 400;
    const std::uint64_t max_id = (std::uint64_t{1} << bits) - 1;
    SparseMembership m(bits, capacity);
    math::Rng rng(static_cast<std::uint64_t>(bits) * 7919);
    std::vector<NodeSlot> cohort;
    for (NodeSlot slot = 0; slot < capacity / 2; ++slot) {
      cohort.push_back(slot);
    }
    m.join(cohort, rng);
    m.commit(true);
    // Drift as the index sees it: entries dropped and merged since the
    // last refreshing commit.
    std::uint64_t drift = 0;
    std::uint64_t max_drift_over_population = 0;
    for (int step = 0; step < 400; ++step) {
      const std::string what =
          "bits=" + std::to_string(bits) + " step=" + std::to_string(step);
      const std::uint64_t op = rng.uniform_below(8);
      const std::uint64_t size_before = m.order_size();
      if (op < 3) {
        // Leaves only: the index keeps the departed entries until commit.
        for (NodeSlot slot = 0; slot < capacity; ++slot) {
          if (m.present(slot) && rng.uniform_below(4) == 0) {
            m.leave(slot);
          }
        }
      } else if (op < 7) {
        cohort.clear();
        for (NodeSlot slot = 0; slot < capacity; ++slot) {
          if (!m.present(slot) && rng.uniform_below(3) == 0) {
            cohort.push_back(slot);
          }
        }
        m.join(cohort, rng);
        const bool refresh = op == 6;
        m.commit(refresh);
        drift = refresh ? 0
                        : drift + (size_before + cohort.size() -
                                   m.order_size()) +
                              cohort.size();
      } else {
        const bool refresh = rng.uniform_below(2) == 0;
        m.commit(refresh);
        drift = refresh ? 0 : drift + (size_before - m.order_size());
      }
      if (m.population() > 0) {
        max_drift_over_population = std::max(
            max_drift_over_population, drift / m.population());
      }
      m.audit();
      const std::vector<std::uint64_t> ids = order_ids_of(m);
      std::vector<std::uint64_t> keys = {0, max_id};
      for (int i = 0; i < 24; ++i) {
        keys.push_back(rng.uniform_below(max_id + 1));
      }
      for (int i = 0; i < 8 && !ids.empty(); ++i) {
        const std::uint64_t id = ids[rng.uniform_below(ids.size())];
        keys.push_back(id);
        keys.push_back(id - 1 > max_id ? 0 : id - 1);
        keys.push_back(std::min(id + 1, max_id));
      }
      for (const std::uint64_t key : keys) {
        if (!ids.empty()) {
          const auto it = std::lower_bound(ids.begin(), ids.end(), key);
          const std::uint64_t expected =
              it == ids.end() ? 0
                              : static_cast<std::uint64_t>(it - ids.begin());
          ASSERT_EQ(m.successor_position(key), expected)
              << what << " key=" << key;
        }
        const std::uint64_t other = keys[rng.uniform_below(keys.size())];
        const std::uint64_t lo = std::min(key, other);
        const std::uint64_t hi = std::max(key, other);
        ASSERT_EQ(m.order_range(lo, hi), full_range(ids, lo, hi))
            << what << " range=[" << lo << ", " << hi << "]";
      }
      for (int i = 0; i < 2; ++i) {
        expect_bucket_ranges_match_oracle(m, ids, keys[i + 2], what);
      }
    }
    // The walk reached drift beyond the whole population, where the
    // widened windows clamp to the full array.
    EXPECT_GE(max_drift_over_population, 1u) << "bits=" << bits;
  }
}

TEST(SparseChurn, RepeatedCallsAreIdentical) {
  // The engine only forks the caller's rng, so re-running with the same
  // generator must reproduce the whole trajectory exactly.
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 5};
  const SparseChurnConfig config{
      .bits = 32, .capacity = 1024, .successors = 2, .shortcuts = 4};
  const TrajectoryOptions options{.warmup_rounds = 6,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 500,
                                  .shards = 4};
  const math::Rng rng(23);
  const auto a = run_sparse_churn_trajectory(SparseChurnGeometry::kKademlia,
                                             config, params, options, rng);
  const auto b = run_sparse_churn_trajectory(SparseChurnGeometry::kKademlia,
                                             config, params, options, rng);
  for (std::size_t r = 0; r < a.per_round.size(); ++r) {
    expect_identical(a.per_round[r], b.per_round[r], "repeat");
  }
  expect_identical(a.overall, b.overall, "repeat");
}

TEST(SparseChurn, OverallIsAssociativeMergeOfRounds) {
  const ChurnParams params{.death_per_round = 0.04,
                           .rebirth_per_round = 0.06,
                           .refresh_interval = 4};
  const SparseChurnConfig config{
      .bits = 28, .capacity = 1024, .successors = 2, .shortcuts = 4};
  const TrajectoryOptions options{.warmup_rounds = 5,
                                  .measured_rounds = 5,
                                  .pairs_per_round = 300,
                                  .shards = 4};
  const math::Rng rng(29);
  const auto result = run_sparse_churn_trajectory(
      SparseChurnGeometry::kChord, config, params, options, rng);
  ASSERT_EQ(result.per_round.size(), 5u);

  sparse::SparseEstimate left_fold;
  for (const auto& round : result.per_round) {
    left_fold.merge(round);
  }
  expect_identical(result.overall, left_fold, "left-fold");

  // ((r0+r1) + (r2+r3+r4)) -- a different association of the same rounds.
  sparse::SparseEstimate head;
  head.merge(result.per_round[0]);
  head.merge(result.per_round[1]);
  sparse::SparseEstimate tail;
  tail.merge(result.per_round[2]);
  tail.merge(result.per_round[3]);
  tail.merge(result.per_round[4]);
  sparse::SparseEstimate grouped;
  grouped.merge(head);
  grouped.merge(tail);
  expect_identical(result.overall, grouped, "grouped");
}

TEST(SparseChurn, PerfectStabilityRoutesEverything) {
  // Tiny churn, instant refresh: routability ~ 1 for every geometry.
  const ChurnParams params{.death_per_round = 1e-6,
                           .rebirth_per_round = 0.5,
                           .refresh_interval = 1};
  const SparseChurnConfig config{
      .bits = 20, .capacity = 1024, .successors = 3, .shortcuts = 6};
  const TrajectoryOptions options{.warmup_rounds = 5,
                                  .measured_rounds = 2,
                                  .pairs_per_round = 800,
                                  .shards = 4};
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    const math::Rng rng(9);
    const auto result =
        run_sparse_churn_trajectory(geometry, config, params, options, rng);
    EXPECT_GT(result.overall.routability(), 0.999) << to_string(geometry);
    EXPECT_EQ(result.overall.hop_limit_hits(), 0u) << to_string(geometry);
  }
}

TEST(SparseChurn, WorldsTrackStationaryPopulationAndUniformAges) {
  // a = 0.8; population should hover near a * capacity and entry ages near
  // (R-1)/2 when lifetimes >> R.
  const ChurnParams params{.death_per_round = 0.005,
                           .rebirth_per_round = 0.02,
                           .refresh_interval = 10};
  const SparseChurnConfig config{
      .bits = 32, .capacity = 4096, .successors = 2, .shortcuts = 4};
  const TrajectoryOptions options{.warmup_rounds = 50,
                                  .measured_rounds = 4,
                                  .pairs_per_round = 200,
                                  .shards = 8};
  const math::Rng rng(31);
  const auto result = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options, rng);
  EXPECT_NEAR(result.mean_alive_fraction, 0.8, 0.03);
  EXPECT_NEAR(result.mean_population, 0.8 * 4096, 0.03 * 4096);
  EXPECT_NEAR(result.mean_entry_age, 4.5, 1.0);
}

TEST(SparseChurn, DenseLimitOracleMatchesDenseChurnAndStaticAtEffectiveQ) {
  // The acceptance claim: at full population (capacity = 2^d; join rate =
  // rebirth, leave rate = death at the slot level) the dynamic-membership
  // engine must statistically match (a) the dense ChurnWorld trajectory at
  // the same (pd, pr, R, rho) and (b) the static parallel engine at
  // q_eff -- the PR 2 bridge at d' = log2 N = d.  Join announcement plays
  // the role the dense model gets for free from persistent identities
  // (stale in-edges reviving on rebirth).
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};
  const TrajectoryOptions options{.warmup_rounds = 60,
                                  .measured_rounds = 4,
                                  .pairs_per_round = 1000,
                                  .shards = 8};
  const SparseChurnConfig config{
      .bits = 10, .capacity = 1024, .successors = 0, .shortcuts = 4};
  const math::Rng rng(101);
  const auto sparse_result = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options, rng);
  const sim::IdSpace space(10);
  const auto dense_result =
      run_churn_trajectory(TrajectoryGeometry::kXor, space, params, options,
                           rng);
  EXPECT_NEAR(sparse_result.overall.routability(),
              dense_result.overall.routability(), 0.03);
  // Same slot-level lifecycle chain: alive fractions agree tightly.
  EXPECT_NEAR(sparse_result.mean_alive_fraction,
              dense_result.mean_alive_fraction, 0.01);

  const double q_eff = effective_q(params);
  math::Rng build_rng(44);
  const sim::XorOverlay overlay(space, build_rng);
  math::Rng fail_rng(45);
  const sim::FailureScenario failures(space, q_eff, fail_rng);
  const math::Rng route_rng(46);
  const auto static_estimate = sim::estimate_routability_parallel(
      overlay, failures, {.pairs = 60000}, route_rng);
  EXPECT_NEAR(sparse_result.overall.routability(),
              static_estimate.routability(), 0.04)
      << "q_eff=" << q_eff;

  // Eager repair pushes both engines toward the fully repaired regime.
  TrajectoryOptions repaired = options;
  repaired.repair_probability = 0.7;
  const auto sparse_repaired = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, repaired, rng);
  const auto dense_repaired = run_churn_trajectory(
      TrajectoryGeometry::kXor, space, params, repaired, rng);
  EXPECT_NEAR(sparse_repaired.overall.routability(),
              dense_repaired.overall.routability(), 0.015);
  EXPECT_GT(sparse_repaired.overall.routability(), 0.985);
}

TEST(SparseChurn, SuccessorListsRescueTheRingUnderChurn) {
  // The paper's sequential-neighbors resilience, finally under churn: with
  // heavy turnover and a long refresh interval, bare successor-of-key
  // fingers decay (and without notify a joiner's predecessor is blind to
  // it), while s clockwise successors with per-round list repair keep the
  // ring near-perfectly routable.
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 30};
  const TrajectoryOptions options{.warmup_rounds = 60,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 800,
                                  .shards = 4};
  double previous = -1.0;
  for (const int s : {0, 4, 8}) {
    const SparseChurnConfig config{
        .bits = 32, .capacity = 4096, .successors = s, .shortcuts = 6};
    const auto result = run_sparse_churn_trajectory(
        SparseChurnGeometry::kChord, config, params, options, math::Rng(7));
    EXPECT_GT(result.overall.routability(), previous) << "s=" << s;
    previous = result.overall.routability();
    if (s == 0) {
      EXPECT_LT(result.overall.routability(), 0.6);
    } else {
      EXPECT_GT(result.overall.routability(), 0.9) << "s=" << s;
    }
  }
  EXPECT_GT(previous, 0.98);  // s = 8
}

TEST(SparseChurn, JoinAnnouncementHealsNewcomerBlindness) {
  // Without announcement a joiner is invisible to stale in-edges until
  // their owners refresh (identities never return), so routes toward
  // recent joiners fail -- a dynamic-membership failure mode the dense
  // model cannot express.  Kademlia's deep-bucket inserts must close most
  // of that gap.
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};
  const TrajectoryOptions options{.warmup_rounds = 60,
                                  .measured_rounds = 4,
                                  .pairs_per_round = 1000,
                                  .shards = 8};
  SparseChurnConfig config{
      .bits = 10, .capacity = 1024, .successors = 0, .shortcuts = 4};
  config.announce = 0;
  const auto blind = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options,
      math::Rng(101));
  config.announce = 8;
  const auto announced = run_sparse_churn_trajectory(
      SparseChurnGeometry::kKademlia, config, params, options,
      math::Rng(101));
  EXPECT_GT(announced.overall.routability(),
            blind.overall.routability() + 0.03);
}

TEST(SparseChurn, CollapsedPopulationHonorsEmptyEstimateContract) {
  // The ChurnWorld::measure contract carried over: with fewer than two
  // present nodes there is nothing to sample, so measure returns an empty
  // estimate -- and the world keeps stepping (joins can repopulate it).
  const ChurnParams params{.death_per_round = 0.99,
                           .rebirth_per_round = 0.005,
                           .refresh_interval = 3};
  const SparseChurnConfig config{
      .bits = 8, .capacity = 8, .successors = 2, .shortcuts = 2};
  SparseChurnWorld world(SparseChurnGeometry::kChord, config, params, 0.5, 0,
                         math::Rng(83));
  bool collapsed = false;
  for (int round = 0; round < 300 && !collapsed; ++round) {
    collapsed = world.population() < 2;
    if (!collapsed) {
      world.step();
    }
  }
  ASSERT_TRUE(collapsed) << "population never dropped below 2";
  const auto estimate = world.measure(100);
  EXPECT_EQ(estimate.attempts, 0u);
  EXPECT_EQ(estimate.hops.count(), 0u);
  EXPECT_EQ(estimate.hop_limit_hits(), 0u);
  EXPECT_EQ(estimate.routability(), 0.0);
  // The world must survive further rounds (and possibly repopulate.)
  for (int round = 0; round < 50; ++round) {
    world.step();
  }
  (void)world.measure(50);
}

// Full-field estimate equality, the availability counters included --
// expect_identical covers only the routing side.
void expect_estimates_equal(const sparse::SparseEstimate& a,
                            const sparse::SparseEstimate& b,
                            const std::string& what) {
  expect_identical(a, b, what.c_str());
  EXPECT_EQ(a.gets, b.gets) << what;
  EXPECT_EQ(a.gets_available, b.gets_available) << what;
}

TEST(SparseChurn, BatchedMatchesScalarPerPair) {
  // The tentpole gate: the 8-lane batched sync path (measure) must agree
  // with the scalar reference path (measure_reference) PER PAIR -- not
  // merely in aggregate -- across every geometry, bucket width,
  // successor-list length, replication factor, and a repaired Zipf GET
  // workload.  Two worlds share a seed (identical rng lineage); measuring
  // one pair at a time makes each call's estimate a single pair's outcome,
  // so any kernel divergence pins itself to the exact pair.
  const auto check = [](SparseChurnGeometry geometry,
                        const SparseChurnConfig& config,
                        const ChurnParams& params, double rho,
                        const std::string& what) {
    SparseChurnWorld scalar_world(geometry, config, params, rho, 0,
                                  math::Rng(91));
    SparseChurnWorld batched_world(geometry, config, params, rho, 0,
                                   math::Rng(91));
    for (int round = 0; round < 6; ++round) {
      scalar_world.step();
      batched_world.step();
      for (int pair = 0; pair < 40; ++pair) {
        expect_estimates_equal(scalar_world.measure_reference(1),
                               batched_world.measure(1),
                               what + " round " + std::to_string(round) +
                                   " pair " + std::to_string(pair));
      }
    }
    // The load accounting (bumps per forward, including the bump a
    // dropping hop charges) must agree exactly as well.
    EXPECT_EQ(scalar_world.load_summary(), batched_world.load_summary())
        << what;
  };
  const ChurnParams params{.death_per_round = 0.06,
                           .rebirth_per_round = 0.06,
                           .refresh_interval = 4};
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    for (const int bucket_k : {1, 4}) {
      if (geometry != SparseChurnGeometry::kKademlia && bucket_k != 1) {
        continue;  // bucket width shapes only the kademlia rows
      }
      for (const int successors : {0, 4}) {
        for (const int replicas : {1, 3}) {
          const SparseChurnConfig config{.bits = 16,
                                         .capacity = 600,
                                         .successors = successors,
                                         .shortcuts = 4,
                                         .bucket_k = bucket_k,
                                         .replicas = replicas};
          check(geometry, config, params, 0.0,
                std::string(to_string(geometry)) +
                    " k=" + std::to_string(bucket_k) +
                    " s=" + std::to_string(successors) +
                    " r=" + std::to_string(replicas));
        }
      }
    }
    // Wider key space, Zipf-skewed replicated GETs, and eager repair.
    check(geometry,
          SparseChurnConfig{.bits = 24,
                            .capacity = 900,
                            .successors = 3,
                            .shortcuts = 4,
                            .bucket_k = 2,
                            .replicas = 2,
                            .zipf_s = 0.8},
          ChurnParams{.death_per_round = 0.04,
                      .rebirth_per_round = 0.06,
                      .refresh_interval = 5},
          0.2, std::string(to_string(geometry)) + " zipf repaired");
  }
}

TEST(SparseChurn, BatchedPathHonorsZeroPairAndCollapsedContracts) {
  // The batched driver inherits measure()'s boundary contracts: zero
  // pairs draw nothing (the measurement rng stream must not move), and a
  // collapsed population returns the empty estimate without touching a
  // lane.
  const ChurnParams params{.death_per_round = 0.99,
                           .rebirth_per_round = 0.005,
                           .refresh_interval = 3};
  const SparseChurnConfig config{
      .bits = 8, .capacity = 8, .successors = 2, .shortcuts = 2,
      .replicas = 3};
  SparseChurnWorld world(SparseChurnGeometry::kChord, config, params, 0.0, 0,
                         math::Rng(83));
  world.step();
  const auto none = world.measure(0);
  EXPECT_EQ(none.attempts, 0u);
  EXPECT_EQ(none.gets, 0u);
  // Zero pairs consumed no rng: a twin world that never measured zero
  // pairs produces the same next estimate.
  SparseChurnWorld twin(SparseChurnGeometry::kChord, config, params, 0.0, 0,
                        math::Rng(83));
  twin.step();
  expect_estimates_equal(world.measure(20), twin.measure(20), "zero-pair");
  bool collapsed = false;
  for (int round = 0; round < 300 && !collapsed; ++round) {
    collapsed = world.population() < 2;
    if (!collapsed) {
      world.step();
    }
  }
  ASSERT_TRUE(collapsed) << "population never dropped below 2";
  const auto estimate = world.measure(100);
  EXPECT_EQ(estimate.attempts, 0u);
  EXPECT_EQ(estimate.gets, 0u);
  EXPECT_EQ(estimate.gets_available, 0u);
  EXPECT_EQ(estimate.routability(), 0.0);
}

TEST(SparseChurn, SweepCoversGridInOrderAndIsReproducible) {
  SparseChurnSweepSpec spec;
  spec.geometry = SparseChurnGeometry::kKademlia;
  spec.bits = {24, 32};
  spec.populations = {512};
  spec.churn = {ChurnParams{.death_per_round = 0.02,
                            .rebirth_per_round = 0.08,
                            .refresh_interval = 5}};
  spec.repair = {0.0, 0.8};
  spec.successors = {0, 3};
  spec.options = TrajectoryOptions{.warmup_rounds = 6,
                                   .measured_rounds = 2,
                                   .pairs_per_round = 200,
                                   .shards = 2};
  spec.seed = 7;
  const auto points = run_sparse_churn_sweep(spec);
  ASSERT_EQ(points.size(), 8u);  // 2 bits x 2 repair x 2 successors
  // Nesting order: bits outermost, successors innermost.
  EXPECT_EQ(points[0].bits, 24);
  EXPECT_EQ(points[0].repair_probability, 0.0);
  EXPECT_EQ(points[0].successors, 0);
  EXPECT_EQ(points[1].successors, 3);
  EXPECT_EQ(points[2].repair_probability, 0.8);
  EXPECT_EQ(points[4].bits, 32);
  for (const auto& point : points) {
    EXPECT_EQ(point.population, 512u);
    EXPECT_EQ(point.capacity, capacity_for_population(512, point.params));
    EXPECT_NEAR(point.q_eff, effective_q(point.params), 1e-15);
    EXPECT_EQ(point.result.per_round.size(), 2u);
    EXPECT_GT(point.result.overall.attempts, 0u);
  }
  const auto again = run_sparse_churn_sweep(spec);
  ASSERT_EQ(again.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(points[i].result.overall, again[i].result.overall,
                     "sweep-repeat");
  }
}

TEST(SparseChurn, CapacityForPopulationInvertsAvailability) {
  const ChurnParams params{.death_per_round = 0.02,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 10};  // a = 0.8
  EXPECT_EQ(capacity_for_population(1000, params), 1250u);
  EXPECT_EQ(capacity_for_population(100000, params), 125000u);
  EXPECT_EQ(capacity_for_population(0, params), 2u);
  // Clamped into the membership roster cap instead of throwing mid-sweep.
  EXPECT_EQ(capacity_for_population(60000000, params),
            std::uint64_t{1} << 26);
}

TEST(SparseChurn, RejectsDegenerateInputs) {
  const ChurnParams params{};
  const SparseChurnConfig config{
      .bits = 16, .capacity = 64, .successors = 2, .shortcuts = 2};
  const math::Rng rng(51);
  EXPECT_THROW(run_sparse_churn_trajectory(SparseChurnGeometry::kChord,
                                           config, params,
                                           {.measured_rounds = 0}, rng),
               PreconditionError);
  EXPECT_THROW(run_sparse_churn_trajectory(SparseChurnGeometry::kChord,
                                           config, params,
                                           {.pairs_per_round = 0}, rng),
               PreconditionError);
  EXPECT_THROW(run_sparse_churn_trajectory(SparseChurnGeometry::kChord,
                                           config, params,
                                           {.repair_probability = 1.5}, rng),
               PreconditionError);
  EXPECT_THROW(
      SparseChurnWorld(SparseChurnGeometry::kChord,
                       SparseChurnConfig{.bits = 0, .capacity = 64}, params,
                       0.0, 0, rng),
      PreconditionError);
  EXPECT_THROW(
      SparseChurnWorld(SparseChurnGeometry::kChord,
                       SparseChurnConfig{.bits = 16, .capacity = 1}, params,
                       0.0, 0, rng),
      PreconditionError);
  EXPECT_THROW(
      SparseChurnWorld(SparseChurnGeometry::kChord,
                       SparseChurnConfig{.bits = 4, .capacity = 64}, params,
                       0.0, 0, rng),
      PreconditionError);
  EXPECT_THROW(
      SparseChurnWorld(
          SparseChurnGeometry::kChord,
          SparseChurnConfig{.bits = 16, .capacity = 64, .successors = -1},
          params, 0.0, 0, rng),
      PreconditionError);
  for (const int bad_k : {0, -1, 65}) {
    SparseChurnConfig bad{.bits = 16, .capacity = 64};
    bad.bucket_k = bad_k;
    EXPECT_THROW(SparseChurnWorld(SparseChurnGeometry::kKademlia, bad,
                                  params, 0.0, 0, rng),
                 PreconditionError)
        << "k=" << bad_k;
  }
  {
    SparseChurnConfig bad{.bits = 16, .capacity = 64};
    bad.session = SessionModel{.kind = SessionKind::kPareto,
                               .pareto_alpha = 1.0};
    EXPECT_THROW(SparseChurnWorld(SparseChurnGeometry::kKademlia, bad,
                                  params, 0.0, 0, rng),
                 PreconditionError);
  }
  SparseChurnSweepSpec empty;
  empty.successors.clear();
  EXPECT_THROW(run_sparse_churn_sweep(empty), PreconditionError);
}

TEST(SparseChurn, FootprintMatchesRowLayoutAndRejectsImpossibleConfigs) {
  // Row bytes per slot, charged for every slot of the roster (all present
  // is the worst case): table cells of 16 B (u32 ids) at bits <= 32 and
  // 20 B (u64 ids) above, successor cells of 12 / 16 B, plus 16 B of
  // per-slot scalars -- the row's due round, the list's refresh stamp, the
  // slot -> row map entry and a free-list entry.
  const SparseChurnConfig narrow{
      .bits = 32, .capacity = 1024, .successors = 4, .shortcuts = 4};
  const SparseChurnConfig wide{
      .bits = 33, .capacity = 1024, .successors = 4, .shortcuts = 4};
  EXPECT_EQ(ChurnRows::bytes_for(SparseChurnGeometry::kChord, narrow),
            1024u * (32 * 16 + 4 * 12 + 16));
  EXPECT_EQ(ChurnRows::bytes_for(SparseChurnGeometry::kChord, wide),
            1024u * (33 * 20 + 4 * 16 + 16));
  EXPECT_EQ(ChurnRows::bytes_for(SparseChurnGeometry::kSymphony, narrow),
            1024u * (4 * 16 + 4 * 12 + 16));
  SparseChurnConfig kbuckets = wide;
  kbuckets.bucket_k = 4;
  EXPECT_EQ(ChurnRows::bytes_for(SparseChurnGeometry::kKademlia, kbuckets),
            1024u * (33 * 4 * 20 + 4 * 16 + 16));
  EXPECT_GT(SparseChurnWorld::footprint_bytes(SparseChurnGeometry::kChord,
                                              narrow),
            ChurnRows::bytes_for(SparseChurnGeometry::kChord, narrow));
  // 2^26 slots x 63 x 64 Kademlia cells is terabytes: both entry points
  // reject it before allocating anything (membership included).
  SparseChurnConfig huge{.bits = 63, .capacity = std::uint64_t{1} << 26};
  huge.bucket_k = 64;
  const ChurnParams params{};
  EXPECT_THROW(SparseChurnWorld(SparseChurnGeometry::kKademlia, huge, params,
                                0.0, 0, math::Rng(3)),
               std::invalid_argument);
  EXPECT_THROW(run_sparse_churn_trajectory(SparseChurnGeometry::kKademlia,
                                           huge, params,
                                           {.shards = 1, .threads = 1},
                                           math::Rng(3)),
               std::invalid_argument);
}

TEST(SparseChurn, RowColumnsStartOnHugePages) {
  // Which rows land on whole huge pages follows from the layout alone only
  // when the reservation and every column start on a huge page boundary,
  // wherever the kernel places the mapping.  Row 0 of a column is the
  // column's first byte.
  const common::PageBuffer buffer(5000, common::kHugePageBytes);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.as<char>()) %
                common::kHugePageBytes,
            0u);
  buffer.as<char>()[4999] = 1;
  const SparseChurnConfig config{
      .bits = 32, .capacity = 1000, .successors = 4, .shortcuts = 4};
  for (const SparseChurnGeometry geometry :
       {SparseChurnGeometry::kChord, SparseChurnGeometry::kSymphony}) {
    ChurnRows rows(geometry, config);
    rows.acquire({0});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rows.row_stamps(0)) %
                  common::kHugePageBytes,
              0u);
  }
}

TEST(SparseChurn, GeometryNamesRoundTrip) {
  SparseChurnGeometry geometry = SparseChurnGeometry::kChord;
  for (const char* name : {"ring", "xor", "symphony"}) {
    ASSERT_TRUE(sparse_churn_geometry_from_name(name, geometry)) << name;
    EXPECT_STREQ(to_string(geometry), name);
  }
  EXPECT_FALSE(sparse_churn_geometry_from_name("tree", geometry));
  EXPECT_FALSE(sparse_churn_geometry_from_name("", geometry));
}

}  // namespace
}  // namespace dht::churn
