#include "sim/repair.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht::sim {
namespace {

TEST(Repair, ZeroProbabilityLeavesTableUntouched) {
  const IdSpace space(8);
  math::Rng rng(1);
  const PrefixTable original(space, rng);
  math::Rng fail_rng(2);
  const FailureScenario failures(space, 0.4, fail_rng);
  math::Rng repair_rng(3);
  const auto repaired =
      repair_prefix_table(original, space, failures, 0.0, repair_rng);
  EXPECT_EQ(repaired->rows(), original.rows());
}

TEST(Repair, RepairedEntriesStayInTheirClass) {
  const IdSpace space(8);
  math::Rng rng(4);
  const PrefixTable original(space, rng);
  math::Rng fail_rng(5);
  const FailureScenario failures(space, 0.5, fail_rng);
  math::Rng repair_rng(6);
  // A packed row holds only the member index, so the class constraint
  // holds by construction; spot-check the node ids anyway.
  const auto repaired =
      repair_prefix_table(original, space, failures, 1.0, repair_rng);
  for (NodeId v = 0; v < space.size(); v += 17) {
    for (int level = 1; level <= space.bits(); ++level) {
      const NodeId entry = repaired->neighbor(v, level);
      EXPECT_TRUE(shares_prefix(v, entry, level - 1, space.bits()));
      EXPECT_NE(bit_at_level(v, level, space.bits()),
                bit_at_level(entry, level, space.bits()));
    }
  }
}

TEST(Repair, FullRepairLeavesOnlyDeadClassesDead) {
  const IdSpace space(8);
  math::Rng rng(7);
  const PrefixTable original(space, rng);
  math::Rng fail_rng(8);
  const FailureScenario failures(space, 0.4, fail_rng);
  math::Rng repair_rng(9);
  const auto repaired =
      repair_prefix_table(original, space, failures, 1.0, repair_rng);
  const int d = space.bits();
  for (NodeId v = 0; v < space.size(); ++v) {
    for (int level = 1; level <= d; ++level) {
      const NodeId entry = repaired->neighbor(v, level);
      if (failures.alive(entry)) {
        continue;
      }
      // A dead entry after full repair means its whole class is dead.
      const int suffix_bits = d - level;
      const NodeId base = (flip_level(v, level, d) >> suffix_bits)
                          << suffix_bits;
      for (std::uint64_t offset = 0;
           offset < (std::uint64_t{1} << suffix_bits); ++offset) {
        EXPECT_FALSE(failures.alive(base + offset))
            << "v=" << v << " level=" << level;
      }
    }
  }
}

TEST(Repair, AliveEntriesAreNeverChanged) {
  const IdSpace space(8);
  math::Rng rng(10);
  const PrefixTable original(space, rng);
  math::Rng fail_rng(11);
  const FailureScenario failures(space, 0.3, fail_rng);
  math::Rng repair_rng(12);
  const auto repaired =
      repair_prefix_table(original, space, failures, 1.0, repair_rng);
  for (NodeId v = 0; v < space.size(); ++v) {
    for (int level = 1; level <= space.bits(); ++level) {
      const NodeId before = original.neighbor(v, level);
      if (failures.alive(before)) {
        EXPECT_EQ(repaired->neighbor(v, level), before);
      }
    }
  }
}

TEST(Repair, RoutabilityImprovesMonotonically) {
  const IdSpace space(12);
  math::Rng rng(13);
  const PrefixTable original(space, rng);
  math::Rng fail_rng(14);
  const FailureScenario failures(space, 0.3, fail_rng);

  double previous = -1.0;
  for (double rho : {0.0, 0.5, 1.0}) {
    math::Rng repair_rng(15);
    const auto repaired =
        repair_prefix_table(original, space, failures, rho, repair_rng);
    const TreeOverlay overlay(space, repaired);
    math::Rng route_rng(16);
    const double r =
        estimate_routability_parallel(overlay, failures, {.pairs = 20000},
                                      route_rng)
            .routability();
    EXPECT_GT(r, previous) << "rho=" << rho;
    previous = r;
  }
  // Full repair recovers essentially all routability: the only residual
  // failures are whole-class die-offs, too rare to show up in 20k samples
  // at this q (the benchmark quantifies them across the full q range).
  EXPECT_GT(previous, 0.95);
}

TEST(Repair, FullyRepairedTreeApproachesEffectiveQModel) {
  // With rho = 1 only the deepest classes stay dead; the effective
  // per-level failure q_eff(i) = q * q^{2^{d-i}-1} is essentially q for
  // level d and ~0 elsewhere, so failed paths ~ the fraction of pairs
  // needing a level-d correction times q.  Just sanity-check the order of
  // magnitude here; the benchmark prints the full curves.
  const IdSpace space(12);
  math::Rng rng(17);
  const PrefixTable original(space, rng);
  const double q = 0.2;
  math::Rng fail_rng(18);
  const FailureScenario failures(space, q, fail_rng);
  math::Rng repair_rng(19);
  const auto repaired =
      repair_prefix_table(original, space, failures, 1.0, repair_rng);
  const XorOverlay overlay(space, repaired);
  math::Rng route_rng(20);
  const double failed =
      estimate_routability_parallel(overlay, failures, {.pairs = 20000},
                                    route_rng)
          .failed_fraction();
  // Static XOR at q = 0.2 fails ~17% of paths (measured, d = 12); full
  // repair must crush that by an order of magnitude.
  EXPECT_LT(failed, 0.03);
}

TEST(Repair, ForkOverloadIsAPureFunctionOfLineageAndStream) {
  // The forkable-stream overload never advances the caller's generator, so
  // the repaired table is a pure function of (rng lineage, stream id):
  // repeated calls are identical, and the result equals forking by hand and
  // using the mutable-rng overload.
  const IdSpace space(8);
  math::Rng rng(30);
  const PrefixTable original(space, rng);
  math::Rng fail_rng(31);
  const FailureScenario failures(space, 0.4, fail_rng);
  const math::Rng repair_rng(32);

  const auto a =
      repair_prefix_table(original, space, failures, 0.7, repair_rng, 5);
  const auto b =
      repair_prefix_table(original, space, failures, 0.7, repair_rng, 5);
  EXPECT_EQ(a->rows(), b->rows());

  math::Rng manual = repair_rng.fork(5);
  const auto by_hand =
      repair_prefix_table(original, space, failures, 0.7, manual);
  EXPECT_EQ(a->rows(), by_hand->rows());
}

TEST(Repair, ForkOverloadStreamsAreDecorrelated) {
  // Distinct stream ids repair from decorrelated streams; at rho = 1 and
  // q = 0.5 nearly every node has dead entries with multi-member classes,
  // so two streams must disagree somewhere.
  const IdSpace space(8);
  math::Rng rng(33);
  const PrefixTable original(space, rng);
  math::Rng fail_rng(34);
  const FailureScenario failures(space, 0.5, fail_rng);
  const math::Rng repair_rng(35);
  const auto s0 =
      repair_prefix_table(original, space, failures, 1.0, repair_rng, 0);
  const auto s1 =
      repair_prefix_table(original, space, failures, 1.0, repair_rng, 1);
  EXPECT_NE(s0->rows(), s1->rows());
}

TEST(Repair, ForkOverloadChecksPreconditions) {
  const IdSpace space(6);
  math::Rng rng(36);
  const PrefixTable table(space, rng);
  const FailureScenario failures = FailureScenario::all_alive(space);
  const math::Rng repair_rng(37);
  EXPECT_THROW(
      repair_prefix_table(table, space, failures, -0.1, repair_rng, 0),
      PreconditionError);
  EXPECT_THROW(
      repair_prefix_table(table, space, failures, 1.1, repair_rng, 0),
      PreconditionError);
}

TEST(Repair, RejectsBadArguments) {
  const IdSpace space(6);
  math::Rng rng(21);
  const PrefixTable table(space, rng);
  const FailureScenario failures = FailureScenario::all_alive(space);
  math::Rng repair_rng(22);
  EXPECT_THROW(
      repair_prefix_table(table, space, failures, -0.1, repair_rng),
      PreconditionError);
  EXPECT_THROW(repair_prefix_table(table, space, failures, 1.1, repair_rng),
               PreconditionError);
}

}  // namespace
}  // namespace dht::sim
