// The chunked static builders (sim::run_draw_chunks) against their serial
// draw order: every table and mask byte for byte, and the caller's rng
// where the serial loop leaves it, at d = 12, 15 and 18 (1, 2 and 16
// chunks of 2^14 nodes).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/failure.hpp"
#include "sim/prefix_table.hpp"
#include "sim/shard_pool.hpp"
#include "sim/symphony_overlay.hpp"
#include "sparse/sparse_overlay.hpp"
#include "support/oracles.hpp"

namespace dht::sim {
namespace {

constexpr int kBits[] = {12, 15, 18};

TEST(DrawChunks, PrefixTableMatchesSerialOracle) {
  for (const int d : kBits) {
    math::Rng built(2610 + d);
    math::Rng serial(2610 + d);
    const PrefixTable table(IdSpace(d), built);
    EXPECT_EQ(table.rows(), serial_prefix_rows(d, serial)) << "d = " << d;
    EXPECT_EQ(built, serial) << "d = " << d;
  }
}

TEST(DrawChunks, RandomizedChordMatchesSerialOracle) {
  for (const int d : kBits) {
    math::Rng built(2620 + d);
    math::Rng serial(2620 + d);
    const ChordOverlay ring(IdSpace(d), built, ChordFingers::kRandomized);
    EXPECT_EQ(ring.finger_table(), serial_chord_rows(d, serial))
        << "d = " << d;
    EXPECT_EQ(built, serial) << "d = " << d;
  }
}

TEST(DrawChunks, SymphonyMatchesSerialOracle) {
  for (const int d : kBits) {
    for (const int ks : {1, 3}) {
      math::Rng built(2630 + d);
      math::Rng serial(2630 + d);
      const SymphonyOverlay symphony(IdSpace(d), 1, ks, built);
      EXPECT_EQ(symphony.shortcut_table(),
                serial_symphony_shortcuts(d, ks, serial))
          << "d = " << d << ", ks = " << ks;
      EXPECT_EQ(built, serial) << "d = " << d << ", ks = " << ks;
    }
  }
}

TEST(DrawChunks, FailureMasksMatchSerialOracle) {
  for (const int d : kBits) {
    const std::uint64_t n = std::uint64_t{1} << d;
    math::Rng space_rng(2640 + d);
    const sparse::SparseIdSpace sparse_space(32, n, space_rng);
    for (const double q : {0.0, 0.1, 1.0}) {
      math::Rng serial(2650 + d);
      const std::vector<std::uint64_t> expected =
          serial_alive_bits(n, q, serial);
      if (q == 0.0 || q == 1.0) {
        EXPECT_EQ(serial, math::Rng(2650 + d)) << "q = " << q;
      }

      math::Rng dense_rng(2650 + d);
      const FailureScenario dense(IdSpace(d), q, dense_rng);
      EXPECT_EQ(std::vector<std::uint64_t>(dense.alive_bits(),
                                           dense.alive_bits() + n / 64),
                expected)
          << "d = " << d << ", q = " << q;
      EXPECT_EQ(dense_rng, serial) << "d = " << d << ", q = " << q;

      math::Rng sparse_rng(2650 + d);
      const sparse::SparseFailure sparse(sparse_space, q, sparse_rng);
      EXPECT_EQ(std::vector<std::uint64_t>(sparse.alive_bits(),
                                           sparse.alive_bits() + n / 64),
                expected)
          << "d = " << d << ", q = " << q;
      EXPECT_EQ(sparse_rng, serial) << "d = " << d << ", q = " << q;
      EXPECT_EQ(sparse.alive_count(), dense.alive_count());
    }
  }
}

// One raw draw per node into out[v], across a ragged last chunk.
std::vector<std::uint64_t> draw_per_node(std::uint64_t nodes,
                                         unsigned threads, math::Rng& rng) {
  std::vector<std::uint64_t> out(nodes);
  run_draw_chunks(
      nodes, 1, rng,
      [&](std::uint64_t begin, std::uint64_t end, math::Rng& chunk_rng) {
        for (std::uint64_t v = begin; v < end; ++v) {
          out[v] = chunk_rng.next_u64();
        }
      },
      threads);
  return out;
}

TEST(DrawChunks, WorkerCountDoesNotChangeOutput) {
  const std::uint64_t nodes = 5 * kDrawChunkNodes + 77;
  math::Rng one(2660);
  math::Rng four(2660);
  math::Rng serial(2660);
  const std::vector<std::uint64_t> on_one = draw_per_node(nodes, 1, one);
  EXPECT_EQ(draw_per_node(nodes, 4, four), on_one);
  EXPECT_EQ(four, one);
  for (const std::uint64_t value : on_one) {
    ASSERT_EQ(value, serial.next_u64());
  }
  EXPECT_EQ(one, serial);
}

TEST(DrawChunks, WrongDrawCountThrowsAtSeam) {
  // Declares one draw per node but makes two: every seam is off, and a
  // single chunk's end is checked against the full count too.
  for (const std::uint64_t nodes : {std::uint64_t{100}, 3 * kDrawChunkNodes}) {
    for (const unsigned threads : {1u, 4u}) {
      math::Rng rng(2670);
      EXPECT_THROW(run_draw_chunks(
                       nodes, 1, rng,
                       [](std::uint64_t begin, std::uint64_t end,
                          math::Rng& chunk_rng) {
                         for (std::uint64_t v = begin; v < end; ++v) {
                           (void)chunk_rng.next_u64();
                           (void)chunk_rng.next_u64();
                         }
                       },
                       threads),
                   PreconditionError)
          << nodes << " nodes, " << threads << " threads";
    }
  }
  // Declares two but makes one.
  math::Rng rng(2671);
  EXPECT_THROW(run_draw_chunks(2 * kDrawChunkNodes, 2, rng,
                               [](std::uint64_t, std::uint64_t,
                                  math::Rng& chunk_rng) {
                                 (void)chunk_rng.next_u64();
                               }),
               PreconditionError);
}

}  // namespace
}  // namespace dht::sim
