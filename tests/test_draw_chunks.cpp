// The chunked static builders (sim::run_draw_chunks, run_counted_chunks,
// run_node_chunks) against their serial draw order: every table and mask
// byte for byte, and the caller's rng where the serial loop leaves it.
// Dense builders run at d = 12, 15 and 18 (1, 2 and 16 chunks of 2^14
// nodes); sparse builders at populations on either side of a chunk seam,
// at 32 and 63 bits (both route-row shapes).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/failure.hpp"
#include "sim/prefix_table.hpp"
#include "sim/shard_pool.hpp"
#include "sim/symphony_overlay.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_overlay.hpp"
#include "sparse/sparse_space.hpp"
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

// Populations around the 2^14-node seam, and one with a ragged 4th chunk.
constexpr std::uint64_t kSparseNodes[] = {
    kDrawChunkNodes - 1, kDrawChunkNodes, kDrawChunkNodes + 1,
    3 * kDrawChunkNodes + 17};
constexpr int kSparseBits[] = {32, 63};

TEST(DrawChunks, SparseIdSpaceMatchesSerialOracle) {
  // Plus a dense space, so that top-up rounds span several chunks.
  std::vector<std::pair<int, std::uint64_t>> grid = {
      {18, 8 * kDrawChunkNodes}};
  for (const int bits : kSparseBits) {
    for (const std::uint64_t n : kSparseNodes) {
      grid.emplace_back(bits, n);
    }
  }
  for (const auto& [bits, n] : grid) {
    math::Rng built(2700 + n);
    math::Rng serial(2700 + n);
    const sparse::SparseIdSpace space(bits, n, built);
    EXPECT_EQ(space.ids(), sparse::serial_sparse_ids(bits, n, serial))
        << "bits = " << bits << ", n = " << n;
    EXPECT_EQ(built, serial) << "bits = " << bits << ", n = " << n;
  }
}

TEST(DrawChunks, SparseRingRowsMatchOracle) {
  for (const int bits : kSparseBits) {
    for (const std::uint64_t n : kSparseNodes) {
      SCOPED_TRACE(testing::Message() << "bits = " << bits << ", n = " << n);
      math::Rng rng(2710 + n);
      const sparse::SparseIdSpace space(bits, n, rng);
      const sparse::SparseChordOverlay ring(space);
      const sparse::ChordReference ref = sparse::chord_reference(space);
      EXPECT_EQ(static_cast<std::uint64_t>(ring.route_stride()), ref.stride);
      EXPECT_TRUE(std::ranges::equal(ring.route_lens(), ref.lens));
      EXPECT_TRUE(std::ranges::equal(ring.route_packed(), ref.packed));
      EXPECT_TRUE(std::ranges::equal(ring.route_progress(), ref.progress));
      EXPECT_TRUE(std::ranges::equal(ring.route_targets(), ref.targets));
    }
  }
}

TEST(DrawChunks, SparseKademliaMatchesSerialOracle) {
  for (const int bits : kSparseBits) {
    for (const std::uint64_t n : kSparseNodes) {
      math::Rng space_rng(2720 + n);
      const sparse::SparseIdSpace space(bits, n, space_rng);
      for (const int k : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "bits = " << bits << ", n = " << n << ", k = " << k);
        math::Rng built(2730 + n);
        math::Rng serial(2730 + n);
        const sparse::SparseKademliaOverlay overlay(space, built, k);
        EXPECT_TRUE(std::ranges::equal(
            overlay.contact_table(),
            sparse::kademlia_reference(space, serial, k).contacts));
        EXPECT_EQ(built, serial);
      }
    }
  }
}

TEST(DrawChunks, CountedChunksRebuildFromAMispredictedSeam) {
  // One draw per node is predicted, but node `extra` (in chunk 2) draws
  // twice: chunks 0-2 stand, chunks 3-5 start one draw early and are
  // rebuilt in order, and the output and the rng end where the serial
  // loop leaves them.
  const std::uint64_t nodes = 5 * kDrawChunkNodes + 77;
  const std::uint64_t chunks = 6;
  const std::uint64_t extra = 2 * kDrawChunkNodes + 5;
  for (const bool mispredicted : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      math::Rng rng(2740);
      std::vector<std::uint64_t> out(nodes);
      std::atomic<std::uint64_t> fills{0};
      run_counted_chunks(
          nodes,
          [](std::uint64_t begin, std::uint64_t end) { return end - begin; },
          rng,
          [&](std::uint64_t begin, std::uint64_t end, math::Rng& chunk_rng) {
            ++fills;
            for (std::uint64_t v = begin; v < end; ++v) {
              out[v] = chunk_rng.next_u64();
              if (mispredicted && v == extra) {
                out[v] ^= chunk_rng.next_u64();
              }
            }
          },
          threads);
      math::Rng serial(2740);
      for (std::uint64_t v = 0; v < nodes; ++v) {
        std::uint64_t expected = serial.next_u64();
        if (mispredicted && v == extra) {
          expected ^= serial.next_u64();
        }
        ASSERT_EQ(out[v], expected) << "node " << v << ", " << threads
                                    << " threads";
      }
      EXPECT_EQ(rng, serial) << threads << " threads";
      EXPECT_EQ(fills.load(), mispredicted ? chunks + 3 : chunks)
          << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace dht::sim
