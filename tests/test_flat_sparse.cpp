// The flattened sparse kernels and the sharded sparse parallel estimator
// (sparse/flat_sparse.hpp): per-pair oracle equality against the virtual
// next_hop path, bit-identical results across thread counts, exact-integer
// merge semantics, and the widened 2^63 key-space range.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_symphony.hpp"

namespace dht::sparse {
namespace {

void expect_identical(const SparseEstimate& a, const SparseEstimate& b,
                      const char* what) {
  EXPECT_EQ(a.attempts, b.attempts) << what;
  EXPECT_EQ(a.hops.count(), b.hops.count()) << what;
  EXPECT_EQ(a.hops.sum(), b.hops.sum()) << what;
  EXPECT_EQ(a.hops.sum_squares(), b.hops.sum_squares()) << what;
  EXPECT_EQ(a.hops.min(), b.hops.min()) << what;
  EXPECT_EQ(a.hops.max(), b.hops.max()) << what;
  EXPECT_EQ(a.hop_limit_hits(), b.hop_limit_hits()) << what;
}

struct Instance {
  std::unique_ptr<SparseIdSpace> space;
  std::unique_ptr<SparseOverlay> overlay;
};

Instance make_instance(const std::string& name, int bits, std::uint64_t n,
                       std::uint64_t seed, int bucket_k = 1) {
  math::Rng rng(seed);
  Instance inst;
  inst.space = std::make_unique<SparseIdSpace>(bits, n, rng);
  if (name == "chord") {
    inst.overlay = std::make_unique<SparseChordOverlay>(*inst.space);
  } else if (name == "kademlia") {
    inst.overlay = std::make_unique<SparseKademliaOverlay>(*inst.space, rng,
                                                           bucket_k);
  } else {
    inst.overlay = std::make_unique<SparseSymphonyOverlay>(*inst.space, 2, 2,
                                                           rng);
  }
  return inst;
}

TEST(FlatSparse, FlatAndGenericEstimatesAreBitIdentical) {
  // All three sparse forwarding rules are rng-free, so the flat and the
  // virtual-dispatch estimator runs consume identical rng streams and must
  // agree field by field.
  for (const std::string name : {"chord", "kademlia", "symphony"}) {
    const auto inst = make_instance(name, 20, 2048, 311);
    math::Rng fail_rng(312);
    const SparseFailure failures(*inst.space, 0.3, fail_rng);
    const math::Rng route_rng(313);
    SparseParallelOptions flat_options{.pairs = 4000, .threads = 2};
    SparseParallelOptions generic_options = flat_options;
    generic_options.use_flat_kernels = false;
    const auto a = estimate_routability_parallel(*inst.overlay, failures,
                                                 flat_options, route_rng);
    const auto b = estimate_routability_parallel(*inst.overlay, failures,
                                                 generic_options, route_rng);
    expect_identical(a, b, name.c_str());
    EXPECT_GT(a.attempts, 0u) << name;
    EXPECT_EQ(a.hop_limit_hits(), 0u) << name;
  }
}

TEST(FlatSparse, BitIdenticalAcrossThreadCounts) {
  for (const std::string name : {"chord", "kademlia", "symphony"}) {
    const auto inst = make_instance(name, 24, 4096, 321);
    math::Rng fail_rng(322);
    const SparseFailure failures(*inst.space, 0.2, fail_rng);
    const math::Rng route_rng(323);
    SparseEstimate reference;
    bool first = true;
    for (unsigned threads : {1u, 2u, 8u}) {
      const SparseParallelOptions options{.pairs = 6000, .threads = threads};
      const auto estimate = estimate_routability_parallel(
          *inst.overlay, failures, options, route_rng);
      if (first) {
        reference = estimate;
        first = false;
        // Sanity floor only (Symphony with kn = ks = 2 sits near 0.4 at
        // q = 0.2); the point of this test is the bit equality below.
        EXPECT_GT(estimate.routability(), 0.25) << name;
      } else {
        expect_identical(reference, estimate, name.c_str());
      }
    }
  }
}

TEST(FlatSparse, RepeatedCallsAreIdentical) {
  // The estimator only forks the caller's rng, so re-running with the same
  // generator must reproduce the estimate exactly.
  const auto inst = make_instance("kademlia", 20, 2048, 331);
  math::Rng fail_rng(332);
  const SparseFailure failures(*inst.space, 0.25, fail_rng);
  const math::Rng route_rng(333);
  const auto a = estimate_routability_parallel(*inst.overlay, failures,
                                               {.pairs = 3000}, route_rng);
  const auto b = estimate_routability_parallel(*inst.overlay, failures,
                                               {.pairs = 3000}, route_rng);
  expect_identical(a, b, "repeat");
}

TEST(FlatSparse, AgreesWithSequentialEstimator) {
  // Different pair sampling (sharded sub-streams vs one stream), same
  // distribution: the parallel estimate must agree statistically with the
  // sequential oracle estimator.
  const auto inst = make_instance("chord", 22, 4096, 341);
  math::Rng fail_rng(342);
  const SparseFailure failures(*inst.space, 0.3, fail_rng);
  math::Rng serial_rng(343);
  const auto serial =
      estimate_routability(*inst.overlay, failures, 20000, serial_rng);
  const math::Rng parallel_rng(344);
  const auto parallel = estimate_routability_parallel(
      *inst.overlay, failures, {.pairs = 20000, .threads = 4}, parallel_rng);
  EXPECT_NEAR(parallel.routability(), serial.routability(), 0.02);
  EXPECT_NEAR(parallel.mean_hops(), serial.mean_hops(), 0.15);
}

TEST(FlatSparse, MergeOfShardsEqualsOnePass) {
  // A deterministic stream of outcomes recorded once sequentially and once
  // split across three shard estimates; merging the shards must reproduce
  // the one-pass accumulator exactly.
  math::Rng rng(77);
  SparseEstimate one_pass;
  SparseEstimate shards[3];
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t kind = rng.uniform_below(10);
    const std::uint64_t hops = rng.uniform_below(20);
    SparseEstimate& shard = shards[i % 3];
    if (kind < 7) {
      one_pass.record_arrival(hops);
      shard.record_arrival(hops);
    } else if (kind < 9) {
      one_pass.record_drop();
      shard.record_drop();
    } else {
      one_pass.record_hop_limit();
      shard.record_hop_limit();
    }
  }
  SparseEstimate merged;
  for (const SparseEstimate& shard : shards) {
    merged.merge(shard);
  }
  expect_identical(one_pass, merged, "merge");

  // Merging an empty estimate is the identity.
  SparseEstimate empty;
  merged.merge(empty);
  expect_identical(one_pass, merged, "merge-empty");
}

TEST(FlatSparse, KBucketCellsAreDistinctAndKOneIsTheSingleContactLayout) {
  // The explicit k = 1 constructor must produce the byte-identical table
  // of the historical single-contact constructor (same rng stream, same
  // layout), and k > 1 cells within a bucket never duplicate a member.
  const std::uint64_t n = 2048;
  math::Rng rng_a(411);
  const SparseIdSpace space_a(20, n, rng_a);
  const SparseKademliaOverlay single(space_a, rng_a);
  math::Rng rng_k1(411);
  const SparseIdSpace space_k1(20, n, rng_k1);
  const SparseKademliaOverlay explicit_k1(space_k1, rng_k1, /*k=*/1);
  EXPECT_EQ(single.contact_table(), explicit_k1.contact_table());
  math::Rng rng_b(411);
  const SparseIdSpace space_b(20, n, rng_b);
  const SparseKademliaOverlay wide(space_b, rng_b, /*k=*/4);
  const int d = space_a.bits();
  for (NodeIndex v = 0; v < n; v += 17) {
    for (int bucket = 1; bucket <= d; ++bucket) {
      for (int cell = 0; cell < 4; ++cell) {
        const auto entry = wide.contact(v, bucket, cell);
        if (!entry.has_value()) {
          continue;
        }
        for (int other = cell + 1; other < 4; ++other) {
          const auto peer = wide.contact(v, bucket, other);
          if (peer.has_value()) {
            EXPECT_NE(*entry, *peer)
                << "node " << v << " bucket " << bucket << " cells " << cell
                << "/" << other;
          }
        }
      }
    }
  }
  // Wider buckets survive failure measurably better: the parallel
  // estimator on the same space and scenario, k = 4 vs k = 1.
  math::Rng fail_rng(412);
  const SparseFailure failures(space_a, 0.5, fail_rng);
  const math::Rng route_rng(413);
  const auto est_single = estimate_routability_parallel(
      single, failures, {.pairs = 8000}, route_rng);
  const auto est_wide = estimate_routability_parallel(
      wide, failures, {.pairs = 8000}, route_rng);
  EXPECT_GT(est_wide.routability(), est_single.routability() + 0.03);
}

// One route's outcome: status and the hops it completed.
struct RouteOutcome {
  sim::RouteStatus status = sim::RouteStatus::kDropped;
  int hops = 0;
};

// Routes one (source, target) pair through the struct-of-arrays batch
// kernels -- lane 0 active, the rest parked -- until the lane terminates,
// mirroring the engine driver's retire logic.
RouteOutcome route_one_batched(const flat::FlatSparseCtx& c,
                               NodeIndex source, NodeIndex target,
                               std::uint64_t max_hops) {
  flat::Lanes b{};
  for (int l = 0; l < flat::Lanes::kLanes; ++l) {
    b.active[l] = 0;
  }
  b.cur[0] = source;
  b.target[0] = target;
  b.target_id[0] = c.ids[target];
  b.dist[0] = (b.target_id[0] - c.ids[source]) & c.key_mask;
  b.hops[0] = 0;
  b.active[0] = 1;
  while (true) {
    switch (c.kind) {
      case flat::SparseKernelKind::kChord:
        flat::step_batch_chord(c, b);
        break;
      case flat::SparseKernelKind::kKademlia:
        flat::step_batch_kademlia(c, b);
        break;
      default:
        flat::step_batch_symphony(c, b);
        break;
    }
    const int hops = static_cast<int>(b.hops[0]);
    if (b.cur[0] == kNoNode) {
      return {sim::RouteStatus::kDropped, hops};
    }
    if (b.cur[0] == b.target[0]) {
      return {sim::RouteStatus::kArrived, hops};
    }
    if (b.hops[0] >= max_hops) {
      return {sim::RouteStatus::kHopLimit, hops};
    }
  }
}

TEST(FlatSparse, BatchKernelsMatchVirtualOraclePerPair) {
  // Same (source, target) under the same scenario: every batch kernel
  // shape -- packed and wide Chord rows, single- and k-contact Kademlia
  // buckets, Symphony -- must agree with the virtual next_hop path on the
  // outcome AND the hop count for every pair, with and without failures.
  // The kernels are replicas, not approximations.
  struct Shape {
    const char* name;
    const char* geometry;
    int bits;
    std::uint64_t n;
    int bucket_k;
  };
  constexpr Shape kShapes[] = {
      {"chord packed", "chord", 22, 3000, 1},
      {"chord wide", "chord", 40, 4096, 1},
      {"kademlia k=1", "kademlia", 22, 3000, 1},
      {"kademlia k=3", "kademlia", 22, 3000, 3},
      {"symphony", "symphony", 22, 3000, 1},
  };
  for (const Shape& shape : kShapes) {
    for (const double q : {0.0, 0.25, 0.3, 0.4}) {
      const std::string what =
          std::string(shape.name) + " q=" + std::to_string(q);
      const auto inst = make_instance(shape.geometry, shape.bits, shape.n,
                                      501, shape.bucket_k);
      math::Rng fail_rng(502);
      const SparseFailure failures(*inst.space, q, fail_rng);
      const auto ctx =
          flat::make_sparse_ctx(*inst.overlay, failures, 0, true);
      ASSERT_NE(ctx.kind, flat::SparseKernelKind::kGeneric) << what;
      if (ctx.kind == flat::SparseKernelKind::kChord) {
        // bits <= 32 selects the packed u64 rows, wider spaces the
        // two-array (progress, finger) shape.
        ASSERT_EQ(ctx.packed != nullptr, shape.bits <= 32) << what;
      }
      if (ctx.kind == flat::SparseKernelKind::kKademlia) {
        ASSERT_EQ(ctx.bucket_k, shape.bucket_k) << what;
        ASSERT_EQ(ctx.row_width, shape.bits * shape.bucket_k) << what;
      }
      const std::uint64_t max_hops = inst.space->node_count();
      math::Rng pair_rng(503);
      for (int i = 0; i < 1500; ++i) {
        const NodeIndex source = failures.sample_alive(pair_rng);
        const NodeIndex target = failures.sample_alive(pair_rng);
        if (target == source) {
          continue;
        }
        const auto batched = route_one_batched(ctx, source, target, max_hops);
        const auto oracle = route(*inst.overlay, failures, source, target);
        if (oracle.has_value()) {
          ASSERT_EQ(batched.status, sim::RouteStatus::kArrived)
              << what << " source=" << source << " target=" << target;
          EXPECT_EQ(batched.hops, *oracle)
              << what << " source=" << source << " target=" << target;
        } else {
          ASSERT_EQ(batched.status, sim::RouteStatus::kDropped)
              << what << " source=" << source << " target=" << target;
        }
      }
    }
  }
}

TEST(FlatSparse, WideKeySpaceRoutesAtSixtyThreeBits) {
  // The widened SparseIdSpace range: 2^16 nodes scattered in a 2^63 key
  // space must construct, route failure-free, and keep O(log N) hop counts
  // (density reduction: behavior depends on N, not the key-space size).
  math::Rng rng(351);
  const SparseIdSpace space(63, 1 << 16, rng);
  EXPECT_EQ(space.bits(), 63);
  EXPECT_EQ(space.key_space_size(), std::uint64_t{1} << 63);
  const SparseChordOverlay overlay(space);
  const SparseFailure none(space, 0.0, rng);
  const math::Rng route_rng(352);
  const auto estimate = estimate_routability_parallel(
      overlay, none, {.pairs = 2000, .threads = 2}, route_rng);
  EXPECT_EQ(estimate.routability(), 1.0);
  EXPECT_EQ(estimate.hop_limit_hits(), 0u);
  EXPECT_LE(estimate.hops.max(), 63u);
}

TEST(FlatSparse, RejectsDegenerateInputs) {
  const auto inst = make_instance("chord", 16, 256, 361);
  math::Rng fail_rng(362);
  const SparseFailure failures(*inst.space, 0.1, fail_rng);
  const math::Rng rng(363);
  EXPECT_THROW(estimate_routability_parallel(*inst.overlay, failures,
                                             {.pairs = 0}, rng),
               PreconditionError);
  math::Rng dead_rng(364);
  const SparseFailure all_dead(*inst.space, 1.0, dead_rng);
  EXPECT_THROW(estimate_routability_parallel(*inst.overlay, all_dead,
                                             {.pairs = 10}, rng),
               PreconditionError);
}

}  // namespace
}  // namespace dht::sparse
