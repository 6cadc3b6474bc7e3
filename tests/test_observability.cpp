// The observability layer (src/obs/): failure-taxonomy conservation and
// thread-count bit-identity inside the engines' estimates, phase-profile
// and trace primitives, route-forensics sampling purity, and the
// zero-overhead contract of the disabled path -- attaching profiles,
// traces, or forensics sinks must never change a single counter.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "churn/sparse_trajectory.hpp"
#include "churn/trajectory.hpp"
#include "math/rng.hpp"
#include "obs/failure.hpp"
#include "obs/phase_timer.hpp"
#include "obs/route_trace.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/xor_overlay.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"

namespace dht {
namespace {

using churn::ChurnParams;
using churn::SparseChurnConfig;
using churn::SparseChurnGeometry;
using churn::TrajectoryOptions;

constexpr SparseChurnGeometry kAllGeometries[] = {
    SparseChurnGeometry::kChord, SparseChurnGeometry::kKademlia,
    SparseChurnGeometry::kSymphony};

void expect_conserved(const sparse::SparseEstimate& e, const char* what) {
  EXPECT_EQ(e.attempts, e.hops.count() + e.failures.total()) << what;
}

void expect_identical(const sparse::SparseEstimate& a,
                      const sparse::SparseEstimate& b, const char* what) {
  EXPECT_EQ(a.attempts, b.attempts) << what;
  EXPECT_EQ(a.hops.count(), b.hops.count()) << what;
  EXPECT_EQ(a.hops.sum(), b.hops.sum()) << what;
  EXPECT_TRUE(a.failures == b.failures) << what;
  EXPECT_EQ(a.gets, b.gets) << what;
  EXPECT_EQ(a.gets_available, b.gets_available) << what;
}

// --- Primitive units -----------------------------------------------------

TEST(FailureTaxonomy, RecordMergeTotalAndEquality) {
  obs::FailureTaxonomy a;
  a.record(obs::RouteFailure::kDeadEntry);
  a.record(obs::RouteFailure::kDeadEntry);
  a.record(obs::RouteFailure::kHolderDeparted);
  EXPECT_EQ(a[obs::RouteFailure::kDeadEntry], 2u);
  EXPECT_EQ(a[obs::RouteFailure::kHolderDeparted], 1u);
  EXPECT_EQ(a[obs::RouteFailure::kHopLimit], 0u);
  EXPECT_EQ(a.total(), 3u);

  obs::FailureTaxonomy b;
  b.record(obs::RouteFailure::kHopLimit);
  b.record(obs::RouteFailure::kSuccessorCollapse);
  b.merge(a);
  EXPECT_EQ(b.total(), 5u);
  EXPECT_EQ(b[obs::RouteFailure::kDeadEntry], 2u);
  EXPECT_FALSE(a == b);
  obs::FailureTaxonomy c = b;
  EXPECT_TRUE(b == c);

  EXPECT_STREQ(obs::to_string(obs::RouteFailure::kDeadEntry), "dead_entry");
  EXPECT_STREQ(obs::to_string(obs::RouteFailure::kCacheDeadOwner),
               "cache_dead_owner");
}

TEST(PhaseProfile, TimerAccumulatesAndStopIsIdempotent) {
  obs::PhaseProfile profile;
  obs::Trace trace;
  {
    obs::PhaseTimer timer(&profile, obs::Phase::kRoute, &trace);
    // Busy the scope enough that steady_clock cannot round it to zero.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i) {
      sink = sink + static_cast<std::uint64_t>(i);
    }
    timer.stop();
    timer.stop();  // second stop must not double-add
  }
  EXPECT_GT(profile[obs::Phase::kRoute], 0.0);
  EXPECT_DOUBLE_EQ(profile.total(), profile[obs::Phase::kRoute]);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(std::string(trace.events()[0].name), "route");

  const double once = profile[obs::Phase::kRoute];
  obs::PhaseProfile other;
  other.add(obs::Phase::kMerge, 1.5);
  profile.merge(other);
  EXPECT_DOUBLE_EQ(profile[obs::Phase::kRoute], once);
  EXPECT_DOUBLE_EQ(profile[obs::Phase::kMerge], 1.5);

  // The disabled path: both sinks null, nothing observable happens.
  { obs::PhaseTimer off(nullptr, obs::Phase::kRoute, nullptr); }
}

TEST(RouteTraceSink, StrideSelectionAndRingOverwrite) {
  obs::RouteTraceSink off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.selects(0));
  obs::RouteTrace dropped;
  off.push(std::move(dropped));  // no-op on a disabled sink
  EXPECT_TRUE(off.drain().empty());

  obs::RouteTraceSink sink(/*stride=*/3, /*capacity=*/4);
  EXPECT_TRUE(sink.enabled());
  EXPECT_TRUE(sink.selects(0));
  EXPECT_FALSE(sink.selects(1));
  EXPECT_TRUE(sink.selects(6));

  for (std::uint64_t i = 0; i < 6; ++i) {
    obs::RouteTrace t;
    t.pair_index = i;
    sink.push(std::move(t));
  }
  // Capacity 4, six pushes: the two oldest were overwritten; drain is
  // oldest-first over the survivors.
  const auto drained = sink.drain();
  ASSERT_EQ(drained.size(), 4u);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].pair_index, i + 2);
  }
  EXPECT_TRUE(sink.drain().empty());
}

// --- Conservation: attempts == delivered + classified failures -----------

TEST(TaxonomyConservation, SparseChurnAcrossGeometriesBucketsReplicas) {
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 20};
  std::uint64_t seed = 7001;
  for (const auto geometry : kAllGeometries) {
    for (const int bucket_k : {1, 4}) {
      for (const int replicas : {1, 3}) {
        SparseChurnConfig config{
            .bits = 24, .capacity = 1024, .successors = 3, .shortcuts = 4};
        config.bucket_k = bucket_k;
        config.replicas = replicas;
        if (replicas > 1) {
          config.zipf_s = 1.1;
        }
        const TrajectoryOptions options{.warmup_rounds = 30,
                                        .measured_rounds = 3,
                                        .pairs_per_round = 400,
                                        .shards = 4,
                                        .threads = 2};
        const auto result = run_sparse_churn_trajectory(
            geometry, config, params, options, math::Rng(seed));
        const std::string what =
            "geometry " + std::to_string(static_cast<int>(geometry)) +
            " k " + std::to_string(bucket_k) + " r " +
            std::to_string(replicas);
        ASSERT_GT(result.overall.attempts, 0u) << what;
        expect_conserved(result.overall, what.c_str());
        for (const auto& round : result.per_round) {
          expect_conserved(round, what.c_str());
        }
        // Sync-mode measurement freezes the world per round, so
        // mid-flight departure is impossible by construction.
        EXPECT_EQ(
            result.overall.failures[obs::RouteFailure::kHolderDeparted], 0u)
            << what;
        seed += 11;
      }
    }
  }
}

TEST(TaxonomyConservation, InflightMeasurementClassifiesEveryDrop) {
  // Harsh churn with in-flight measurement: the only mode where
  // holder-departed is reachable -- and conservation must still hold.
  const ChurnParams params{.death_per_round = 0.08,
                           .rebirth_per_round = 0.08,
                           .refresh_interval = 30};
  const SparseChurnConfig config{
      .bits = 24, .capacity = 1024, .successors = 0, .shortcuts = 4};
  TrajectoryOptions options{.warmup_rounds = 40,
                            .measured_rounds = 4,
                            .pairs_per_round = 500,
                            .shards = 4,
                            .threads = 2};
  options.inflight = true;
  const auto result =
      run_sparse_churn_trajectory(SparseChurnGeometry::kKademlia, config,
                                  params, options, math::Rng(8101));
  ASSERT_GT(result.overall.attempts, 0u);
  expect_conserved(result.overall, "inflight");
  ASSERT_GT(result.overall.failures.total(), 0u)
      << "harsh churn must produce some classified failures";
}

TEST(TaxonomyConservation, StaticEnginesUseOnlyStaticCauses) {
  // Dense engine.
  const sim::IdSpace space(9);
  math::Rng build_rng(9301);
  const sim::XorOverlay overlay(space, build_rng);
  math::Rng fail_rng(9302);
  const sim::FailureScenario failures(space, 0.3, fail_rng);
  const auto dense = sim::estimate_routability_parallel(
      overlay, failures, sim::ParallelOptions{.pairs = 4000, .threads = 2},
      math::Rng(9303));
  EXPECT_EQ(dense.routed.trials,
            dense.hops.count() + dense.failures.total());
  EXPECT_EQ(dense.failures[obs::RouteFailure::kHolderDeparted], 0u);
  EXPECT_EQ(dense.failures[obs::RouteFailure::kSuccessorCollapse], 0u);
  EXPECT_EQ(dense.failures[obs::RouteFailure::kCacheDeadOwner], 0u);

  // Sparse static engine, path cache on: every cached owner is alive at
  // build time, so cache-dead-owner stays zero -- the invariant canary.
  math::Rng sparse_rng(9304);
  sparse::SparseIdSpace sparse_space(22, 2000, sparse_rng);
  const sparse::SparseChordOverlay sparse_overlay(sparse_space);
  math::Rng sparse_fail_rng(9305);
  const sparse::SparseFailure sparse_failures(sparse_space, 0.25,
                                              sparse_fail_rng);
  sparse::SparseParallelOptions options{.pairs = 4000, .threads = 2};
  options.workload.zipf_s = 1.1;
  options.workload.cache_entries = 8;
  const auto report = sparse::estimate_workload_parallel(
      sparse_overlay, sparse_failures, options, math::Rng(9306));
  ASSERT_GT(report.estimate.attempts, 0u);
  expect_conserved(report.estimate, "static sparse workload");
  EXPECT_EQ(report.estimate.failures[obs::RouteFailure::kHolderDeparted],
            0u);
  EXPECT_EQ(report.estimate.failures[obs::RouteFailure::kCacheDeadOwner],
            0u);
}

// --- Thread-count bit-identity of the merged counters --------------------

TEST(TaxonomyDeterminism, CountersIdenticalAcrossThreadCounts) {
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 25};
  const SparseChurnConfig config{
      .bits = 24, .capacity = 1024, .successors = 3, .shortcuts = 4};
  for (const bool inflight : {false, true}) {
    std::vector<sparse::SparseEstimate> estimates;
    for (const unsigned threads : {1u, 2u, 8u}) {
      TrajectoryOptions options{.warmup_rounds = 25,
                                .measured_rounds = 3,
                                .pairs_per_round = 400,
                                .shards = 8,
                                .threads = threads};
      options.inflight = inflight;
      const auto result = run_sparse_churn_trajectory(
          SparseChurnGeometry::kChord, config, params, options,
          math::Rng(4242));
      estimates.push_back(result.overall);
    }
    const char* what = inflight ? "inflight" : "sync";
    expect_identical(estimates[0], estimates[1], what);
    expect_identical(estimates[0], estimates[2], what);
  }
}

// --- Route forensics: sampling purity and zero perturbation --------------

TEST(RouteForensics, SamePairsTracedAtAnyThreadCount) {
  const ChurnParams params{.death_per_round = 0.04,
                           .rebirth_per_round = 0.04,
                           .refresh_interval = 15};
  const SparseChurnConfig config{
      .bits = 24, .capacity = 1024, .successors = 3, .shortcuts = 4};
  std::vector<std::vector<obs::RouteTrace>> runs;
  for (const unsigned threads : {1u, 4u}) {
    TrajectoryOptions options{.warmup_rounds = 20,
                              .measured_rounds = 3,
                              .pairs_per_round = 300,
                              .shards = 4,
                              .threads = threads};
    options.trace_routes = 32;
    const auto result = run_sparse_churn_trajectory(
        SparseChurnGeometry::kKademlia, config, params, options,
        math::Rng(5151));
    ASSERT_FALSE(result.traces.empty());
    runs.push_back(result.traces);
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    const obs::RouteTrace& a = runs[0][i];
    const obs::RouteTrace& b = runs[1][i];
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.pair_index, b.pair_index);
    EXPECT_EQ(a.source_slot, b.source_slot);
    EXPECT_EQ(a.source_id, b.source_id);
    EXPECT_EQ(a.target_id, b.target_id);
    EXPECT_EQ(a.status, b.status);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].slot, b.hops[h].slot);
      EXPECT_EQ(a.hops[h].id, b.hops[h].id);
      EXPECT_EQ(a.hops[h].rank, b.hops[h].rank);
      EXPECT_EQ(a.hops[h].gen_ok, b.hops[h].gen_ok);
    }
  }
  // Every traced hop must have passed its generation check (the kernel
  // admissibility invariant the gen_ok bit canaries).
  for (const auto& trace : runs[0]) {
    for (const auto& hop : trace.hops) {
      EXPECT_EQ(hop.gen_ok, 1u);
    }
  }
}

TEST(RouteForensics, AttachingSinksNeverChangesEstimates) {
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 20};
  const SparseChurnConfig config{
      .bits = 24, .capacity = 1024, .successors = 3, .shortcuts = 4};
  const auto run = [&](std::uint64_t trace_routes, obs::PhaseProfile* profile,
                       obs::Trace* trace) {
    TrajectoryOptions options{.warmup_rounds = 20,
                              .measured_rounds = 3,
                              .pairs_per_round = 300,
                              .shards = 4,
                              .threads = 2};
    options.trace_routes = trace_routes;
    options.profile = profile;
    options.trace = trace;
    return run_sparse_churn_trajectory(SparseChurnGeometry::kChord, config,
                                       params, options, math::Rng(6262));
  };
  const auto bare = run(0, nullptr, nullptr);
  obs::PhaseProfile profile;
  obs::Trace trace;
  const auto observed = run(32, &profile, &trace);
  expect_identical(bare.overall, observed.overall,
                   "observability must be a pure side-channel");
  ASSERT_EQ(bare.per_round.size(), observed.per_round.size());
  for (std::size_t i = 0; i < bare.per_round.size(); ++i) {
    expect_identical(bare.per_round[i], observed.per_round[i], "per round");
  }
  // Traced re-routes charge no load: the per-slot load digest is unchanged.
  EXPECT_EQ(bare.load_max, observed.load_max);
  EXPECT_EQ(bare.load_p99, observed.load_p99);
  EXPECT_EQ(bare.load_cv, observed.load_cv);
  EXPECT_TRUE(bare.traces.empty());
  EXPECT_FALSE(observed.traces.empty());
  EXPECT_GT(profile.total(), 0.0);
  EXPECT_GT(profile[obs::Phase::kRoute], 0.0);
  EXPECT_GT(profile[obs::Phase::kWorldBuild], 0.0);
  EXPECT_FALSE(trace.events().empty());
}

TEST(RouteForensics, TraceMatchesTheMeasuredOutcomePerPair) {
  // A trace is the measured route, hop for hop: with a stride-1 sink and
  // one pair per measure() call, each trace's status and hop count must
  // equal the single outcome the estimate recorded for that pair -- an
  // arrival with its hop count, a drop, or a hop-limit hit.
  const ChurnParams params{.death_per_round = 0.1,
                           .rebirth_per_round = 0.1,
                           .refresh_interval = 20};
  for (const SparseChurnGeometry geometry : kAllGeometries) {
    for (const int successors : {0, 3}) {
      const std::string what = std::string(churn::to_string(geometry)) +
                               " s=" + std::to_string(successors);
      const SparseChurnConfig config{.bits = 20,
                                     .capacity = 512,
                                     .successors = successors,
                                     .shortcuts = 4};
      churn::SparseChurnWorld world(geometry, config, params, 0.0, 0,
                                    math::Rng(7373));
      obs::RouteTraceSink sink(/*stride=*/1, /*capacity=*/1);
      world.set_route_trace(&sink, 0);
      std::uint64_t arrivals = 0;
      std::uint64_t drops = 0;
      for (int round = 0; round < 12; ++round) {
        world.step();
        for (int pair = 0; pair < 30; ++pair) {
          const sparse::SparseEstimate e = world.measure(1);
          const std::vector<obs::RouteTrace> traces = sink.drain();
          ASSERT_EQ(e.attempts, 1u) << what;
          ASSERT_EQ(traces.size(), 1u) << what;
          const obs::RouteTrace& trace = traces[0];
          if (e.hops.count() == 1) {
            ++arrivals;
            EXPECT_EQ(trace.status, 0u) << what;
            EXPECT_EQ(trace.hops.size(), e.hops.sum()) << what;
          } else if (e.hop_limit_hits() == 1) {
            EXPECT_EQ(trace.status, 2u) << what;
            EXPECT_EQ(trace.hops.size(), world.capacity()) << what;
          } else {
            ++drops;
            EXPECT_EQ(trace.status, 1u) << what;
          }
        }
      }
      EXPECT_GT(arrivals, 0u) << what;
      EXPECT_GT(drops, 0u) << what;
    }
  }
}

TEST(RouteForensics, InflightModeRejectsTracing) {
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 20};
  const SparseChurnConfig config{
      .bits = 24, .capacity = 512, .successors = 3, .shortcuts = 4};
  TrajectoryOptions options{.warmup_rounds = 5,
                            .measured_rounds = 1,
                            .pairs_per_round = 100,
                            .shards = 2,
                            .threads = 1};
  options.inflight = true;
  options.trace_routes = 8;
  EXPECT_THROW(
      run_sparse_churn_trajectory(SparseChurnGeometry::kChord, config,
                                  params, options, math::Rng(1)),
      PreconditionError);
}

// --- Dense trajectory engine carries the taxonomy too --------------------

TEST(TaxonomyConservation, DenseChurnTrajectory) {
  const ChurnParams params{.death_per_round = 0.05,
                           .rebirth_per_round = 0.05,
                           .refresh_interval = 20};
  const sim::IdSpace space(9);
  const TrajectoryOptions options{.warmup_rounds = 25,
                                  .measured_rounds = 3,
                                  .pairs_per_round = 400,
                                  .shards = 4,
                                  .threads = 2};
  const auto result =
      churn::run_churn_trajectory(churn::TrajectoryGeometry::kXor, space,
                                  params, options, math::Rng(3131));
  ASSERT_GT(result.overall.routed.trials, 0u);
  EXPECT_EQ(result.overall.routed.trials,
            result.overall.hops.count() + result.overall.failures.total());
  EXPECT_EQ(result.overall.failures[obs::RouteFailure::kHolderDeparted],
            0u);
  EXPECT_EQ(result.overall.failures[obs::RouteFailure::kCacheDeadOwner],
            0u);
}

}  // namespace
}  // namespace dht
