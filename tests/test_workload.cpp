// The heavy-traffic workload layer: Zipf object popularity (math/zipf.hpp),
// per-node load accounting (sim/load_stats.hpp + the flat sparse engine),
// finger-path caching, and r-way replication under churn
// (churn/sparse_trajectory.hpp).  The determinism tests mirror
// test_flat_sparse: fixed shards, varying thread counts, exact equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "churn/sparse_trajectory.hpp"
#include "common/check.hpp"
#include "math/rng.hpp"
#include "math/zipf.hpp"
#include "sim/load_stats.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"

namespace dht::sparse {
namespace {

TEST(Zipf, RankFrequencyMatchesTheLaw) {
  // s = 1.0 over 1000 ranks: empirical frequencies of the head ranks must
  // match the analytic pmf, and the rank-frequency ratio f(1)/f(10) must
  // come out ~10 (the log-log slope of -1).
  const math::ZipfSampler zipf(1000, 1.0);
  math::CounterRng rng(42);
  constexpr std::uint64_t kDraws = 400000;
  std::vector<std::uint64_t> counts(1000, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    ++counts[zipf.sample(rng)];
  }
  for (const std::uint64_t rank : {0, 1, 4, 9, 99}) {
    const double expected = zipf.probability(rank) * kDraws;
    EXPECT_NEAR(counts[rank], expected, 5.0 * std::sqrt(expected))
        << "rank " << rank;
  }
  const double ratio = static_cast<double>(counts[0]) /
                       static_cast<double>(counts[9]);
  EXPECT_NEAR(ratio, 10.0, 1.0);
}

TEST(Zipf, ZeroSkewIsUniform) {
  const math::ZipfSampler zipf(64, 0.0);
  for (std::uint64_t r = 0; r < 64; ++r) {
    EXPECT_NEAR(zipf.probability(r), 1.0 / 64.0, 1e-12);
  }
  EXPECT_EQ(zipf.invert(0.0), 0u);
  EXPECT_EQ(zipf.invert(0.999999), 63u);
}

TEST(Zipf, DeterministicAcrossEqualStreams) {
  // Sampling is one uniform01 draw + a pure CDF inversion, so two equal
  // CounterRng streams must reproduce the identical rank sequence.
  const math::ZipfSampler zipf(500, 1.1);
  math::CounterRng a(7);
  math::CounterRng b(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(zipf.sample(a), zipf.sample(b));
  }
}

TEST(LoadSummary, ExactDigestAndFilter) {
  const std::vector<std::uint64_t> loads = {5, 0, 100, 3, 7, 0, 9, 1};
  // Unfiltered: 8 entries, total 125, max 100.
  const sim::LoadSummary all = sim::summarize_load(loads);
  EXPECT_EQ(all.nodes, 8u);
  EXPECT_EQ(all.total, 125u);
  EXPECT_EQ(all.max, 100u);
  EXPECT_NEAR(all.mean, 125.0 / 8.0, 1e-12);
  // Even indices only: {5, 100, 7, 9}.
  const sim::LoadSummary even = sim::summarize_load(
      loads, [](std::size_t i) { return i % 2 == 0; });
  EXPECT_EQ(even.nodes, 4u);
  EXPECT_EQ(even.total, 121u);
  EXPECT_EQ(even.p99, 100u);  // ceil-index p99 of 4 samples = the max
  EXPECT_GT(even.cv, 0.0);
}

TEST(LoadSummary, P99MatchesSortReference) {
  // summarize_load selects the p99 rank; the reference sorts the filtered
  // copy and reads the same ceil-index.  Small value ranges give heavy
  // duplicates, wide ones near-distinct loads (2^58 is the counters'
  // documented ceiling).
  math::CounterRng rng(77);
  for (const std::size_t size : {std::size_t{1}, std::size_t{2},
                                 std::size_t{99}, std::size_t{100},
                                 std::size_t{101}, std::size_t{100000}}) {
    for (const std::uint64_t range : {std::uint64_t{3}, std::uint64_t{1000},
                                      std::uint64_t{1} << 58}) {
      for (const bool filtered : {false, true}) {
        SCOPED_TRACE(testing::Message() << "size=" << size << " range="
                                        << range << " filtered=" << filtered);
        std::vector<std::uint64_t> loads(size);
        for (std::uint64_t& v : loads) {
          v = rng.uniform_below(range);
        }
        // The filter keeps index 0 so no summary is empty.
        const auto include = [filtered](std::size_t i) {
          return !filtered || i % 3 != 1;
        };
        std::vector<std::uint64_t> kept;
        for (std::size_t i = 0; i < size; ++i) {
          if (include(i)) {
            kept.push_back(loads[i]);
          }
        }
        std::sort(kept.begin(), kept.end());
        const std::size_t m = kept.size();
        const sim::LoadSummary summary = sim::summarize_load(loads, include);
        ASSERT_EQ(summary.nodes, m);
        EXPECT_EQ(summary.p99, kept[(m - 1) - (m - 1) / 100]);
        EXPECT_EQ(summary.max, kept.back());
      }
    }
  }
}

// The reference owner map: one binary search per object key, then a
// clockwise walk past dead nodes.  `wrapped` counts keys past the largest
// id and `longest_dead_run` the longest walk.
struct OwnerReference {
  std::vector<NodeIndex> owner;
  std::uint64_t wrapped = 0;
  std::uint64_t longest_dead_run = 0;
};

OwnerReference owner_reference(const SparseIdSpace& space,
                               const SparseFailure& failures,
                               std::uint64_t objects) {
  const std::uint64_t mask = space.key_space_size() - 1;
  OwnerReference ref;
  for (std::uint64_t o = 0; o < objects; ++o) {
    const std::uint64_t key = flat::object_key(mask, o);
    ref.wrapped += key > space.ids().back() ? 1 : 0;
    NodeIndex holder = space.successor_of_key(key);
    std::uint64_t run = 0;
    while (!failures.alive(holder)) {
      holder = space.ring_step(holder, 1);
      ++run;
    }
    ref.longest_dead_run = std::max(ref.longest_dead_run, run);
    ref.owner.push_back(holder);
  }
  return ref;
}

TEST(ObjectOwners, MatchesSuccessorWalkOracle) {
  std::vector<std::pair<int, std::uint64_t>> grid;
  for (const int bits : {8, 20, 32, 63}) {
    for (const std::uint64_t n : {2, 3, 1000}) {
      if (n <= (std::uint64_t{1} << bits)) {
        grid.emplace_back(bits, n);
      }
    }
  }
  grid.emplace_back(8, 256);  // fully populated
  std::uint64_t checked = 0;
  std::uint64_t wrapped = 0;
  std::uint64_t longest_dead_run = 0;
  for (const auto& [bits, n] : grid) {
    for (const double q : {0.0, 0.5, 0.95}) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        math::Rng rng(seed);
        const SparseIdSpace space(bits, n, rng);
        const SparseFailure failures(space, q, rng);
        if (failures.alive_count() < 2) {
          continue;
        }
        for (const std::uint64_t objects :
             {std::uint64_t{1}, failures.alive_count(), 3 * n}) {
          SCOPED_TRACE(testing::Message()
                       << "bits=" << bits << " n=" << n << " q=" << q
                       << " seed=" << seed << " objects=" << objects);
          const OwnerReference ref = owner_reference(space, failures, objects);
          ASSERT_EQ(flat::object_owners(space, failures, objects), ref.owner);
          wrapped += ref.wrapped;
          longest_dead_run = std::max(longest_dead_run, ref.longest_dead_run);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, grid.size() * 3);
  EXPECT_GT(wrapped, 0u);               // keys past the largest id occur
  EXPECT_GE(longest_dead_run, 3u);      // and so do long dead runs
}

struct ChordInstance {
  std::unique_ptr<SparseIdSpace> space;
  std::unique_ptr<SparseChordOverlay> overlay;
};

ChordInstance make_chord(int bits, std::uint64_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  ChordInstance inst;
  inst.space = std::make_unique<SparseIdSpace>(bits, n, rng);
  inst.overlay = std::make_unique<SparseChordOverlay>(*inst.space);
  return inst;
}

SparseParallelOptions workload_options(unsigned threads) {
  SparseParallelOptions options;
  options.pairs = 20000;
  options.threads = threads;
  options.shards = 32;  // fixed: results are a function of (seed, shards)
  options.workload.zipf_s = 1.1;
  options.workload.objects = 2000;
  options.workload.cache_entries = 4;
  options.workload.record_load = true;
  return options;
}

TEST(Workload, BitIdenticalAcrossThreadCounts) {
  const auto inst = make_chord(22, 3000, 901);
  math::Rng fail_rng(902);
  const SparseFailure failures(*inst.space, 0.1, fail_rng);
  const math::Rng engine_rng(903);
  const SparseWorkloadReport one = estimate_workload_parallel(
      *inst.overlay, failures, workload_options(1), engine_rng);
  const SparseWorkloadReport two = estimate_workload_parallel(
      *inst.overlay, failures, workload_options(2), engine_rng);
  const SparseWorkloadReport eight = estimate_workload_parallel(
      *inst.overlay, failures, workload_options(8), engine_rng);
  EXPECT_TRUE(one.estimate == two.estimate);
  EXPECT_TRUE(one.estimate == eight.estimate);
  // Load counters are relaxed atomic adds into one shared array; the
  // summary over them must still be schedule-independent.
  EXPECT_TRUE(one.load == two.load);
  EXPECT_TRUE(one.load == eight.load);
  EXPECT_GT(one.estimate.cache_probes, 0u);
  EXPECT_GT(one.load.total, 0u);
}

TEST(Workload, LoadConservationWithoutFailures) {
  // q = 0, caching off: every sampled route arrives and every forward is
  // counted exactly once, so the total load equals the hop sum.
  const auto inst = make_chord(20, 2000, 911);
  math::Rng fail_rng(912);
  const SparseFailure failures(*inst.space, 0.0, fail_rng);
  SparseParallelOptions options;
  options.pairs = 10000;
  options.shards = 16;
  options.workload.zipf_s = 1.1;
  options.workload.record_load = true;
  const math::Rng engine_rng(913);
  const SparseWorkloadReport report = estimate_workload_parallel(
      *inst.overlay, failures, options, engine_rng);
  EXPECT_EQ(report.estimate.attempts, options.pairs);
  EXPECT_EQ(report.estimate.successes(), options.pairs);
  EXPECT_EQ(report.load.total, report.estimate.hops.sum());
}

TEST(Workload, PathCacheShortensPopularLookups) {
  const auto inst = make_chord(22, 3000, 921);
  math::Rng fail_rng(922);
  const SparseFailure failures(*inst.space, 0.0, fail_rng);
  SparseParallelOptions base;
  base.pairs = 30000;
  base.shards = 16;
  base.workload.zipf_s = 1.2;
  base.workload.objects = 1000;
  SparseParallelOptions cached = base;
  cached.workload.cache_entries = 8;
  const math::Rng engine_rng(923);
  const SparseEstimate plain = estimate_routability_parallel(
      *inst.overlay, failures, base, engine_rng);
  const SparseEstimate with_cache = estimate_routability_parallel(
      *inst.overlay, failures, cached, engine_rng);
  EXPECT_EQ(plain.cache_probes, 0u);
  EXPECT_GT(with_cache.cache_probes, 0u);
  // Skewed popularity keeps hitting the same head objects: the per-shard
  // caches warm quickly and a sizable fraction of probes must hit.
  EXPECT_GT(with_cache.cache_hit_rate(), 0.10);
  // A hit short-circuits the remaining route to a single forward, so the
  // mean hop count strictly improves.
  EXPECT_LT(with_cache.mean_hops(), plain.mean_hops());
  // Caching never changes what is routable (q = 0: everything arrives).
  EXPECT_EQ(with_cache.successes(), with_cache.attempts);
}

TEST(Workload, ZipfSkewConcentratesLoad) {
  const auto inst = make_chord(22, 3000, 931);
  math::Rng fail_rng(932);
  const SparseFailure failures(*inst.space, 0.0, fail_rng);
  SparseParallelOptions uniform;
  uniform.pairs = 30000;
  uniform.shards = 16;
  uniform.workload.record_load = true;  // uniform pairs, load only
  SparseParallelOptions skewed = uniform;
  skewed.workload.zipf_s = 1.4;
  skewed.workload.objects = 1000;
  const math::Rng engine_rng(933);
  const SparseWorkloadReport flat_load = estimate_workload_parallel(
      *inst.overlay, failures, uniform, engine_rng);
  const SparseWorkloadReport hot_load = estimate_workload_parallel(
      *inst.overlay, failures, skewed, engine_rng);
  // Popular objects hammer their owners: the load distribution under Zipf
  // must be visibly more imbalanced than under uniform pairs.
  EXPECT_GT(hot_load.load.cv, flat_load.load.cv);
  EXPECT_GT(hot_load.load.max, flat_load.load.max);
}

// Exact counters of one Zipf GET configuration, recorded before the path
// caches were pooled.  Shards reuse each other's cache buffers, so a slot
// a shard fails to empty leaks into the next shard and moves cache_hits.
struct PinnedWorkload {
  std::uint64_t shards;
  std::uint64_t hop_count;
  std::uint64_t hop_sum;
  std::uint64_t hop_sum_squares;
  std::uint64_t hop_max;
  std::uint64_t dead_entry;
  std::uint64_t cache_probes;
  std::uint64_t cache_hits;
  std::uint64_t load_max;
  std::uint64_t load_p99;
  double load_mean;
  double load_cv;
};

TEST(Workload, PinnedCountersAcrossCacheReuse) {
  // At 64 shards every shard fills more than 1/16 of its cache and resets
  // it by a full refill; at 256 shards every shard resets through its log
  // of first fills.
  const PinnedWorkload pinned[] = {
      {64, 19288, 96881, 550385, 11, 712, 101589, 7054, 445, 177,
       37.892204401342781, 0.98953863768536687},
      {256, 18956, 99378, 582032, 12, 1044, 106394, 3344, 584, 208,
       39.684446102200674, 1.0952916712369885},
  };
  const auto inst = make_chord(22, 3000, 1301);
  math::Rng fail_rng(1302);
  const SparseFailure failures(*inst.space, 0.1, fail_rng);
  ASSERT_EQ(failures.alive_count(), 2681u);
  for (const PinnedWorkload& want : pinned) {
    for (const unsigned threads : {1u, 3u, 8u}) {
      SparseParallelOptions options;
      options.pairs = 20000;
      options.threads = threads;
      options.shards = want.shards;
      options.workload.zipf_s = 1.1;
      options.workload.cache_entries = 4;
      options.workload.record_load = true;
      for (int call = 0; call < 2; ++call) {  // back-to-back calls
        SCOPED_TRACE(testing::Message() << "shards=" << want.shards
                                        << " threads=" << threads
                                        << " call=" << call);
        const SparseWorkloadReport report = estimate_workload_parallel(
            *inst.overlay, failures, options, math::Rng(1303));
        const SparseEstimate& e = report.estimate;
        EXPECT_EQ(e.attempts, 20000u);
        EXPECT_EQ(e.hops.count(), want.hop_count);
        EXPECT_EQ(e.hops.sum(), want.hop_sum);
        EXPECT_EQ(static_cast<std::uint64_t>(e.hops.sum_squares()),
                  want.hop_sum_squares);
        EXPECT_EQ(e.hops.min(), 1u);
        EXPECT_EQ(e.hops.max(), want.hop_max);
        EXPECT_EQ(e.failures[obs::RouteFailure::kDeadEntry], want.dead_entry);
        EXPECT_EQ(e.failures.total(), want.dead_entry);
        EXPECT_EQ(e.cache_probes, want.cache_probes);
        EXPECT_EQ(e.cache_hits, want.cache_hits);
        EXPECT_EQ(report.load.nodes, 2681u);
        EXPECT_EQ(report.load.total, want.cache_probes);
        EXPECT_EQ(report.load.max, want.load_max);
        EXPECT_EQ(report.load.p99, want.load_p99);
        EXPECT_DOUBLE_EQ(report.load.mean, want.load_mean);
        EXPECT_DOUBLE_EQ(report.load.cv, want.load_cv);
      }
    }
  }
}

// Drops every message; enough for calls rejected before any routing.
class NullOverlay final : public SparseOverlay {
 public:
  explicit NullOverlay(const SparseIdSpace& space) : space_(space) {}
  std::string_view name() const noexcept override { return "null"; }
  const SparseIdSpace& space() const noexcept override { return space_; }
  std::optional<NodeIndex> next_hop(NodeIndex, NodeIndex,
                                    const SparseFailure&) const override {
    return std::nullopt;
  }

 private:
  const SparseIdSpace& space_;
};

TEST(Workload, RejectsOversizedPathCaches) {
  const auto inst = make_chord(22, 3000, 941);
  math::Rng fail_rng(942);
  const SparseFailure failures(*inst.space, 0.0, fail_rng);
  SparseParallelOptions options;
  options.pairs = 100;
  options.threads = 1;
  options.workload.cache_entries =
      SparseWorkloadOptions::kMaxCacheEntries + 1;
  EXPECT_THROW(estimate_workload_parallel(*inst.overlay, failures, options,
                                          math::Rng(943)),
               PreconditionError);
  options.workload.cache_entries = -1;
  EXPECT_THROW(estimate_workload_parallel(*inst.overlay, failures, options,
                                          math::Rng(943)),
               PreconditionError);
  options.workload.cache_entries = SparseWorkloadOptions::kMaxCacheEntries;
  EXPECT_NO_THROW(estimate_workload_parallel(*inst.overlay, failures,
                                             options, math::Rng(943)));
  // 2^19 + 1 nodes x 1024 slots x 8 bytes is just over the 4 GiB cap.
  math::Rng big_rng(944);
  const SparseIdSpace big(32, (std::uint64_t{1} << 19) + 1, big_rng);
  const SparseFailure big_failures(big, 0.0, big_rng);
  EXPECT_THROW(estimate_workload_parallel(NullOverlay(big), big_failures,
                                          options, math::Rng(945)),
               PreconditionError);
}

TEST(Workload, RejectsAnOverlayWithNoKernel) {
  // The parallel estimator routes only through the flat kernels, so an
  // overlay type without one is refused rather than routed another way.
  const auto inst = make_chord(22, 3000, 951);
  math::Rng fail_rng(952);
  const SparseFailure failures(*inst.space, 0.0, fail_rng);
  EXPECT_THROW(estimate_routability_parallel(NullOverlay(*inst.space),
                                             failures,
                                             {.pairs = 100, .threads = 1},
                                             math::Rng(953)),
               PreconditionError);
}

churn::TrajectoryOptions churn_options(unsigned threads) {
  churn::TrajectoryOptions options;
  options.warmup_rounds = 12;
  options.measured_rounds = 6;
  options.pairs_per_round = 1500;
  options.shards = 4;
  options.threads = threads;
  return options;
}

TEST(ChurnReplication, AvailabilityDominatesRoutability) {
  churn::SparseChurnConfig config;
  config.bits = 24;
  config.capacity = std::uint64_t{1} << 10;
  config.zipf_s = 0.8;
  const churn::ChurnParams params;  // pd .01, pr .05, R 10
  const math::Rng rng(941);

  config.replicas = 1;
  const churn::SparseChurnResult r1 = churn::run_sparse_churn_trajectory(
      churn::SparseChurnGeometry::kChord, config, params, churn_options(0),
      rng);
  config.replicas = 4;
  const churn::SparseChurnResult r4 = churn::run_sparse_churn_trajectory(
      churn::SparseChurnGeometry::kChord, config, params, churn_options(0),
      rng);

  // Every measured lookup is a GET.
  EXPECT_EQ(r1.overall.gets, r1.overall.attempts);
  EXPECT_EQ(r4.overall.gets, r4.overall.attempts);
  // A GET succeeds whenever its primary route does -- and possibly via a
  // replica besides.
  EXPECT_GE(r1.overall.availability(), r1.overall.routability());
  EXPECT_GE(r4.overall.availability(), r4.overall.routability());
  // Three extra replicas must recover a strictly positive fraction of the
  // primary-route failures at these churn rates.
  EXPECT_GT(r4.overall.availability(), r1.overall.availability());
  // Load accounting rode along.
  EXPECT_GT(r4.load_max, 0u);
  EXPECT_GT(r4.load_p99, 0.0);
}

TEST(ChurnReplication, BitIdenticalAcrossThreadCounts) {
  churn::SparseChurnConfig config;
  config.bits = 24;
  config.capacity = std::uint64_t{1} << 10;
  config.replicas = 3;
  config.zipf_s = 1.1;
  const churn::ChurnParams params;
  const math::Rng rng(951);
  const churn::SparseChurnResult one = churn::run_sparse_churn_trajectory(
      churn::SparseChurnGeometry::kChord, config, params, churn_options(1),
      rng);
  const churn::SparseChurnResult four = churn::run_sparse_churn_trajectory(
      churn::SparseChurnGeometry::kChord, config, params, churn_options(4),
      rng);
  EXPECT_TRUE(one.overall == four.overall);
  EXPECT_EQ(one.overall.gets_available, four.overall.gets_available);
  EXPECT_EQ(one.load_max, four.load_max);
  EXPECT_EQ(one.load_p99, four.load_p99);
  EXPECT_EQ(one.load_cv, four.load_cv);
}

}  // namespace
}  // namespace dht::sparse
