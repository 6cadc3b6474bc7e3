#include "churn/trajectory.hpp"

#include <utility>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace dht::churn {

void validate_trajectory_options(const TrajectoryOptions& options) {
  DHT_CHECK(options.warmup_rounds >= 0, "warmup rounds must be >= 0");
  DHT_CHECK(options.measured_rounds >= 1,
            "at least one round must be measured");
  DHT_CHECK(options.pairs_per_round > 0,
            "at least one pair must be sampled per round");
  DHT_CHECK(options.repair_probability >= 0.0 &&
                options.repair_probability <= 1.0,
            "repair probability must be in [0, 1]");
}

TrajectoryResult run_churn_trajectory(TrajectoryGeometry geometry,
                                      const sim::IdSpace& space,
                                      const ChurnParams& params,
                                      const TrajectoryOptions& options,
                                      const math::Rng& rng) {
  validate_trajectory_options(options);
  DHT_CHECK(!options.inflight,
            "in-flight measurement is a sparse-churn mode (dense rosters "
            "freeze between rounds)");
  DHT_CHECK(options.trace_routes == 0,
            "route forensics is a sparse-churn sync-mode feature (the "
            "dense engine has no slot/generation hop records)");
  // Lifecycle domains are validated by the ChurnWorld constructor
  // (common/check.hpp); run them up front so a bad grid point throws
  // before any shard spins up a world.
  (void)availability(params);

  const std::uint64_t shards =
      options.shards != 0 ? options.shards : kDefaultTrajectoryShards;
  const int rounds = options.measured_rounds;
  std::vector<std::vector<sim::RoutabilityEstimate>> shard_rounds(shards);
  std::vector<double> alive_sum(shards, 0.0);
  std::vector<double> age_sum(shards, 0.0);
  // Timing side-channel only: per-shard profiles are reduced in shard
  // order below, and a null profile/trace reads no clock anywhere.
  const bool observed = options.profile != nullptr || options.trace != nullptr;
  std::vector<obs::PhaseProfile> shard_profiles(observed ? shards : 0);

  sim::run_sharded(
      shards,
      sim::PoolOptions{.threads = sim::resolve_threads(options.threads),
                       // Replica worlds are heavy; claim one at a time so
                       // the tail load-balances.
                       .chunk = 1},
      [&](std::uint64_t s) {
        obs::PhaseProfile* const profile =
            observed ? &shard_profiles[s] : nullptr;
        // Shard s is an independent replica of the whole trajectory, a pure
        // function of (caller seed, s).  Its world is allocated here, on
        // the worker that runs it.
        obs::PhaseTimer build_timer(profile, obs::Phase::kWorldBuild,
                                    options.trace);
        ChurnWorld world(geometry, space, params, options.repair_probability,
                         options.max_hops, rng.fork(s));
        build_timer.stop();
        world.set_observer(profile, options.trace);
        for (int i = 0; i < options.warmup_rounds; ++i) {
          world.step();
        }
        auto& mine = shard_rounds[s];
        mine.reserve(static_cast<std::size_t>(rounds));
        for (int r = 0; r < rounds; ++r) {
          world.step();
          mine.push_back(world.measure(options.pairs_per_round));
          alive_sum[s] += world.alive_fraction();
          age_sum[s] += world.mean_entry_age();
        }
      });

  TrajectoryResult result;
  result.shards = shards;
  result.per_round.resize(static_cast<std::size_t>(rounds));
  {
    obs::PhaseProfile merge_profile;
    obs::PhaseTimer merge_timer(observed ? &merge_profile : nullptr,
                                obs::Phase::kMerge, options.trace);
    for (int r = 0; r < rounds; ++r) {
      for (std::uint64_t s = 0; s < shards; ++s) {
        result.per_round[static_cast<std::size_t>(r)].merge(
            shard_rounds[s][static_cast<std::size_t>(r)]);
      }
      result.overall.merge(result.per_round[static_cast<std::size_t>(r)]);
    }
    merge_timer.stop();
    if (options.profile != nullptr) {
      for (const obs::PhaseProfile& p : shard_profiles) {
        options.profile->merge(p);
      }
      options.profile->merge(merge_profile);
    }
  }
  double alive_total = 0.0;
  double age_total = 0.0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    alive_total += alive_sum[s];
    age_total += age_sum[s];
  }
  // validate_trajectory_options guarantees rounds >= 1 and shards >= 1, but
  // keep the division guarded: an empty run must surface zeroed
  // diagnostics, never NaN leaking into JSONL.
  const double snapshots =
      static_cast<double>(shards) * static_cast<double>(rounds);
  result.mean_alive_fraction = snapshots > 0.0 ? alive_total / snapshots : 0.0;
  result.mean_entry_age = snapshots > 0.0 ? age_total / snapshots : 0.0;
  return result;
}

std::vector<SweepPoint> run_churn_sweep(const SweepSpec& spec) {
  DHT_CHECK(!spec.bits.empty(), "sweep needs at least one bits value");
  DHT_CHECK(!spec.churn.empty(), "sweep needs at least one churn point");
  DHT_CHECK(!spec.repair.empty(), "sweep needs at least one repair value");
  const math::Rng root(spec.seed);
  std::vector<SweepPoint> points;
  points.reserve(spec.bits.size() * spec.churn.size() * spec.repair.size());
  std::uint64_t index = 0;
  for (const int bits : spec.bits) {
    const sim::IdSpace space(bits);
    for (const ChurnParams& params : spec.churn) {
      for (const double rho : spec.repair) {
        TrajectoryOptions options = spec.options;
        options.repair_probability = rho;
        SweepPoint point;
        point.bits = bits;
        point.params = params;
        point.repair_probability = rho;
        point.q_eff = effective_q(params);
        point.result = run_churn_trajectory(spec.geometry, space, params,
                                            options, root.fork(index));
        points.push_back(std::move(point));
        ++index;
      }
    }
  }
  return points;
}

}  // namespace dht::churn
