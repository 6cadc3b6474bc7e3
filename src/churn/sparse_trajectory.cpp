#include "churn/sparse_trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace dht::churn {

bool sparse_churn_geometry_from_name(std::string_view name,
                                     SparseChurnGeometry& out) {
  if (name == "ring") {
    out = SparseChurnGeometry::kChord;
    return true;
  }
  if (name == "xor") {
    out = SparseChurnGeometry::kKademlia;
    return true;
  }
  if (name == "symphony") {
    out = SparseChurnGeometry::kSymphony;
    return true;
  }
  return false;
}

const char* to_string(SparseChurnGeometry geometry) noexcept {
  switch (geometry) {
    case SparseChurnGeometry::kChord:
      return "ring";
    case SparseChurnGeometry::kKademlia:
      return "xor";
    case SparseChurnGeometry::kSymphony:
      return "symphony";
  }
  return "?";
}

std::uint64_t capacity_for_population(std::uint64_t population,
                                      const ChurnParams& params) {
  const double a = availability(params);
  auto capacity = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(population) / a));
  // Clamp into SparseMembership's supported roster range: a derived
  // capacity above the 2^26 per-slot-state cap would otherwise throw from
  // inside a sweep's shard pool, discarding every computed grid point.
  capacity = std::min(capacity, std::uint64_t{1} << 26);
  return capacity < 2 ? 2 : capacity;
}

SparseChurnResult run_sparse_churn_trajectory(
    SparseChurnGeometry geometry, const SparseChurnConfig& config,
    const ChurnParams& params, const TrajectoryOptions& options,
    const math::Rng& rng) {
  validate_trajectory_options(options);
  DHT_CHECK(options.trace_routes == 0 || !options.inflight,
            "route forensics requires the round-synchronous mode (in-flight "
            "routes have no frozen snapshot to re-route against)");
  (void)availability(params);

  const std::uint64_t shards =
      options.shards != 0 ? options.shards : kDefaultTrajectoryShards;
  const unsigned threads = sim::resolve_threads(options.threads);
  // Every worker holds one world at a time (chunk = 1 below).
  (void)SparseChurnWorld::checked_config(
      config, geometry, std::min<std::uint64_t>(threads, shards));
  const int rounds = options.measured_rounds;
  std::vector<std::vector<sparse::SparseEstimate>> shard_rounds(shards);
  std::vector<double> population_sum(shards, 0.0);
  std::vector<double> alive_sum(shards, 0.0);
  std::vector<double> age_sum(shards, 0.0);
  std::vector<sim::LoadSummary> shard_loads(shards);
  // Timing side-channel only: per-shard profiles reduce in shard order
  // below; a null profile/trace reads no clock anywhere.
  const bool observed = options.profile != nullptr || options.trace != nullptr;
  std::vector<obs::PhaseProfile> shard_profiles(observed ? shards : 0);
  // Forensics sinks: each shard keeps the newest `budget` traces of the
  // pairs its stride selects -- both pure functions of (shard, round, pair
  // index), so the drained set is bit-identical at any thread count.
  std::vector<obs::RouteTraceSink> shard_sinks;
  if (options.trace_routes != 0) {
    const std::uint64_t budget =
        std::max<std::uint64_t>(1, options.trace_routes / shards);
    const std::uint64_t per_shard_pairs =
        options.pairs_per_round * static_cast<std::uint64_t>(rounds);
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, per_shard_pairs / budget);
    shard_sinks.reserve(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      shard_sinks.emplace_back(stride, budget);
    }
  }

  sim::run_sharded(
      shards,
      sim::PoolOptions{.threads = threads,
                       // Replica worlds are heavy; claim one at a time so
                       // the tail load-balances.
                       .chunk = 1,
                       .pin_workers = options.pin_workers},
      [&](std::uint64_t s) {
        obs::PhaseProfile* const profile =
            observed ? &shard_profiles[s] : nullptr;
        // Shard s is an independent replica of the whole trajectory, a
        // pure function of (caller seed, s).  Its world is allocated here,
        // on the (optionally pinned) worker, so first touch places it on
        // the worker's socket.
        obs::PhaseTimer build_timer(profile, obs::Phase::kWorldBuild,
                                    options.trace);
        SparseChurnWorld world(geometry, config, params,
                               options.repair_probability, options.max_hops,
                               rng.fork(s));
        build_timer.stop();
        world.set_observer(profile, options.trace);
        if (!shard_sinks.empty()) {
          world.set_route_trace(&shard_sinks[s], s);
        }
        for (int i = 0; i < options.warmup_rounds; ++i) {
          world.step();
        }
        auto& mine = shard_rounds[s];
        mine.reserve(static_cast<std::size_t>(rounds));
        for (int r = 0; r < rounds; ++r) {
          if (options.inflight) {
            // In-flight: the round's lifecycle advances DURING the
            // measured routes (measure_inflight steps the round itself).
            mine.push_back(world.measure_inflight(
                options.pairs_per_round, options.inflight_events_per_hop));
          } else {
            world.step();
            mine.push_back(world.measure(options.pairs_per_round));
          }
          population_sum[s] += static_cast<double>(world.population());
          alive_sum[s] += world.alive_fraction();
          age_sum[s] += world.mean_entry_age();
        }
        shard_loads[s] = world.load_summary();
      });

  SparseChurnResult result;
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
  // Drain the forensics sinks in shard order: the concatenation is the
  // same regardless of which worker ran which shard.
  for (obs::RouteTraceSink& sink : shard_sinks) {
    for (obs::RouteTrace& trace : sink.drain()) {
      result.traces.push_back(std::move(trace));
    }
  }
  double population_total = 0.0;
  double alive_total = 0.0;
  double age_total = 0.0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    population_total += population_sum[s];
    alive_total += alive_sum[s];
    age_total += age_sum[s];
  }
  // validate_trajectory_options guarantees rounds >= 1 and shards >= 1, but
  // keep the division guarded: an empty run must surface zeroed
  // diagnostics, never NaN leaking into JSONL.
  const double snapshots =
      static_cast<double>(shards) * static_cast<double>(rounds);
  result.mean_population =
      snapshots > 0.0 ? population_total / snapshots : 0.0;
  result.mean_alive_fraction = snapshots > 0.0 ? alive_total / snapshots : 0.0;
  result.mean_entry_age = snapshots > 0.0 ? age_total / snapshots : 0.0;
  // Load reduction in shard order: the hottest slot of any world, and the
  // shape statistics averaged over worlds (each shard is an independent
  // trajectory; max commutes, so the result is thread-count-independent).
  double p99_total = 0.0;
  double cv_total = 0.0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    result.load_max = std::max(result.load_max, shard_loads[s].max);
    p99_total += static_cast<double>(shard_loads[s].p99);
    cv_total += shard_loads[s].cv;
  }
  result.load_p99 = p99_total / static_cast<double>(shards);
  result.load_cv = cv_total / static_cast<double>(shards);
  return result;
}

std::vector<SparseChurnSweepPoint> run_sparse_churn_sweep(
    const SparseChurnSweepSpec& spec) {
  DHT_CHECK(!spec.bits.empty(), "sweep needs at least one bits value");
  DHT_CHECK(!spec.populations.empty(),
            "sweep needs at least one population value");
  DHT_CHECK(!spec.churn.empty(), "sweep needs at least one churn point");
  DHT_CHECK(!spec.repair.empty(), "sweep needs at least one repair value");
  DHT_CHECK(!spec.successors.empty(),
            "sweep needs at least one successor-list length");
  const math::Rng root(spec.seed);
  std::vector<SparseChurnSweepPoint> points;
  points.reserve(spec.bits.size() * spec.populations.size() *
                 spec.churn.size() * spec.repair.size() *
                 spec.successors.size());
  std::uint64_t index = 0;
  for (const int bits : spec.bits) {
    for (const std::uint64_t population : spec.populations) {
      for (const ChurnParams& params : spec.churn) {
        std::uint64_t capacity = capacity_for_population(population, params);
        if (bits < 26 && capacity > (std::uint64_t{1} << bits)) {
          capacity = std::uint64_t{1} << bits;  // dense-limit clamp
        }
        for (const double rho : spec.repair) {
          for (const int s : spec.successors) {
            SparseChurnConfig config;
            config.bits = bits;
            config.capacity = capacity;
            config.successors = s;
            config.shortcuts = spec.shortcuts;
            config.bucket_k = spec.bucket_k;
            config.session = spec.session;
            config.replicas = spec.replicas;
            config.zipf_s = spec.zipf_s;
            config.objects = spec.objects;
            TrajectoryOptions options = spec.options;
            options.repair_probability = rho;
            SparseChurnSweepPoint point;
            point.bits = bits;
            point.population = population;
            point.capacity = capacity;
            point.params = params;
            point.repair_probability = rho;
            point.successors = s;
            point.q_eff = effective_q(params);
            point.result = run_sparse_churn_trajectory(
                spec.geometry, config, params, options, root.fork(index));
            points.push_back(std::move(point));
            ++index;
          }
        }
      }
    }
  }
  return points;
}

}  // namespace dht::churn
