// Churn-aware sharded trajectory sweeps for the parallel engine.
//
// The static parallel engine (sim/parallel_monte_carlo.hpp) splits a fixed
// pair budget over shards of ONE immutable (overlay, FailureScenario)
// world.  Churn breaks that model: liveness and tables evolve round by
// round.  This engine keeps bit-reproducibility by changing the statistical
// model instead -- **shards as independent replicas of the trajectory**:
//
//  * Shard k forks the caller's generator (Rng::fork(k)) and owns a private
//    world: its own liveness mask, its own routing tables, its own
//    lifecycle / table / measurement sub-streams.  The whole trajectory a
//    shard produces is a pure function of (caller seed, k).
//  * Each shard evolves its world through warmup + measured rounds --
//    two-state node lifecycles, rejoiner table rebuilds, lazy entry refresh
//    every R rounds (churn/churn.hpp), and optionally per-round eager
//    repair of detected-dead entries (the rho knob of sim/repair.hpp) --
//    and samples `pairs_per_round` routes after every measured round.
//  * Per-(shard, round) RoutabilityEstimates are merged round-wise in
//    shard order.  All counters are exact integers, so the per-round and
//    pooled results are bit-identical at any thread count.
//
// Unlike the static engine, where shards partition a fixed budget, a
// trajectory shard IS a replica: more shards = more independent dynamic
// systems = tighter estimates and more work.  Keep `shards` fixed when
// comparing runs.
//
// Each replica is a ChurnWorld (churn/churn.hpp): the lifecycle +
// lazy-refresh machinery generalized beyond XOR to the tree and ring
// geometries, routing over the flattened kernels (sim/flat_route.hpp)
// against the world's own table + liveness arrays.
//
// The q_eff bridge (churn/churn.hpp) applies per entry class identically
// in all three cases: an entry refreshed k rounds ago is dead with
// probability (1-a)(1 - lambda^k), so the trajectory's long-run routability
// should track the static model evaluated at q_eff(R) -- the claim the
// ext_churn benchmark sweeps and test_churn_trajectory asserts.
#pragma once

#include <cstdint>
#include <vector>

#include "churn/churn.hpp"
#include "math/rng.hpp"
#include "obs/phase_timer.hpp"
#include "sim/id_space.hpp"
#include "sim/monte_carlo.hpp"

namespace dht::churn {

/// Default replica count when TrajectoryOptions::shards is 0.
inline constexpr std::uint64_t kDefaultTrajectoryShards = 16;

struct TrajectoryOptions {
  /// Rounds stepped before measurement starts (reach the refresh steady
  /// state; ~3R + mixing is the benchmark convention).
  int warmup_rounds = 0;
  /// Rounds measured after warmup; one merged RoutabilityEstimate each.
  int measured_rounds = 1;
  /// Routes sampled per shard per measured round.
  std::uint64_t pairs_per_round = 2000;
  /// Independent trajectory replicas (0 = kDefaultTrajectoryShards).
  /// Results are a function of (seed, shards); keep it fixed when
  /// comparing runs.
  std::uint64_t shards = 0;
  /// Worker threads (0 = hardware concurrency).  Never affects results.
  unsigned threads = 0;
  /// Safety hop cap per route (0 = default N); hits are counted in the
  /// estimates' hop_limit_hits canary.
  std::uint64_t max_hops = 0;
  /// Per-round probability that an entry observed dead is eagerly repaired
  /// (re-pointed at an alive class member) in addition to the scheduled
  /// refresh -- the rho knob of the static-repair model.  0 = pure lazy
  /// refresh (the original XOR churn model).
  double repair_probability = 0.0;
  /// In-flight lookup measurement (sparse churn engine only): membership
  /// events and repairs advance DURING each measured route instead of
  /// freezing the world between rounds, so a lookup can lose its next hop
  /// mid-flight.  The dense trajectory engine rejects this mode.
  bool inflight = false;
  /// Lifecycle slots swept per route hop in in-flight mode; 0 derives the
  /// rate from pairs_per_round (one full capacity sweep spread over the
  /// round's expected hop budget, pairs x ~log2 N).  Any remainder of the
  /// sweep is flushed at the end of the round, so a measured round always
  /// performs exactly one full lifecycle round.
  std::uint64_t inflight_events_per_hop = 0;
  /// Route forensics (sparse churn engine, sync mode only): sample about
  /// this many routes run-wide and record their full hop sequences
  /// (obs/route_trace.hpp).  Which pairs are traced is a pure function of
  /// (shard, round, pair index), so the same routes are traced at any
  /// thread count; traced pairs are re-routed against the frozen round
  /// snapshot with no load accounting and no rng, so estimates are
  /// unchanged.  0 disables; the dense engine and in-flight mode reject
  /// nonzero values.
  std::uint64_t trace_routes = 0;
  /// Observability sinks (obs/phase_timer.hpp), both optional and both
  /// pure timing side-channels: per-shard phase seconds are reduced in
  /// shard order into `profile`, phase spans go to `trace`.  Null (the
  /// default) is the zero-cost path; attaching them never changes any
  /// counter.
  obs::PhaseProfile* profile = nullptr;
  obs::Trace* trace = nullptr;
};

/// Validates the domains of the shared trajectory options; throws
/// PreconditionError naming the offending field.  Every trajectory engine
/// calls this at its API boundary (before any shard spins up a world), so
/// a bad grid point fails fast instead of deep inside a worker -- and the
/// diagnostics divisions below it can never see zero measured rounds.
void validate_trajectory_options(const TrajectoryOptions& options);

struct TrajectoryResult {
  /// The replica count actually used (options.shards, or
  /// kDefaultTrajectoryShards when that was 0).
  std::uint64_t shards = 0;
  /// Round r's estimate pooled across shards (merged in shard order);
  /// size = measured_rounds.
  std::vector<sim::RoutabilityEstimate> per_round;
  /// All measured rounds pooled in round order -- the long-run estimate.
  sim::RoutabilityEstimate overall;
  /// Alive fraction averaged over (shard, measured round) snapshots.
  double mean_alive_fraction = 0.0;
  /// Mean entry age of alive nodes' tables, same averaging.
  double mean_entry_age = 0.0;
};

/// Runs the sharded churn trajectory.  `rng` is only fork()ed, never
/// advanced.  Bit-identical at any thread count.  Rounds where a shard's
/// world has fewer than two alive nodes contribute no samples (possible
/// only at tiny N / extreme churn; deterministic either way).
TrajectoryResult run_churn_trajectory(TrajectoryGeometry geometry,
                                      const sim::IdSpace& space,
                                      const ChurnParams& params,
                                      const TrajectoryOptions& options,
                                      const math::Rng& rng);

/// One evaluated grid point of a sweep.
struct SweepPoint {
  int bits = 0;
  ChurnParams params;
  double repair_probability = 0.0;
  /// The static-model bridge value q_eff(R) for `params` (repair lowers
  /// the realized effective failure probability further).
  double q_eff = 0.0;
  TrajectoryResult result;
};

/// A (N, churn params, rho) grid for benches and the CLI.  Points are the
/// cartesian product bits x churn x repair, evaluated in that nesting
/// order; point i uses Rng(seed).fork(i), so each point is reproducible
/// independent of the grid shape.
struct SweepSpec {
  TrajectoryGeometry geometry = TrajectoryGeometry::kXor;
  std::vector<int> bits = {10};
  std::vector<ChurnParams> churn = {ChurnParams{}};
  std::vector<double> repair = {0.0};
  TrajectoryOptions options;
  std::uint64_t seed = 1;
};

std::vector<SweepPoint> run_churn_sweep(const SweepSpec& spec);

}  // namespace dht::churn
