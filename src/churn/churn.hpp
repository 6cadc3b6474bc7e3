// Churn: the dynamic regime the paper defers (Section 1: "The
// applicability of the results derived from this static model to dynamic
// situations, such as churn, is currently under study").
//
// Model: every node runs an independent two-state (alive/dead) discrete
// Markov chain -- per round it dies with probability pd when alive and
// rejoins with probability pr when dead (geometric sessions, stationary
// availability a = pr/(pd+pr)).  Routing-table entries are refreshed every
// R rounds (re-pointed at an alive member of their class), and a rejoining
// node rebuilds its whole table.
//
// The bridge to the paper's static model: an entry refreshed k rounds ago
// points to a dead node with probability (1-a)(1 - lambda^k) where
// lambda = 1 - pd - pr is the chain's mixing factor.  With entry ages
// uniform over 0..R-1, the *effective static failure probability* is
//
//   q_eff(R) = (1-a) [1 - (1 - lambda^R) / (R (1 - lambda))],
//
// interpolating from q_eff = 0 (continuous refresh) to 1-a (never
// refresh: stationary dead probability).  ChurnWorld below runs the actual
// dynamic system -- for the XOR, tree, and ring geometries, routing over
// the flattened kernels of sim/flat_route.hpp -- and the ext_churn
// benchmark plus test_churn_trajectory confirm that its routability
// matches the static model evaluated at q_eff, answering the paper's open
// question for this churn model: static resilience analysis applies under
// churn, at the effective failure probability set by the refresh lag.
// The sharded sweep engine (churn/trajectory.hpp) runs many ChurnWorlds as
// independent replicas.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "math/rng.hpp"
#include "obs/phase_timer.hpp"
#include "sim/failure.hpp"
#include "sim/id_space.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/node_id.hpp"

namespace dht::churn {

/// Two-state per-round lifecycle parameters.
struct ChurnParams {
  double death_per_round = 0.01;    ///< P(alive -> dead) per round
  double rebirth_per_round = 0.05;  ///< P(dead -> alive) per round
  int refresh_interval = 10;        ///< rounds between entry refreshes (R)
};

/// Stationary availability a = pr / (pd + pr).
double availability(const ChurnParams& params);

/// P(entry target dead | entry refreshed k rounds ago).
double dead_given_age(const ChurnParams& params, int age);

/// The effective static failure probability q_eff(R) (see file comment).
double effective_q(const ChurnParams& params);

/// P(entry target departed | entry installed k rounds ago) when identities
/// never return: 1 - (1 - pd)^k.  This is the dynamic-membership analogue
/// of dead_given_age -- in the sparse churn world
/// (churn/sparse_trajectory.hpp) a leaving node is gone for good and a
/// recycled slot is a different node (generation stamps), so the rebirth
/// term of the dense chain drops out.
double departed_given_age(const ChurnParams& params, int age);

/// The no-return effective failure probability: departed_given_age
/// averaged over uniform entry ages 0..R-1,
///
///   q_nr(R) = 1 - (1 - (1-pd)^R) / (R pd),
///
/// the q_eff analogue the sparse churn engine's routability should track
/// (>= q_eff: without rebirths stale entries only decay).
double effective_q_no_return(const ChurnParams& params);

/// Session-length (node lifetime) distributions the dynamic-membership
/// lifecycle can run.  kGeometric is the memoryless baseline: a present
/// node departs with constant probability pd per round (mean session
/// 1/pd).  kPareto is the empirically observed heavy-tailed regime: the
/// discrete shifted Pareto (Lomax) survival S(k) = (1 + k/beta)^-alpha --
/// a gamma mixture of geometrics, hence "the Pareto mixture" -- whose
/// departure hazard DECREASES with session age: the longer a node has been
/// up, the longer it is likely to stay.  The scale beta is calibrated so
/// the mean session stays 1/pd, so the stationary availability (and hence
/// capacity_for_population) is identical to the geometric model and only
/// the tail shape changes.
enum class SessionKind {
  kGeometric,
  kPareto,
};

/// Maps "geometric" | "pareto" to the enum; anything else returns false.
bool session_kind_from_name(std::string_view name, SessionKind& out);

const char* to_string(SessionKind kind) noexcept;

struct SessionModel {
  SessionKind kind = SessionKind::kGeometric;
  /// Pareto tail exponent (> 1 so the mean exists; heavier tail as
  /// alpha -> 1).  Ignored by kGeometric.
  double pareto_alpha = 2.0;
};

/// Precomputed per-age lifecycle machinery for one session model: the
/// age-dependent departure hazard h(a) = P(depart this round | present for
/// a rounds), the survival function S(a) = prod_{u<=a} (1 - h(u)), and the
/// stationary session-age sampler pi(a) = S(a) / E[L].  The geometric
/// model is memoryless: hazard(a) == pd for every a and the stationary-age
/// draw is skipped entirely, so a geometric SessionProcess consumes
/// exactly the rng stream of the pre-SessionModel engine (bit-compat).
class SessionProcess {
 public:
  SessionProcess(const ChurnParams& params, const SessionModel& model);

  SessionKind kind() const noexcept { return model_.kind; }
  bool geometric() const noexcept {
    return model_.kind == SessionKind::kGeometric;
  }
  /// Mean session length E[L]; 1/pd for both kinds (by calibration).
  double mean_session() const noexcept { return mean_session_; }

  /// Departure hazard at session age `age` (>= 1).  Beyond the precomputed
  /// horizon the hazard is clamped flat (a geometric tail); survival past
  /// the horizon is O(1e-4) at the default shapes.
  double hazard(std::int64_t age) const noexcept {
    if (model_.kind == SessionKind::kGeometric) {
      return params_.death_per_round;
    }
    const auto idx = static_cast<std::size_t>(
        age < 1 ? 1
                : (age >= static_cast<std::int64_t>(hazard_.size())
                       ? hazard_.size() - 1
                       : age));
    return hazard_[idx];
  }

  /// Draws a session age from the stationary present-node age distribution
  /// (for initializing worlds at stationarity).  Geometric sessions are
  /// memoryless: returns 0 WITHOUT consuming the generator.
  std::int64_t sample_stationary_age(math::Rng& rng) const;

 private:
  ChurnParams params_;
  SessionModel model_;
  double mean_session_ = 0.0;
  // kPareto only: hazard_[a] = h(a); stationary_cdf_[a] = sum_{u<=a} pi(u)
  // over the precomputed horizon (normalized to end at 1).
  std::vector<double> hazard_;
  std::vector<double> stationary_cdf_;
};

/// P(entry target departed | entry installed `age` rounds ago) under the
/// session model, averaged over the stationary session-age distribution of
/// the target population: 1 - T(age)/E[L] with T(d) = sum_{a>=d} S(a).
/// The geometric model recovers departed_given_age exactly.
double departed_given_entry_age(const ChurnParams& params,
                                const SessionModel& model, int age);

/// The generalized no-return bridge: departed_given_entry_age averaged
/// over uniform entry ages 0..R-1.  kGeometric recovers
/// effective_q_no_return(params) exactly; the heavy-tailed q_nr sits BELOW
/// the geometric one at equal mean session (a freshly refreshed entry
/// points at a node whose expected remaining lifetime exceeds the mean --
/// the inspection paradox working in routing's favor).
double effective_q_no_return(const ChurnParams& params,
                             const SessionModel& model);

/// Geometries the churn machinery can evolve.  All three keep one entry
/// per (node, level) with 2^{d-level} candidates per entry class:
///   kXor   prefix-class entries, greedy XOR fallback forwarding
///   kTree  same tables, level-correcting forwarding
///   kRing  randomized Chord fingers (entry i uniform in the dyadic
///          interval [2^{d-i}, 2^{d-i+1})), greedy clockwise forwarding
enum class TrajectoryGeometry {
  kXor,
  kTree,
  kRing,
};

/// Maps "xor" | "tree" | "ring" to the enum; anything else returns false.
bool trajectory_geometry_from_name(std::string_view name,
                                   TrajectoryGeometry& out);

const char* to_string(TrajectoryGeometry geometry) noexcept;

/// One dynamic overlay world under churn: node lifecycles, lazy entry
/// refresh every R rounds, optional per-round eager repair of entries
/// observed dead (the rho knob of sim/repair.hpp), and routing against the
/// *current* liveness via the geometry's flattened kernel.
///
/// The constructor only fork()s the caller's generator (lifecycle, table,
/// and measurement sub-streams), so a world's whole trajectory is a pure
/// function of (rng lineage, inputs) -- which is what lets the sharded
/// sweep engine run worlds as independent replicas with bit-reproducible
/// results at any thread count.
class ChurnWorld {
 public:
  /// Starts at the stationary state (each node alive w.p. availability),
  /// with fresh tables and refresh phases staggered uniformly.
  /// `max_hops` of 0 selects the default cap N (strict progress bounds any
  /// route); hits are counted in the estimates' hop_limit_hits canary.
  ChurnWorld(TrajectoryGeometry geometry, const sim::IdSpace& space,
             const ChurnParams& params, double repair_probability,
             std::uint64_t max_hops, const math::Rng& rng);

  /// Advances one round: lifecycle flips, rejoiner table rebuilds, due
  /// refreshes, and (when rho > 0) eager repair of entries observed dead.
  void step();

  /// Samples `pairs` routes among currently-alive pairs against the stored
  /// (possibly stale) tables, drawing endpoints from `rng`.  With fewer
  /// than two alive nodes there is nothing to sample: returns an empty
  /// estimate.
  sim::RoutabilityEstimate measure(std::uint64_t pairs, math::Rng& rng);

  /// Same, drawing from the world's own measurement sub-stream (the
  /// sharded engine's path: no external generator to advance).
  sim::RoutabilityEstimate measure(std::uint64_t pairs);

  int round() const noexcept { return round_; }
  std::uint64_t alive_count() const noexcept { return alive_count_; }
  double alive_fraction() const noexcept;
  bool alive(sim::NodeId v) const {
    return sim::alive_bit(alive_bits_.data(), v);
  }
  /// Liveness packed one bit per node ((N + 63) / 64 words, padding bits
  /// zero): the words measure() points the routing kernels at.
  const std::vector<std::uint64_t>& alive_bits() const noexcept {
    return alive_bits_;
  }

  /// Mean age (rounds since refresh) over all entries of alive nodes --
  /// diagnostic for the q_eff derivation's uniform-age assumption.
  double mean_entry_age() const;

  /// Attaches observability sinks (obs/phase_timer.hpp): step() then
  /// attributes its lifecycle sweep and refresh/repair pass, and
  /// measure() its route sampling, to the profile/trace.  Pure timing
  /// side-channels -- null (the default) reads no clock, and attaching
  /// them never changes a counter.
  void set_observer(obs::PhaseProfile* profile, obs::Trace* trace) noexcept {
    profile_ = profile;
    trace_ = trace;
  }

 private:
  sim::NodeId class_member(sim::NodeId node, int level,
                           std::uint64_t member) const;
  void refresh_entry(sim::NodeId node, int level);
  void rebuild_node(sim::NodeId node);

  const TrajectoryGeometry geometry_;
  const sim::IdSpace space_;
  const ChurnParams params_;
  const double repair_probability_;
  const std::uint64_t max_hops_;
  math::Rng lifecycle_rng_;
  math::Rng table_rng_;
  math::Rng measure_rng_;
  obs::PhaseProfile* profile_ = nullptr;
  obs::Trace* trace_ = nullptr;
  int round_ = 0;
  std::vector<std::uint64_t> alive_bits_;
  std::uint64_t alive_count_ = 0;
  // Row-major [node][level-1] entries + the round each was last refreshed.
  std::vector<std::uint32_t> entries_;
  std::vector<std::int32_t> refreshed_at_;
};

}  // namespace dht::churn
