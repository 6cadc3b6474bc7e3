#include "churn/churn.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "sim/flat_route.hpp"

namespace dht::churn {

namespace {

void check_params(const ChurnParams& params) {
  DHT_CHECK(params.death_per_round > 0.0 && params.death_per_round < 1.0,
            "death_per_round must be in (0, 1)");
  DHT_CHECK(params.rebirth_per_round > 0.0 && params.rebirth_per_round < 1.0,
            "rebirth_per_round must be in (0, 1)");
  DHT_CHECK(params.death_per_round + params.rebirth_per_round <= 1.0,
            "pd + pr must not exceed 1 (two-state chain mixing factor)");
  DHT_CHECK(params.refresh_interval >= 1, "refresh interval must be >= 1");
}

void check_session(const SessionModel& model) {
  if (model.kind == SessionKind::kPareto) {
    DHT_CHECK(model.pareto_alpha > 1.0,
              "pareto_alpha must be > 1 (the mean session must exist)");
  }
}

// Discrete shifted-Pareto (Lomax) survival S(a) = (1 + a/beta)^-alpha.
double lomax_survival(double alpha, double beta, double age) {
  return std::pow(1.0 + age / beta, -alpha);
}

// T(d) = sum_{a >= d} S(a): truncated sum plus the Euler-Maclaurin tail
// (integral + half endpoint), accurate to ~1e-10 relative at alpha > 1.
double lomax_tail_sum(double alpha, double beta, std::int64_t from) {
  constexpr std::int64_t kTerms = 1 << 16;
  double sum = 0.0;
  for (std::int64_t a = from; a < from + kTerms; ++a) {
    sum += lomax_survival(alpha, beta, static_cast<double>(a));
  }
  const auto edge = static_cast<double>(from + kTerms);
  const double tail_integral =
      beta / (alpha - 1.0) * std::pow(1.0 + edge / beta, 1.0 - alpha);
  return sum + tail_integral - 0.5 * lomax_survival(alpha, beta, edge);
}

// The scale beta at which the mean session E[L] = T(0) hits `target`;
// T(0)(beta) is continuous and strictly increasing from 1 to infinity, so
// bisection converges unconditionally.  Each bisection step sums a 2^16
// tail, so the result is memoized: shard worlds, benches, and the bridge
// functions all re-ask for the same handful of (alpha, mean) points.
double calibrate_lomax_beta(double alpha, double target_mean) {
  static std::mutex cache_mutex;
  static std::map<std::pair<double, double>, double> cache;
  const std::pair<double, double> key{alpha, target_mean};
  {
    const std::lock_guard<std::mutex> lock(cache_mutex);
    const auto hit = cache.find(key);
    if (hit != cache.end()) {
      return hit->second;
    }
  }
  double lo = 1e-9;
  double hi = 1.0;
  while (lomax_tail_sum(alpha, hi, 0) < target_mean) {
    hi *= 2.0;
    DHT_CHECK(hi < 1e18, "pareto scale calibration diverged");
  }
  for (int iter = 0; iter < 200 && hi - lo > 1e-12 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (lomax_tail_sum(alpha, mid, 0) < target_mean ? lo : hi) = mid;
  }
  const double beta = 0.5 * (lo + hi);
  const std::lock_guard<std::mutex> lock(cache_mutex);
  cache.emplace(key, beta);
  return beta;
}

}  // namespace

double availability(const ChurnParams& params) {
  check_params(params);
  return params.rebirth_per_round /
         (params.death_per_round + params.rebirth_per_round);
}

double dead_given_age(const ChurnParams& params, int age) {
  check_params(params);
  DHT_CHECK(age >= 0, "entry age must be >= 0");
  const double lambda =
      1.0 - params.death_per_round - params.rebirth_per_round;
  return (1.0 - availability(params)) *
         (1.0 - std::pow(lambda, static_cast<double>(age)));
}

double effective_q(const ChurnParams& params) {
  check_params(params);
  const double lambda =
      1.0 - params.death_per_round - params.rebirth_per_round;
  const double r = static_cast<double>(params.refresh_interval);
  // Average of dead_given_age over ages 0 .. R-1; the geometric partial sum
  // (1 - lambda^R)/(1 - lambda) degenerates to R when lambda == 1, which
  // check_params excludes (pd + pr > 0).
  const double mean_alive_term =
      (1.0 - std::pow(lambda, r)) / (r * (1.0 - lambda));
  return (1.0 - availability(params)) * (1.0 - mean_alive_term);
}

double departed_given_age(const ChurnParams& params, int age) {
  check_params(params);
  DHT_CHECK(age >= 0, "entry age must be >= 0");
  return 1.0 - std::pow(1.0 - params.death_per_round,
                        static_cast<double>(age));
}

double effective_q_no_return(const ChurnParams& params) {
  check_params(params);
  const double survive = 1.0 - params.death_per_round;
  const double r = static_cast<double>(params.refresh_interval);
  // Average of departed_given_age over ages 0 .. R-1 (geometric partial
  // sum; pd > 0 by check_params, so the denominator never degenerates).
  // Clamped at 0: R = 1 is exactly 0 in reals but can round to -eps.
  return std::max(0.0, 1.0 - (1.0 - std::pow(survive, r)) /
                           (r * params.death_per_round));
}

bool session_kind_from_name(std::string_view name, SessionKind& out) {
  if (name == "geometric") {
    out = SessionKind::kGeometric;
    return true;
  }
  if (name == "pareto") {
    out = SessionKind::kPareto;
    return true;
  }
  return false;
}

const char* to_string(SessionKind kind) noexcept {
  switch (kind) {
    case SessionKind::kGeometric:
      return "geometric";
    case SessionKind::kPareto:
      return "pareto";
  }
  return "?";
}

SessionProcess::SessionProcess(const ChurnParams& params,
                               const SessionModel& model)
    : params_(params), model_(model) {
  check_params(params);
  check_session(model);
  mean_session_ = 1.0 / params.death_per_round;
  if (model.kind == SessionKind::kGeometric) {
    return;  // memoryless: no tables, no extra rng draws, bit-compat
  }
  const double alpha = model.pareto_alpha;
  const double beta = calibrate_lomax_beta(alpha, mean_session_);
  // Hazard and stationary-age tables over a fixed horizon; the tail beyond
  // is clamped flat (a geometric tail at the horizon hazard), which at the
  // default shapes leaves O(1e-5) of survival mass mis-modeled -- far
  // below the statistical tolerances of every consumer.
  constexpr std::size_t kHorizon = std::size_t{1} << 16;
  hazard_.resize(kHorizon);
  stationary_cdf_.resize(kHorizon);
  hazard_[0] = 0.0;
  double cumulative = 0.0;
  for (std::size_t a = 1; a < kHorizon; ++a) {
    const double prev = lomax_survival(alpha, beta, static_cast<double>(a - 1));
    const double cur = lomax_survival(alpha, beta, static_cast<double>(a));
    hazard_[a] = 1.0 - cur / prev;
  }
  for (std::size_t a = 0; a < kHorizon; ++a) {
    cumulative += lomax_survival(alpha, beta, static_cast<double>(a));
    stationary_cdf_[a] = cumulative;
  }
  for (double& c : stationary_cdf_) {
    c /= cumulative;  // ages past the horizon lump into the last bin
  }
}

std::int64_t SessionProcess::sample_stationary_age(math::Rng& rng) const {
  if (model_.kind == SessionKind::kGeometric) {
    return 0;  // memoryless: age is irrelevant, generator untouched
  }
  const double u = rng.uniform01();
  const auto it =
      std::lower_bound(stationary_cdf_.begin(), stationary_cdf_.end(), u);
  return it == stationary_cdf_.end()
             ? static_cast<std::int64_t>(stationary_cdf_.size()) - 1
             : static_cast<std::int64_t>(it - stationary_cdf_.begin());
}

double departed_given_entry_age(const ChurnParams& params,
                                const SessionModel& model, int age) {
  check_params(params);
  check_session(model);
  DHT_CHECK(age >= 0, "entry age must be >= 0");
  if (model.kind == SessionKind::kGeometric) {
    return departed_given_age(params, age);
  }
  // A fresh entry points at a uniformly drawn PRESENT node, whose session
  // age A follows the stationary distribution pi(a) = S(a)/E[L]; the entry
  // is dead `age` rounds later iff the target departs within that window:
  //   sum_a pi(a) (1 - S(a+age)/S(a)) = 1 - T(age)/E[L],
  // with T(d) = sum_{a>=d} S(a) and E[L] = T(0).
  const double alpha = model.pareto_alpha;
  const double beta =
      calibrate_lomax_beta(alpha, 1.0 / params.death_per_round);
  const double mean = lomax_tail_sum(alpha, beta, 0);
  const double tail = lomax_tail_sum(alpha, beta, age);
  return std::min(1.0, std::max(0.0, 1.0 - tail / mean));
}

double effective_q_no_return(const ChurnParams& params,
                             const SessionModel& model) {
  check_params(params);
  check_session(model);
  if (model.kind == SessionKind::kGeometric) {
    return effective_q_no_return(params);
  }
  // Average of departed_given_entry_age over uniform entry ages 0..R-1:
  //   1 - (sum_d T(d)) / (R E[L]);  T(d+1) = T(d) - S(d) keeps it O(R).
  const double alpha = model.pareto_alpha;
  const double beta =
      calibrate_lomax_beta(alpha, 1.0 / params.death_per_round);
  const double mean = lomax_tail_sum(alpha, beta, 0);
  double tail = mean;  // T(0)
  double tail_total = 0.0;
  for (int age = 0; age < params.refresh_interval; ++age) {
    tail_total += tail;
    tail -= lomax_survival(alpha, beta, static_cast<double>(age));
  }
  const double r = static_cast<double>(params.refresh_interval);
  return std::min(1.0, std::max(0.0, 1.0 - tail_total / (r * mean)));
}

bool trajectory_geometry_from_name(std::string_view name,
                                   TrajectoryGeometry& out) {
  if (name == "xor") {
    out = TrajectoryGeometry::kXor;
    return true;
  }
  if (name == "tree") {
    out = TrajectoryGeometry::kTree;
    return true;
  }
  if (name == "ring") {
    out = TrajectoryGeometry::kRing;
    return true;
  }
  return false;
}

const char* to_string(TrajectoryGeometry geometry) noexcept {
  switch (geometry) {
    case TrajectoryGeometry::kXor:
      return "xor";
    case TrajectoryGeometry::kTree:
      return "tree";
    case TrajectoryGeometry::kRing:
      return "ring";
  }
  return "?";
}

ChurnWorld::ChurnWorld(TrajectoryGeometry geometry, const sim::IdSpace& space,
                       const ChurnParams& params, double repair_probability,
                       std::uint64_t max_hops, const math::Rng& rng)
    : geometry_(geometry),
      space_(space),
      params_(params),
      repair_probability_(repair_probability),
      max_hops_(max_hops == 0 ? space.size() : max_hops),
      lifecycle_rng_(rng.fork(1)),
      table_rng_(rng.fork(2)),
      measure_rng_(rng.fork(3)) {
  check_params(params);
  DHT_CHECK(repair_probability >= 0.0 && repair_probability <= 1.0,
            "repair probability must be in [0, 1]");
  const std::uint64_t n = space_.size();
  const int d = space_.bits();
  const double a = availability(params);
  alive_bits_.resize((n + 63) / 64, 0);
  for (std::uint64_t v = 0; v < n; ++v) {
    const bool up = lifecycle_rng_.bernoulli(a);
    sim::set_alive_bit(alive_bits_.data(), v, up);
    alive_count_ += up ? 1 : 0;
  }
  entries_ = sim::ClassRows(geometry_ == TrajectoryGeometry::kRing
                                ? sim::EntryClass::kDyadic
                                : sim::EntryClass::kPrefix,
                            d, n);
  refreshed_at_.resize(n * static_cast<std::uint64_t>(d));
  for (std::uint64_t v = 0; v < n; ++v) {
    for (int level = 1; level <= d; ++level) {
      refresh_entry(v, level);
      // Stagger initial phases so refreshes spread over the interval and
      // entry ages start uniform, matching the q_eff derivation.
      refreshed_at_[v * static_cast<std::uint64_t>(d) +
                    static_cast<std::uint64_t>(level - 1)] =
          -static_cast<std::int32_t>(
              table_rng_.uniform_below(
                  static_cast<std::uint64_t>(params_.refresh_interval)));
    }
  }
}

void ChurnWorld::refresh_entry(sim::NodeId node, int level) {
  const int d = space_.bits();
  const std::uint64_t count = std::uint64_t{1} << (d - level);
  // The entry class of (node, level) has 2^{d-level} members (prefix block
  // for xor/tree, dyadic finger interval for ring; sim/class_rows.hpp).
  // Prefer an alive member; keep a (dead) random member if the class is
  // dead (bounded rejection, then exact scan -- classes die only when
  // tiny).
  const auto member_alive = [&](std::uint64_t member) {
    return alive(sim::class_member(entries_.entry_class(), d, node, level,
                                   member));
  };
  std::uint64_t chosen = table_rng_.uniform_below(count);
  bool found = member_alive(chosen);
  for (int attempt = 0; attempt < 32 && !found; ++attempt) {
    const std::uint64_t candidate = table_rng_.uniform_below(count);
    if (member_alive(candidate)) {
      chosen = candidate;
      found = true;
    }
  }
  for (std::uint64_t member = 0; member < count && !found; ++member) {
    if (member_alive(member)) {
      chosen = member;
      found = true;
    }
  }
  entries_.set_member(node, level, chosen);
  refreshed_at_[node * static_cast<std::uint64_t>(d) +
                static_cast<std::uint64_t>(level - 1)] =
      static_cast<std::int32_t>(round_);
}

void ChurnWorld::rebuild_node(sim::NodeId node) {
  for (int level = 1; level <= space_.bits(); ++level) {
    refresh_entry(node, level);
  }
}

void ChurnWorld::step() {
  ++round_;
  const std::uint64_t n = space_.size();
  // Lifecycle flips first (a rejoiner builds its table against the new
  // world state).  The sweep (flips + rejoiner rebuilds) and the
  // refresh/repair pass below are attributed separately when an observer
  // is attached -- pure timing, nothing feeds back into the rng streams.
  obs::PhaseTimer lifecycle_timer(profile_, obs::Phase::kLifecycle, trace_);
  std::vector<sim::NodeId> rejoined;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (alive(v)) {
      if (lifecycle_rng_.bernoulli(params_.death_per_round)) {
        sim::set_alive_bit(alive_bits_.data(), v, false);
        --alive_count_;
      }
    } else if (lifecycle_rng_.bernoulli(params_.rebirth_per_round)) {
      sim::set_alive_bit(alive_bits_.data(), v, true);
      ++alive_count_;
      rejoined.push_back(v);
    }
  }
  for (const sim::NodeId v : rejoined) {
    rebuild_node(v);
  }
  lifecycle_timer.stop();
  obs::PhaseTimer refresh_timer(profile_, obs::Phase::kRefreshRepair, trace_);
  // Due refreshes for alive nodes (dead nodes' tables stay frozen), plus
  // the eager-repair channel: an entry pointing at a dead node is detected
  // and re-pointed with probability rho this round, independent of its
  // refresh phase -- rho = 0 is the pure lazy-refresh model, rho -> 1
  // approaches the fully repaired static regime.
  const int d = space_.bits();
  for (std::uint64_t v = 0; v < n; ++v) {
    if (!alive(v)) {
      continue;
    }
    for (int level = 1; level <= d; ++level) {
      const std::uint64_t slot = v * static_cast<std::uint64_t>(d) +
                                 static_cast<std::uint64_t>(level - 1);
      if (round_ - refreshed_at_[slot] >= params_.refresh_interval) {
        refresh_entry(v, level);
      } else if (repair_probability_ > 0.0 &&
                 !alive(entries_.entry(v, level)) &&
                 table_rng_.bernoulli(repair_probability_)) {
        refresh_entry(v, level);
      }
    }
  }
}

sim::RoutabilityEstimate ChurnWorld::measure(std::uint64_t pairs,
                                             math::Rng& rng) {
  obs::PhaseTimer route_timer(profile_, obs::Phase::kRoute, trace_);
  sim::RoutabilityEstimate estimate;
  if (alive_count_ < 2) {
    return estimate;
  }
  sim::flat::FlatCtx ctx;
  ctx.d = space_.bits();
  ctx.mask = space_.size() - 1;
  ctx.alive_bits = alive_bits_.data();
  ctx.rows = entries_.data();
  ctx.row_bytes = entries_.row_bytes();
  ctx.max_hops = max_hops_;
  const std::uint64_t n = space_.size();
  const auto route_pairs = [&](auto step) {
    for (std::uint64_t i = 0; i < pairs; ++i) {
      sim::NodeId source = rng.uniform_below(n);
      while (!alive(source)) {
        source = rng.uniform_below(n);
      }
      sim::NodeId target = rng.uniform_below(n);
      while (!alive(target) || target == source) {
        target = rng.uniform_below(n);
      }
      estimate.record(sim::flat::route_stepped(ctx, source, target, step));
    }
  };
  // Single geometry -> step dispatch, hoisted out of the pair loop.
  switch (geometry_) {
    case TrajectoryGeometry::kTree:
      route_pairs([](const sim::flat::FlatCtx& c, sim::NodeId cur,
                     sim::NodeId target) {
        return sim::flat::step_tree(c, cur, target);
      });
      break;
    case TrajectoryGeometry::kRing:
      route_pairs([](const sim::flat::FlatCtx& c, sim::NodeId cur,
                     sim::NodeId target) {
        return sim::flat::step_chord_randomized(c, cur, target);
      });
      break;
    case TrajectoryGeometry::kXor:
      route_pairs([](const sim::flat::FlatCtx& c, sim::NodeId cur,
                     sim::NodeId target) {
        return sim::flat::step_xor(c, cur, target);
      });
      break;
  }
  return estimate;
}

sim::RoutabilityEstimate ChurnWorld::measure(std::uint64_t pairs) {
  return measure(pairs, measure_rng_);
}

double ChurnWorld::alive_fraction() const noexcept {
  return static_cast<double>(alive_count_) /
         static_cast<double>(space_.size());
}

double ChurnWorld::mean_entry_age() const {
  double total = 0.0;
  std::uint64_t counted = 0;
  const int d = space_.bits();
  for (std::uint64_t v = 0; v < space_.size(); ++v) {
    if (!alive(v)) {
      continue;
    }
    for (int level = 0; level < d; ++level) {
      total += round_ -
               refreshed_at_[v * static_cast<std::uint64_t>(d) +
                             static_cast<std::uint64_t>(level)];
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace dht::churn
