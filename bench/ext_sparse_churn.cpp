// Extension: dynamic membership -- joins, leaves, and successor-list
// repair in sparse identifier spaces (the fusion of the churn and sparse
// engines; churn/sparse_trajectory.hpp).
//
// Table 1 runs the headline bridge: N0 nodes (stationary) scattered in a
// 2^32 key space under live membership turnover, with joiners announcing
// themselves (Kademlia deep-bucket inserts / Chord predecessor notify).
// Measured routability is compared against the *static dense* model
// evaluated at the density-reduction scale d' = log2 N0 and the effective
// failure probability q_eff(R) -- i.e., both prior extensions composed:
// PR 2's churn bridge stacked on PR 4's density reduction.  q_nr, the
// no-return effective q (identities never come back; the bound the engine
// decays to without announcement), is printed alongside.
//
// Table 2 sweeps the paper's "sequential neighbors" under churn: the ring
// with s clockwise successors per node, per-round list repair (consult the
// list, rebuild on total loss), and predecessor notify, against the
// eager-repair knob rho.  Bare successor-of-key fingers (s = 0) decay
// badly at long refresh intervals; a handful of sequential neighbors
// restores near-perfect routability -- the paper's static claim, now
// demonstrated under real membership turnover.
//
// Table 3 runs lookups under LIVE churn on Kademlia: in-flight measurement
// (the world steps DURING each route, so a lookup can lose its next hop or
// its current holder mid-flight) x k-bucket width (k = 4 with LRU eviction
// vs the single-contact k = 1) x session model (geometric vs heavy-tailed
// Pareto at the same mean lifetime), under the harsh pd = pr = 0.05,
// R = 30 regime.  Wider buckets buy redundancy exactly where live churn
// hurts; heavy-tailed sessions HELP routability at equal mean (a fresh
// entry points at a node already proven long-lived -- the inspection
// paradox, and the reason Kademlia prefers its oldest contacts), tracked
// by the generalized q_nr bridge.
//
// Table 4 measures the heavy-traffic workload layer under churn: GETs for
// Zipf-popular objects served from an r-way replica group over the
// successor list (consistent-hashing placement; a GET succeeds if ANY of
// the r successor-list holders is reachable), with per-slot load
// accounting.  Availability climbs from routability toward ~1 as r grows
// -- the paper's resilience story restated for data, not just routes --
// while the Zipf skew concentrates load on the owners of hot objects.
//
// Flags: --threads N (0 = hardware)  --csv
#include <iostream>

#include "bench_util.hpp"
#include "churn/sparse_trajectory.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "obs/failure.hpp"
#include "sparse/density_analysis.hpp"

namespace {
constexpr std::uint64_t kPopulation = 4096;  // stationary N0
constexpr int kBits = 32;
constexpr std::uint64_t kShards = 8;
constexpr int kRounds = 4;
constexpr std::uint64_t kPairsPerRound = 600;
}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv, /*takes_threads=*/true);
  const auto threads = flags.threads;
  const auto xor_geo = core::make_geometry(core::GeometryKind::kXor);

  core::Table table(strfmt(
      "Sparse churn extension -- dynamic membership, N0 = %llu nodes "
      "(stationary) in a 2^%d key space, %llu replicas: measured "
      "routability %% vs the static dense model at d' = log2 N0 and q_eff",
      static_cast<unsigned long long>(kPopulation), kBits,
      static_cast<unsigned long long>(kShards)));
  table.set_header({"availability", "refresh R", "q_eff", "q_nr",
                    "static@q_eff %", "static@q_nr %", "sparse churn sim %",
                    "mean N"});
  std::uint64_t seed = 1;
  for (const double a : {0.9, 0.8}) {
    for (const int refresh : {1, 5, 20, 60}) {
      const double pd = 0.02;
      const double pr = a * pd / (1.0 - a);
      const churn::ChurnParams params{.death_per_round = pd,
                                      .rebirth_per_round = pr,
                                      .refresh_interval = refresh};
      const churn::SparseChurnConfig config{
          .bits = kBits,
          .capacity = churn::capacity_for_population(kPopulation, params),
          .successors = 0,
          .shortcuts = 6};
      const churn::TrajectoryOptions options{
          .warmup_rounds = 3 * refresh + 60,
          .measured_rounds = kRounds,
          .pairs_per_round = kPairsPerRound,
          .shards = kShards,
          .threads = threads};
      const auto result = run_sparse_churn_trajectory(
          churn::SparseChurnGeometry::kKademlia, config, params, options,
          math::Rng(seed));
      const double at_q_eff =
          sparse::predict_sparse_routability(*xor_geo, kPopulation,
                                             churn::effective_q(params))
              .conditional_success;
      const double at_q_nr =
          sparse::predict_sparse_routability(
              *xor_geo, kPopulation, churn::effective_q_no_return(params))
              .conditional_success;
      table.add_row({strfmt("%.2f", a), strfmt("%d", refresh),
                     strfmt("%.4f", churn::effective_q(params)),
                     strfmt("%.4f", churn::effective_q_no_return(params)),
                     bench::pct(at_q_eff), bench::pct(at_q_nr),
                     bench::pct(result.overall.routability()),
                     strfmt("%.0f", result.mean_population)});
      seed += 10;
    }
  }
  table.add_note(
      "both model columns are the static dense model at the density-"
      "reduction scale d' = log2 N0 (PR 4), evaluated at PR 2's churn "
      "bridge q_eff (identities return -- optimistic under dynamic "
      "membership) and at the no-return bridge "
      "q_nr = 1 - (1-(1-pd)^R)/(R pd) (pure entry decay).  The measured "
      "dynamic-membership system tracks the q_eff curve at short R (join "
      "announcement heals newcomer blindness there) and crosses over to "
      "the q_nr curve as R grows -- a few points below it at mid R, where "
      "blindness beyond the announce budget adds to entry decay, and above "
      "it at long R, where announcement keeps freshening entries the "
      "schedule would leave stale.  At full population the same engine "
      "pins the q_eff bridge itself (test_sparse_churn's dense-limit "
      "oracle)");
  dht::bench::emit(table, flags);

  // Sequential neighbors under churn: s x rho on the ring.
  core::Table grid(strfmt(
      "Successor lists under churn -- sparse ring, N0 = %llu in 2^%d keys, "
      "pd = pr = 0.05, R = 30: routability %% vs list length s and "
      "eager-repair rho",
      static_cast<unsigned long long>(kPopulation), kBits));
  grid.set_header(
      {"s", "rho", "sparse churn sim %", "mean hops", "mean entry age"});
  const churn::ChurnParams ring_params{.death_per_round = 0.05,
                                       .rebirth_per_round = 0.05,
                                       .refresh_interval = 30};
  churn::SparseChurnSweepSpec spec;
  spec.geometry = churn::SparseChurnGeometry::kChord;
  spec.bits = {kBits};
  spec.populations = {kPopulation};
  spec.churn = {ring_params};
  spec.repair = {0.0, 0.5};
  spec.successors = {0, 2, 4, 8};
  spec.options = churn::TrajectoryOptions{.warmup_rounds = 120,
                                          .measured_rounds = kRounds,
                                          .pairs_per_round = kPairsPerRound,
                                          .shards = kShards,
                                          .threads = threads};
  spec.seed = 1000;
  for (const auto& point : run_sparse_churn_sweep(spec)) {
    grid.add_row({strfmt("%d", point.successors),
                  strfmt("%.1f", point.repair_probability),
                  bench::pct(point.result.overall.routability()),
                  strfmt("%.2f", point.result.overall.mean_hops()),
                  strfmt("%.2f", point.result.mean_entry_age)});
  }
  grid.add_note(
      "s = 0 is the degenerate ring: arrival depends on the deepest finger "
      "pointing exactly at the (possibly new) target, so heavy turnover "
      "with R = 30 drops most routes even with eager repair; s >= 4 "
      "sequential neighbors with per-round list repair and predecessor "
      "notify restore near-perfect routability -- the paper's sequential-"
      "neighbors resilience story, demonstrated under dynamic membership");
  dht::bench::emit(grid, flags);

  // Lookups under live churn: in-flight x bucket width x session model.
  core::Table live(strfmt(
      "Lookups under live churn -- sparse kademlia, N0 = %llu in 2^%d keys, "
      "pd = pr = 0.05, R = 30: in-flight measurement x k-bucket width x "
      "session model",
      static_cast<unsigned long long>(kPopulation), kBits));
  live.set_header({"k", "session", "measurement", "q_nr model",
                   "sparse churn sim %", "mean hops",
                   "fail dead/hop/holder/collapse"});
  const churn::ChurnParams live_params{.death_per_round = 0.05,
                                       .rebirth_per_round = 0.05,
                                       .refresh_interval = 30};
  struct LiveRow {
    int k;
    churn::SessionKind session;
    bool inflight;
  };
  const LiveRow rows[] = {
      {1, churn::SessionKind::kGeometric, false},
      {1, churn::SessionKind::kGeometric, true},
      {4, churn::SessionKind::kGeometric, false},
      {4, churn::SessionKind::kGeometric, true},
      {1, churn::SessionKind::kPareto, true},
      {4, churn::SessionKind::kPareto, true},
  };
  std::uint64_t live_seed = 5000;
  for (const LiveRow& row : rows) {
    churn::SparseChurnConfig config{
        .bits = kBits,
        .capacity = churn::capacity_for_population(kPopulation, live_params),
        .successors = 0,
        .shortcuts = 6};
    config.bucket_k = row.k;
    config.session = churn::SessionModel{.kind = row.session,
                                         .pareto_alpha = 1.5};
    churn::TrajectoryOptions options{.warmup_rounds = 120,
                                     .measured_rounds = kRounds,
                                     .pairs_per_round = kPairsPerRound,
                                     .shards = kShards,
                                     .threads = threads};
    options.inflight = row.inflight;
    const auto result = run_sparse_churn_trajectory(
        churn::SparseChurnGeometry::kKademlia, config, live_params, options,
        math::Rng(live_seed));
    // Sync rows route 8 lanes at a time on the lane driver (the engine
    // default, bit-identical to scalar); in-flight rows are inherently
    // scalar -- the lifecycle sweep advances under every hop.
    live.add_row({strfmt("%d", row.k), churn::to_string(row.session),
                  row.inflight ? "in-flight (scalar)"
                               : "synchronous (batched)",
                  strfmt("%.4f",
                         churn::effective_q_no_return(live_params,
                                                      config.session)),
                  bench::pct(result.overall.routability()),
                  strfmt("%.2f", result.overall.mean_hops()),
                  strfmt("%llu/%llu/%llu/%llu",
                         static_cast<unsigned long long>(
                             result.overall.failures
                                 [obs::RouteFailure::kDeadEntry]),
                         static_cast<unsigned long long>(
                             result.overall.failures
                                 [obs::RouteFailure::kHopLimit]),
                         static_cast<unsigned long long>(
                             result.overall.failures
                                 [obs::RouteFailure::kHolderDeparted]),
                         static_cast<unsigned long long>(
                             result.overall.failures
                                 [obs::RouteFailure::kSuccessorCollapse]))});
    live_seed += 10;
  }
  live.add_note(
      "in-flight rows measure while membership and repairs advance "
      "mid-route (events-per-hop derived from the pair budget), so routes "
      "can lose their next hop -- or the node holding the message -- "
      "mid-flight; k = 4 buckets with dead-observed LRU eviction absorb "
      "most of that loss.  The pareto rows keep the mean session at 1/pd "
      "but heavy-tail it (alpha = 1.5): routability IMPROVES at equal "
      "mean, tracking the lower generalized q_nr -- fresh entries point "
      "at proven survivors, the inspection-paradox effect that justifies "
      "Kademlia's keep-the-oldest bucket policy.  The failure split "
      "classifies every dropped route (dead entry / hop limit / holder "
      "departed mid-flight / successor collapse): holder-departed is only "
      "reachable on in-flight rows, where the sweep can kill the node "
      "carrying the message between hops");
  dht::bench::emit(live, flags);

  // Availability under churn x replication: Zipf GETs on the ring.
  core::Table repl(strfmt(
      "Replicated GETs under churn -- sparse ring, N0 = %llu in 2^%d keys, "
      "pd = pr = 0.05, zipf s = 1.1: availability %% vs replication r and "
      "refresh R",
      static_cast<unsigned long long>(kPopulation), kBits));
  repl.set_header({"r", "refresh R", "routability %", "availability %",
                   "fail dead/collapse", "load max", "load p99", "load cv"});
  std::uint64_t repl_seed = 9000;
  for (const int refresh : {5, 30}) {
    const churn::ChurnParams repl_params{.death_per_round = 0.05,
                                         .rebirth_per_round = 0.05,
                                         .refresh_interval = refresh};
    for (const int r : {1, 2, 4, 8}) {
      churn::SparseChurnConfig config{
          .bits = kBits,
          .capacity = churn::capacity_for_population(kPopulation, repl_params),
          .successors = 4,
          .shortcuts = 6};
      config.replicas = r;
      config.zipf_s = 1.1;
      const churn::TrajectoryOptions options{
          .warmup_rounds = 3 * refresh + 60,
          .measured_rounds = kRounds,
          .pairs_per_round = kPairsPerRound,
          .shards = kShards,
          .threads = threads};
      const auto result = run_sparse_churn_trajectory(
          churn::SparseChurnGeometry::kChord, config, repl_params, options,
          math::Rng(repl_seed));
      repl.add_row({strfmt("%d", r), strfmt("%d", refresh),
                    bench::pct(result.overall.routability()),
                    bench::pct(result.overall.availability()),
                    strfmt("%llu/%llu",
                           static_cast<unsigned long long>(
                               result.overall.failures
                                   [obs::RouteFailure::kDeadEntry]),
                           static_cast<unsigned long long>(
                               result.overall.failures
                                   [obs::RouteFailure::kSuccessorCollapse])),
                    strfmt("%llu",
                           static_cast<unsigned long long>(result.load_max)),
                    strfmt("%.1f", result.load_p99),
                    strfmt("%.2f", result.load_cv)});
      repl_seed += 10;
    }
  }
  repl.add_note(
      "a GET fetches a Zipf-popular object from its consistent-hashing "
      "owner, falling back through the r - 1 clockwise successor replicas "
      "when the primary route fails; availability >= routability by "
      "construction, and each replica multiplies the miss rate by roughly "
      "the single-route failure probability until replica loss (all r "
      "holders departed) dominates.  Load columns digest per-slot forward "
      "counts: the Zipf head concentrates traffic on hot owners (cv well "
      "above the uniform baseline), the price of the availability win.  "
      "The failure split classifies dropped primary routes: dead-entry "
      "stalls (every candidate finger dead) vs successor collapse (the "
      "whole successor list dead at once), the s = 4 list's rare worst "
      "case");
  dht::bench::emit(repl, flags);
  return 0;
}
