// dhtscale_cli -- the library's command-line front end.
//
// Subcommands:
//   analyze <geometry> <d> <q>        one (d, q) point: routability, limits
//   sweep-q <geometry> <d>            failure sweep (the Fig. 6 axis)
//   sweep-n <geometry> <q>            size sweep (the Fig. 7(b) axis)
//   scalability [q]                   Section 5 verdict table
//   simulate <geometry> <d> <q> [pairs] [seed] [--threads N]
//                                     static-resilience measurement on the
//                                     parallel deterministic engine
//   sparse <geometry> <bits> <n> <q> [pairs] [seed] [--threads N]
//         [--shards S] [--zipf S] [--objects M] [--cache E] [--load]
//                                     N nodes scattered in a 2^bits key
//                                     space (ring | xor | symphony) on the
//                                     flattened sparse parallel engine, vs
//                                     the density-reduction prediction at
//                                     d' = log2 N.  --zipf draws GET
//                                     targets as the owners of Zipf-popular
//                                     objects (--objects, default one per
//                                     alive node), --cache adds E per-node
//                                     path-cache slots, --load reports the
//                                     per-node load distribution
//   churn <geometry> <d> <pd> <pr> <R> [rounds] [pairs] [seed]
//         [--threads N] [--shards S] [--rho RHO]
//                                     sharded dynamic trajectories (xor |
//                                     tree | ring) vs the static model at
//                                     q_eff
//   sparse-churn <geometry> <bits> <n0> <pd> <pr> <R> [rounds] [pairs]
//         [seed] [--threads N] [--shards S] [--rho RHO] [--succ S]
//         [--announce A] [--k K] [--inflight]
//         [--session geometric|pareto]
//         [--alpha A] [--replicas r] [--zipf S] [--objects M]
//                                     dynamic membership: N0 stationary
//                                     nodes in a 2^bits key space with
//                                     joins/leaves, successor lists, join
//                                     announcement, k-bucket Kademlia
//                                     (--k), in-flight lookup measurement
//                                     (--inflight: the world steps DURING
//                                     each route), and heavy-tailed
//                                     sessions (--session pareto), vs the
//                                     static dense model at d' = log2 N0
//                                     and q_eff / generalized q_nr.
//                                     --replicas measures GET availability
//                                     over an r-way successor replica
//                                     group, --zipf skews GET popularity,
//                                     and both report per-slot load
//   latency <geometry> <d> <q>        chain-predicted hops of survivors
//
// Geometries: tree | hypercube | xor | ring | symphony.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "churn/sparse_trajectory.hpp"
#include "churn/trajectory.hpp"
#include "common/flags.hpp"
#include "common/strfmt.hpp"
#include "sparse/density_analysis.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_symphony.hpp"
#include "core/latency.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "core/scalability.hpp"
#include "math/rng.hpp"
#include "sim/overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"

namespace {

using namespace dht;
using common::parse_double_flag;
using common::parse_int_flag;
using common::parse_threads_flag;
using common::parse_u64_flag;

constexpr std::uint64_t kAnyU64 = std::numeric_limits<std::uint64_t>::max();
constexpr int kAnyInt = std::numeric_limits<int>::max();

// The optional trailing [pairs] [seed] positionals, at positional[first]
// and positional[first + 1]; absent ones keep the caller's defaults.  A
// positional past them is rejected by name.
bool parse_pairs_seed(const char* command,
                      const std::vector<std::string>& positional,
                      std::size_t first, std::uint64_t& pairs,
                      std::uint64_t& seed) {
  if (positional.size() > first + 2) {
    std::cerr << command << ": unexpected argument: " << positional[first + 2]
              << "\n";
    return false;
  }
  return (positional.size() <= first ||
          parse_u64_flag(command, "pairs", positional[first].c_str(), 0,
                         kAnyU64, pairs)) &&
         (positional.size() <= first + 1 ||
          parse_u64_flag(command, "seed", positional[first + 1].c_str(), 0,
                         kAnyU64, seed));
}

int usage() {
  std::cerr <<
      "usage: dhtscale_cli <command> [...]\n"
      "  analyze <geometry> <d> <q>\n"
      "  sweep-q <geometry> <d>\n"
      "  sweep-n <geometry> <q>\n"
      "  scalability [q]\n"
      "  simulate <geometry> <d> <q> [pairs] [seed] [--threads N]\n"
      "  sparse <geometry> <bits> <n> <q> [pairs] [seed] [--threads N]\n"
      "         [--shards S] [--zipf S] [--objects M] [--cache E] [--load]\n"
      "                 (ring | xor | symphony; N nodes in 2^bits keys)\n"
      "  churn <geometry> <d> <pd> <pr> <R> [rounds] [pairs] [seed]\n"
      "        [--threads N] [--shards S] [--rho RHO]   (xor | tree | ring)\n"
      "  sparse-churn <geometry> <bits> <n0> <pd> <pr> <R> [rounds] [pairs]\n"
      "        [seed] [--threads N] [--shards S] [--rho RHO] [--succ S]\n"
      "        [--announce A] [--k K] [--inflight]\n"
      "        [--session geometric|pareto] [--alpha A]\n"
      "        [--replicas r] [--zipf S] [--objects M]\n"
      "        [--trace-routes K --trace-out FILE]\n"
      "                 (ring | xor | symphony; dynamic membership;\n"
      "                  --trace-routes samples ~K hop-by-hop route\n"
      "                  forensics records into FILE as JSONL -- sync\n"
      "                  mode only, never perturbs the estimates)\n"
      "  latency <geometry> <d> <q>\n"
      "geometries: tree | hypercube | xor | ring | symphony\n";
  return 1;
}

// An argument starting with "--" that no flag branch of `command` took:
// an unknown flag, or a known one given last with no value.  Names it,
// prints the usage and returns 1.
int reject_flag(const char* command, const std::string& arg) {
  std::cerr << command << ": unknown flag or flag without a value: " << arg
            << "\n";
  return usage();
}

// Boundary validation of the churn lifecycle arguments: a usage-style
// message naming the offending flag, instead of the deep DHT_CHECK throw
// from churn.cpp's check_params surfacing as "error: precondition failed".
bool validate_lifecycle_args(const char* command, double pd, double pr,
                             int refresh) {
  if (!(pd > 0.0 && pd < 1.0)) {
    std::cerr << command << ": <pd> must be in (0, 1), got " << pd << "\n";
    return false;
  }
  if (!(pr > 0.0 && pr < 1.0)) {
    std::cerr << command << ": <pr> must be in (0, 1), got " << pr << "\n";
    return false;
  }
  if (pd + pr > 1.0) {
    std::cerr << command << ": <pd> + <pr> must not exceed 1, got "
              << pd + pr << "\n";
    return false;
  }
  if (refresh < 1) {
    std::cerr << command << ": <R> (--refresh) must be >= 1, got " << refresh
              << "\n";
    return false;
  }
  return true;
}

bool validate_rho(const char* command, double rho) {
  if (!(rho >= 0.0 && rho <= 1.0)) {
    std::cerr << command << ": --rho must be in [0, 1], got " << rho << "\n";
    return false;
  }
  return true;
}

int cmd_analyze(const std::string& name, int d, double q) {
  const auto geometry = core::make_geometry(name);
  const auto point = core::evaluate_routability(*geometry, d, q);
  std::cout << strfmt("geometry:            %s (%s)\n",
                      std::string(geometry->name()).c_str(),
                      std::string(geometry->dht_system()).c_str());
  std::cout << strfmt("N = 2^%d, q = %.4f\n", d, q);
  std::cout << strfmt("routability (Eq. 3): %.6f\n", point.routability);
  std::cout << strfmt("failed paths:        %.6f\n", point.failed_fraction);
  std::cout << strfmt("model exactness:     %s\n",
                      to_string(geometry->exactness()));
  if (q > 0.0) {
    const auto report = core::analyze_scalability(*geometry, q);
    std::cout << strfmt("scalability:         %s (numeric: %s, %s)\n",
                        to_string(report.analytic),
                        math::to_string(report.numeric.verdict),
                        report.numeric_agrees ? "agree" : "DISAGREE");
    std::cout << strfmt("limit routability:   %.6f\n",
                        report.limit_routability);
    std::cout << "argument:            "
              << std::string(geometry->scalability_argument()) << "\n";
  }
  return 0;
}

int cmd_sweep_q(const std::string& name, int d) {
  const auto geometry = core::make_geometry(name);
  core::Table table(
      strfmt("%s: routability vs q at N = 2^%d", name.c_str(), d));
  table.set_header({"q", "routability", "failed_fraction"});
  for (int percent = 0; percent <= 95; percent += 5) {
    const double q = percent / 100.0;
    const auto point = core::evaluate_routability(*geometry, d, q);
    table.add_row({strfmt("%.2f", q), strfmt("%.6f", point.routability),
                   strfmt("%.6f", point.failed_fraction)});
  }
  table.print_csv(std::cout);
  return 0;
}

int cmd_sweep_n(const std::string& name, double q) {
  const auto geometry = core::make_geometry(name);
  core::Table table(
      strfmt("%s: routability vs system size at q = %.2f", name.c_str(), q));
  table.set_header({"d", "N", "routability"});
  for (int d : {4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 64, 80, 100}) {
    const auto point = core::evaluate_routability(*geometry, d, q);
    table.add_row({strfmt("%d", d), strfmt("%.3e", std::exp2(d)),
                   strfmt("%.6f", point.routability)});
  }
  table.add_row({"inf", "inf",
                 strfmt("%.6f", core::limit_routability(*geometry, q))});
  table.print_csv(std::cout);
  return 0;
}

int cmd_scalability(double q) {
  core::Table table(strfmt("scalability under random failure (q = %.2f)", q));
  table.set_header({"geometry", "verdict", "numeric", "limit routability"});
  for (const auto& geometry : core::make_all_geometries()) {
    const auto report = core::analyze_scalability(*geometry, q);
    table.add_row({std::string(geometry->name()), to_string(report.analytic),
                   math::to_string(report.numeric.verdict),
                   strfmt("%.6f", report.limit_routability)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_simulate(const std::string& name, int d, double q,
                 std::uint64_t pairs, std::uint64_t seed, unsigned threads) {
  const sim::IdSpace space(d);
  math::Rng rng(seed);
  const auto overlay = sim::make_overlay(name, space, rng);
  if (overlay == nullptr) {
    return usage();
  }
  const sim::FailureScenario failures(space, q, rng);
  // lint:allow(wallclock) printed wall-time only, never an estimate input
  const auto start = std::chrono::steady_clock::now();
  const auto estimate = sim::estimate_routability_parallel(
      *overlay, failures, {.pairs = pairs, .threads = threads}, rng);
  const double seconds =
      // lint:allow(wallclock) printed wall-time only, never an estimate input
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto ci = estimate.confidence95();
  const auto geometry = core::make_geometry(name);
  const auto point = core::evaluate_routability(*geometry, d, q);
  std::cout << strfmt("simulated routability: %.6f  (95%% CI [%.6f, %.6f])\n",
                      estimate.routability(), ci.lo, ci.hi);
  std::cout << strfmt("analytical prediction: %.6f  (%s)\n",
                      point.conditional_success,
                      to_string(geometry->exactness()));
  std::cout << strfmt("mean hops on success:  %.3f\n", estimate.hops.mean());
  std::cout << strfmt("alive nodes:           %llu / %llu\n",
                      static_cast<unsigned long long>(failures.alive_count()),
                      static_cast<unsigned long long>(space.size()));
  // Mirror the engine's thread resolution (hardware count, at least 1).
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned effective = threads != 0 ? threads : (hw == 0 ? 1 : hw);
  std::cout << strfmt("throughput:            %.0f routes/sec (%u threads)\n",
                      static_cast<double>(pairs) / seconds, effective);
  return 0;
}

int cmd_sparse(const std::string& name, int bits, std::uint64_t n, double q,
               std::uint64_t pairs, std::uint64_t seed, unsigned threads,
               std::uint64_t shards, double zipf_s, std::uint64_t objects,
               int cache_entries, bool record_load) {
  if (!(std::isfinite(zipf_s) && zipf_s >= 0.0)) {
    std::cerr << "sparse: --zipf must be a finite skew >= 0, got " << zipf_s
              << "\n";
    return 1;
  }
  math::Rng rng(seed);
  // lint:allow(wallclock) printed wall-time only, never an estimate input
  const auto build_start = std::chrono::steady_clock::now();
  const sparse::SparseIdSpace space(bits, n, rng);
  std::unique_ptr<sparse::SparseOverlay> overlay;
  if (name == "ring") {
    overlay = std::make_unique<sparse::SparseChordOverlay>(space);
  } else if (name == "xor") {
    overlay = std::make_unique<sparse::SparseKademliaOverlay>(space, rng);
  } else if (name == "symphony") {
    overlay = std::make_unique<sparse::SparseSymphonyOverlay>(space, 1, 1, rng);
  } else {
    std::cerr << "sparse: geometry must be ring, xor, or symphony\n";
    return usage();
  }
  const double build_seconds =
      // lint:allow(wallclock) printed wall-time only, never an estimate input
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    build_start)
          .count();
  const sparse::SparseFailure failures(space, q, rng);
  sparse::SparseParallelOptions options{
      .pairs = pairs, .threads = threads, .shards = shards};
  options.workload.zipf_s = zipf_s;
  options.workload.objects = objects;
  options.workload.cache_entries = cache_entries;
  options.workload.record_load = record_load;
  // lint:allow(wallclock) printed wall-time only, never an estimate input
  const auto start = std::chrono::steady_clock::now();
  const auto report = sparse::estimate_workload_parallel(*overlay, failures,
                                                         options, rng);
  const auto& estimate = report.estimate;
  const double seconds =
      // lint:allow(wallclock) printed wall-time only, never an estimate input
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::cout << strfmt(
      "sparse %s: N = %llu nodes in a 2^%d key space (density %.3e)\n",
      std::string(overlay->name()).c_str(), static_cast<unsigned long long>(n),
      bits, space.density());
  if (zipf_s > 0.0) {
    std::cout << strfmt(
        "workload:              zipf s = %.2f over %llu objects\n", zipf_s,
        static_cast<unsigned long long>(objects != 0 ? objects
                                                     : failures.alive_count()));
  }
  std::cout << strfmt("measured routability:  %.6f\n", estimate.routability());
  if (cache_entries > 0) {
    std::cout << strfmt(
        "path cache:            %d slots/node, hit rate %.4f "
        "(%llu/%llu probes)\n",
        cache_entries, estimate.cache_hit_rate(),
        static_cast<unsigned long long>(estimate.cache_hits),
        static_cast<unsigned long long>(estimate.cache_probes));
  }
  if (record_load) {
    std::cout << strfmt(
        "per-node load:         max %llu, p99 %llu, mean %.2f, cv %.4f "
        "(%llu forwards over %llu alive nodes)\n",
        static_cast<unsigned long long>(report.load.max),
        static_cast<unsigned long long>(report.load.p99), report.load.mean,
        report.load.cv, static_cast<unsigned long long>(report.load.total),
        static_cast<unsigned long long>(report.load.nodes));
  }
  if (name != "symphony") {
    // The density reduction: the dense model evaluated at d' = log2 N.
    const auto geometry = core::make_geometry(name);
    const auto point = sparse::predict_sparse_routability(*geometry, n, q);
    std::cout << strfmt(
        "dense model at d'=%d:  %.6f  (density reduction; %s)\n",
        sparse::effective_bits(n), point.conditional_success,
        to_string(geometry->exactness()));
  }
  std::cout << strfmt("mean hops on success:  %.3f\n", estimate.mean_hops());
  std::cout << strfmt("alive nodes:           %llu / %llu\n",
                      static_cast<unsigned long long>(failures.alive_count()),
                      static_cast<unsigned long long>(n));
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned effective = threads != 0 ? threads : (hw == 0 ? 1 : hw);
  std::cout << strfmt(
      "throughput:            %.0f routes/sec (%u threads; tables built "
      "in %.2fs)\n",
      static_cast<double>(pairs) / seconds, effective, build_seconds);
  return 0;
}

int cmd_churn(const std::string& name, int d, double pd, double pr,
              int refresh, int rounds, std::uint64_t pairs,
              std::uint64_t seed, unsigned threads, std::uint64_t shards,
              double rho) {
  churn::TrajectoryGeometry geometry;
  if (!churn::trajectory_geometry_from_name(name, geometry)) {
    std::cerr << "churn: geometry must be xor, tree, or ring\n";
    return usage();
  }
  if (!validate_lifecycle_args("churn", pd, pr, refresh) ||
      !validate_rho("churn", rho)) {
    return 1;
  }
  const sim::IdSpace space(d);
  const churn::ChurnParams params{.death_per_round = pd,
                                  .rebirth_per_round = pr,
                                  .refresh_interval = refresh};
  const churn::TrajectoryOptions options{.warmup_rounds = 3 * refresh + 30,
                                         .measured_rounds = rounds,
                                         .pairs_per_round = pairs,
                                         .shards = shards,
                                         .threads = threads,
                                         .repair_probability = rho};
  const math::Rng rng(seed);
  // lint:allow(wallclock) printed wall-time only, never an estimate input
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      churn::run_churn_trajectory(geometry, space, params, options, rng);
  const double seconds =
      // lint:allow(wallclock) printed wall-time only, never an estimate input
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double q_eff = churn::effective_q(params);
  const auto geometry_core = core::make_geometry(name);
  const auto point = core::evaluate_routability(*geometry_core, d, q_eff);
  const auto ci = result.overall.confidence95();
  std::cout << strfmt(
      "churn trajectory:      %s, N = 2^%d, %llu shard replicas, "
      "%d+%d rounds\n",
      churn::to_string(geometry), d,
      static_cast<unsigned long long>(result.shards),
      options.warmup_rounds, rounds);
  std::cout << strfmt(
      "lifecycle:             pd = %.4f, pr = %.4f, a = %.4f, R = %d, "
      "rho = %.2f\n",
      pd, pr, churn::availability(params), refresh, rho);
  std::cout << strfmt("effective q (q_eff):   %.6f\n", q_eff);
  std::cout << strfmt("dynamic routability:   %.6f  (95%% CI [%.6f, %.6f])\n",
                      result.overall.routability(), ci.lo, ci.hi);
  std::cout << strfmt("static model at q_eff: %.6f  (%s)\n",
                      point.conditional_success,
                      to_string(geometry_core->exactness()));
  std::cout << strfmt("mean hops on success:  %.3f\n",
                      result.overall.hops.mean());
  std::cout << strfmt("mean alive fraction:   %.4f\n",
                      result.mean_alive_fraction);
  std::cout << strfmt("mean entry age:        %.2f rounds\n",
                      result.mean_entry_age);
  // Wall time covers world evolution (warmup + measured rounds) plus the
  // route sampling, so report trajectory throughput, not routes/sec.
  const double shard_rounds =
      static_cast<double>(result.shards) *
      static_cast<double>(options.warmup_rounds + rounds);
  std::cout << strfmt(
      "throughput:            %.0f shard-rounds/sec (%llu routes sampled "
      "in %.2fs)\n",
      shard_rounds / seconds,
      static_cast<unsigned long long>(result.overall.routed.trials),
      seconds);
  return 0;
}

// Serializes the forensics traces as JSONL: one route per line, hops
// inline, so two runs (or two builds) can be diffed route by route with
// standard line tools.
bool write_route_traces(const std::string& path,
                        const std::vector<obs::RouteTrace>& traces) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const obs::RouteTrace& t : traces) {
    out << strfmt(
        "{\"shard\":%llu,\"round\":%llu,\"pair_index\":%llu,"
        "\"source_slot\":%lu,\"source_id\":%llu,\"target_id\":%llu,"
        "\"status\":\"%s\",\"hops\":[",
        static_cast<unsigned long long>(t.shard),
        static_cast<unsigned long long>(t.round),
        static_cast<unsigned long long>(t.pair_index),
        static_cast<unsigned long>(t.source_slot),
        static_cast<unsigned long long>(t.source_id),
        static_cast<unsigned long long>(t.target_id),
        t.status == 0 ? "arrived" : (t.status == 1 ? "dropped" : "hop_limit"));
    for (std::size_t h = 0; h < t.hops.size(); ++h) {
      const obs::RouteHop& hop = t.hops[h];
      out << strfmt("%s{\"slot\":%lu,\"id\":%llu,\"rank\":%d,\"gen_ok\":%s}",
                    h == 0 ? "" : ",", static_cast<unsigned long>(hop.slot),
                    static_cast<unsigned long long>(hop.id), hop.rank,
                    hop.gen_ok != 0 ? "true" : "false");
    }
    out << "]}\n";
  }
  return static_cast<bool>(out);
}

int cmd_sparse_churn(const std::string& name, int bits, std::uint64_t n0,
                     double pd, double pr, int refresh, int rounds,
                     std::uint64_t pairs, std::uint64_t seed,
                     unsigned threads, std::uint64_t shards, double rho,
                     int succ, int announce, int bucket_k, bool inflight,
                     const churn::SessionModel& session,
                     int replicas, double zipf_s, std::uint64_t objects,
                     std::uint64_t trace_routes,
                     const std::string& trace_out) {
  churn::SparseChurnGeometry geometry;
  if (!churn::sparse_churn_geometry_from_name(name, geometry)) {
    std::cerr << "sparse-churn: geometry must be ring, xor, or symphony\n";
    return usage();
  }
  if (trace_routes > 0 && inflight) {
    std::cerr << "sparse-churn: --trace-routes needs the round-synchronous "
                 "mode (drop --inflight); in-flight routes have no frozen "
                 "snapshot to re-route against\n";
    return 1;
  }
  if (trace_routes > 0 && trace_out.empty()) {
    std::cerr << "sparse-churn: --trace-routes needs --trace-out FILE for "
                 "the forensics JSONL\n";
    return 1;
  }
  if (!validate_lifecycle_args("sparse-churn", pd, pr, refresh) ||
      !validate_rho("sparse-churn", rho)) {
    return 1;
  }
  if (session.kind == churn::SessionKind::kPareto &&
      !(session.pareto_alpha > 1.0)) {
    std::cerr << "sparse-churn: --alpha must be > 1 (finite mean session), "
              << "got " << session.pareto_alpha << "\n";
    return 1;
  }
  if (!(std::isfinite(zipf_s) && zipf_s >= 0.0)) {
    std::cerr << "sparse-churn: --zipf must be a finite skew >= 0, got "
              << zipf_s << "\n";
    return 1;
  }
  const churn::ChurnParams params{.death_per_round = pd,
                                  .rebirth_per_round = pr,
                                  .refresh_interval = refresh};
  churn::SparseChurnConfig config;
  config.bits = bits;
  config.capacity = churn::capacity_for_population(n0, params);
  config.successors = succ;
  config.announce = announce;
  config.bucket_k = bucket_k;
  config.session = session;
  config.replicas = replicas;
  config.zipf_s = zipf_s;
  config.objects = objects;
  churn::TrajectoryOptions options{.warmup_rounds = 3 * refresh + 30,
                                   .measured_rounds = rounds,
                                   .pairs_per_round = pairs,
                                   .shards = shards,
                                   .threads = threads,
                                   .repair_probability = rho,
                                   .inflight = inflight};
  options.trace_routes = trace_routes;
  const math::Rng rng(seed);
  // lint:allow(wallclock) printed wall-time only, never an estimate input
  const auto start = std::chrono::steady_clock::now();
  const auto result = churn::run_sparse_churn_trajectory(geometry, config,
                                                         params, options, rng);
  const double seconds =
      // lint:allow(wallclock) printed wall-time only, never an estimate input
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double q_eff = churn::effective_q(params);
  std::cout << strfmt(
      "sparse churn:          %s, N0 = %llu (capacity %llu slots) in a 2^%d "
      "key space, %llu replicas\n",
      churn::to_string(geometry), static_cast<unsigned long long>(n0),
      static_cast<unsigned long long>(config.capacity), bits,
      static_cast<unsigned long long>(result.shards));
  std::cout << strfmt(
      "lifecycle:             pd = %.4f, pr = %.4f, a = %.4f, R = %d, "
      "rho = %.2f, s = %d, announce = %d, k = %d\n",
      pd, pr, churn::availability(params), refresh, rho, succ, announce,
      bucket_k);
  std::cout << strfmt(
      "sessions:              %s%s, mean 1/pd = %.1f rounds; measurement %s\n",
      churn::to_string(session.kind),
      session.kind == churn::SessionKind::kPareto
          ? strfmt(" (alpha = %.2f)", session.pareto_alpha).c_str()
          : "",
      1.0 / pd, inflight ? "in-flight (world steps during routes; scalar)"
                         : "round-synchronous (batched)");
  std::cout << strfmt(
      "effective q (q_eff):   %.6f  (no-return q_nr: %.6f, %s q_nr: %.6f)\n",
      q_eff, churn::effective_q_no_return(params),
      churn::to_string(session.kind),
      churn::effective_q_no_return(params, session));
  std::cout << strfmt("dynamic routability:   %.6f\n",
                      result.overall.routability());
  const obs::FailureTaxonomy& fails = result.overall.failures;
  std::cout << strfmt(
      "route failures:        dead_entry %llu, hop_limit %llu, "
      "holder_departed %llu, succ_collapse %llu (of %llu attempts)\n",
      static_cast<unsigned long long>(
          fails[obs::RouteFailure::kDeadEntry]),
      static_cast<unsigned long long>(
          fails[obs::RouteFailure::kHopLimit]),
      static_cast<unsigned long long>(
          fails[obs::RouteFailure::kHolderDeparted]),
      static_cast<unsigned long long>(
          fails[obs::RouteFailure::kSuccessorCollapse]),
      static_cast<unsigned long long>(result.overall.attempts));
  if (replicas > 1 || zipf_s > 0.0) {
    std::cout << strfmt(
        "GET availability:      %.6f  (r = %d replicas, zipf s = %.2f, "
        "%llu/%llu GETs served)\n",
        result.overall.availability(), replicas, zipf_s,
        static_cast<unsigned long long>(result.overall.gets_available),
        static_cast<unsigned long long>(result.overall.gets));
    std::cout << strfmt(
        "per-slot load:         max %llu, p99 %.1f, cv %.4f\n",
        static_cast<unsigned long long>(result.load_max), result.load_p99,
        result.load_cv);
  }
  if (name != "symphony") {
    // Both prior extensions composed: the dense model at the density-
    // reduction scale d' = log2 N0, evaluated at the churn bridge q_eff.
    const auto geometry_core = core::make_geometry(name);
    const auto point =
        sparse::predict_sparse_routability(*geometry_core, n0, q_eff);
    std::cout << strfmt(
        "dense model d'=%d@q_eff: %.6f  (density reduction x churn bridge; "
        "%s)\n",
        sparse::effective_bits(n0), point.conditional_success,
        to_string(geometry_core->exactness()));
  }
  std::cout << strfmt("mean hops on success:  %.3f\n",
                      result.overall.mean_hops());
  std::cout << strfmt(
      "mean population:       %.1f (alive fraction %.4f of capacity)\n",
      result.mean_population, result.mean_alive_fraction);
  std::cout << strfmt("mean entry age:        %.2f rounds\n",
                      result.mean_entry_age);
  const double shard_rounds =
      static_cast<double>(result.shards) *
      static_cast<double>(options.warmup_rounds + rounds);
  std::cout << strfmt(
      "throughput:            %.0f shard-rounds/sec (%llu routes sampled "
      "in %.2fs)\n",
      shard_rounds / seconds,
      static_cast<unsigned long long>(result.overall.attempts), seconds);
  if (trace_routes > 0) {
    if (!write_route_traces(trace_out, result.traces)) {
      std::cerr << "sparse-churn: cannot write route traces to " << trace_out
                << "\n";
      return 1;
    }
    std::cout << strfmt("route forensics:       %llu hop-by-hop traces -> %s\n",
                        static_cast<unsigned long long>(result.traces.size()),
                        trace_out.c_str());
  }
  return 0;
}

int cmd_latency(const std::string& name, int d, double q) {
  const auto geometry = core::make_geometry(name);
  const auto point = core::expected_latency(*geometry, d, q);
  std::cout << strfmt(
      "chain-predicted mean hops of successful routes: %.4f\n",
      point.mean_hops_given_success);
  std::cout << strfmt("fraction of pairs routable: %.6f\n",
                      point.success_fraction);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    // Every number parses strictly (common/flags.hpp): "8x" or "0.1abc"
    // fails with exit 1 instead of silently running a different config.
    if (command == "analyze" && argc == 5) {
      int d = 0;
      double q = 0.0;
      if (!parse_int_flag("analyze", "<d>", argv[3], 1, kAnyInt, d) ||
          !parse_double_flag("analyze", "<q>", argv[4], q)) {
        return 1;
      }
      return cmd_analyze(argv[2], d, q);
    }
    if (command == "sweep-q" && argc == 4) {
      int d = 0;
      if (!parse_int_flag("sweep-q", "<d>", argv[3], 1, kAnyInt, d)) {
        return 1;
      }
      return cmd_sweep_q(argv[2], d);
    }
    if (command == "sweep-n" && argc == 4) {
      double q = 0.0;
      if (!parse_double_flag("sweep-n", "<q>", argv[3], q)) {
        return 1;
      }
      return cmd_sweep_n(argv[2], q);
    }
    if (command == "scalability") {
      double q = 0.1;
      if (argc >= 3 && !parse_double_flag("scalability", "[q]", argv[2], q)) {
        return 1;
      }
      return cmd_scalability(q);
    }
    if (command == "simulate" && argc >= 5) {
      // Positional [pairs] [seed], then an optional trailing --threads N.
      unsigned threads = 0;
      std::vector<std::string> positional;
      for (int i = 5; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
          if (!parse_threads_flag("simulate", argv[i + 1], threads)) {
            return 1;
          }
          ++i;
        } else if (arg.rfind("--", 0) == 0) {
          return reject_flag("simulate", arg);
        } else {
          positional.push_back(arg);
        }
      }
      int d = 0;
      double q = 0.0;
      std::uint64_t pairs = 20000;
      std::uint64_t seed = 1;
      // d is capped at 20 by the tree/xor tables' memory.
      if (!parse_int_flag("simulate", "<d>", argv[3], 1, 20, d) ||
          !parse_double_flag("simulate", "<q>", argv[4], q) ||
          !parse_pairs_seed("simulate", positional, 0, pairs, seed)) {
        return 1;
      }
      return cmd_simulate(argv[2], d, q, pairs, seed, threads);
    }
    if (command == "sparse" && argc >= 6) {
      // Positional [pairs] [seed], then optional --threads / --shards /
      // workload flags.
      unsigned threads = 0;
      std::uint64_t shards = 0;
      double zipf_s = 0.0;
      std::uint64_t objects = 0;
      int cache_entries = 0;
      bool record_load = false;
      std::vector<std::string> positional;
      for (int i = 6; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
          if (!parse_threads_flag("sparse", argv[i + 1], threads)) {
            return 1;
          }
          ++i;
        } else if (arg == "--shards" && i + 1 < argc) {
          if (!parse_u64_flag("sparse", "--shards", argv[i + 1], 0, kAnyU64,
                              shards)) {
            return 1;
          }
          ++i;
        } else if (arg == "--zipf" && i + 1 < argc) {
          if (!parse_double_flag("sparse", "--zipf", argv[i + 1], zipf_s)) {
            return 1;
          }
          ++i;
        } else if (arg == "--objects" && i + 1 < argc) {
          if (!parse_u64_flag("sparse", "--objects", argv[i + 1], 0,
                              std::uint64_t{1} << 26, objects)) {
            return 1;
          }
          ++i;
        } else if (arg == "--cache" && i + 1 < argc) {
          if (!parse_int_flag("sparse", "--cache", argv[i + 1], 0,
                              sparse::SparseWorkloadOptions::kMaxCacheEntries,
                              cache_entries)) {
            return 1;
          }
          ++i;
        } else if (arg == "--load") {
          record_load = true;
        } else if (arg.rfind("--", 0) == 0) {
          return reject_flag("sparse", arg);
        } else {
          positional.push_back(arg);
        }
      }
      int bits = 0;
      std::uint64_t n = 0;
      double q = 0.0;
      std::uint64_t pairs = 20000;
      std::uint64_t seed = 1;
      if (!parse_int_flag("sparse", "<bits>", argv[3], 1, 63, bits) ||
          !parse_u64_flag("sparse", "<n>", argv[4], 1, std::uint64_t{1} << 26,
                          n) ||
          !parse_double_flag("sparse", "<q>", argv[5], q) ||
          !parse_pairs_seed("sparse", positional, 0, pairs, seed)) {
        return 1;
      }
      return cmd_sparse(argv[2], bits, n, q, pairs, seed, threads, shards,
                        zipf_s, objects, cache_entries, record_load);
    }
    if (command == "churn" && argc >= 7) {
      // Positional [rounds] [pairs] [seed], then optional --threads /
      // --shards / --rho flag pairs in any order.
      unsigned threads = 0;
      std::uint64_t shards = 0;
      double rho = 0.0;
      std::vector<std::string> positional;
      for (int i = 7; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
          if (!parse_threads_flag("churn", argv[i + 1], threads)) {
            return 1;
          }
          ++i;
        } else if (arg == "--shards" && i + 1 < argc) {
          if (!parse_u64_flag("churn", "--shards", argv[i + 1], 0, kAnyU64,
                              shards)) {
            return 1;
          }
          ++i;
        } else if (arg == "--rho" && i + 1 < argc) {
          if (!parse_double_flag("churn", "--rho", argv[i + 1], rho)) {
            return 1;
          }
          ++i;
        } else if (arg.rfind("--", 0) == 0) {
          return reject_flag("churn", arg);
        } else {
          positional.push_back(arg);
        }
      }
      int d = 0;
      double pd = 0.0;
      double pr = 0.0;
      int refresh = 0;
      int rounds = 5;
      std::uint64_t pairs = 1000;
      std::uint64_t seed = 1;
      // d is capped at 16: each shard evolves a full replica.
      if (!parse_int_flag("churn", "<d>", argv[3], 1, 16, d) ||
          !parse_double_flag("churn", "<pd>", argv[4], pd) ||
          !parse_double_flag("churn", "<pr>", argv[5], pr) ||
          !parse_int_flag("churn", "<R>", argv[6], 1, kAnyInt, refresh) ||
          (!positional.empty() &&
           !parse_int_flag("churn", "rounds", positional[0].c_str(), 1,
                           kAnyInt, rounds)) ||
          !parse_pairs_seed("churn", positional, 1, pairs, seed)) {
        return 1;
      }
      return cmd_churn(argv[2], d, pd, pr, refresh, rounds, pairs, seed,
                       threads, shards, rho);
    }
    if (command == "sparse-churn" && argc >= 8) {
      // Positional [rounds] [pairs] [seed], then optional flag pairs.
      unsigned threads = 0;
      std::uint64_t shards = 0;
      double rho = 0.0;
      int succ = 4;
      int announce = 8;
      int bucket_k = 1;
      bool inflight = false;
      churn::SessionModel session;
      int replicas = 1;
      double zipf_s = 0.0;
      std::uint64_t objects = 0;
      std::uint64_t trace_routes = 0;
      std::string trace_out;
      std::vector<std::string> positional;
      for (int i = 8; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
          if (!parse_threads_flag("sparse-churn", argv[i + 1], threads)) {
            return 1;
          }
          ++i;
        } else if (arg == "--shards" && i + 1 < argc) {
          if (!parse_u64_flag("sparse-churn", "--shards", argv[i + 1], 0,
                              kAnyU64, shards)) {
            return 1;
          }
          ++i;
        } else if (arg == "--rho" && i + 1 < argc) {
          if (!parse_double_flag("sparse-churn", "--rho", argv[i + 1], rho)) {
            return 1;
          }
          ++i;
        } else if (arg == "--succ" && i + 1 < argc) {
          if (!parse_int_flag("sparse-churn", "--succ", argv[i + 1], 0, 64,
                              succ)) {
            return 1;
          }
          ++i;
        } else if (arg == "--announce" && i + 1 < argc) {
          if (!parse_int_flag("sparse-churn", "--announce", argv[i + 1], 0,
                              kAnyInt, announce)) {
            return 1;
          }
          ++i;
        } else if (arg == "--k" && i + 1 < argc) {
          if (!parse_int_flag("sparse-churn", "--k", argv[i + 1], 1, 64,
                              bucket_k)) {
            return 1;
          }
          ++i;
        } else if (arg == "--inflight") {
          inflight = true;
        } else if (arg == "--session" && i + 1 < argc) {
          churn::SessionKind kind;
          if (!churn::session_kind_from_name(argv[i + 1], kind)) {
            std::cerr << "sparse-churn: --session must be geometric or "
                         "pareto, got "
                      << argv[i + 1] << "\n";
            return 1;
          }
          session.kind = kind;
          ++i;
        } else if (arg == "--alpha" && i + 1 < argc) {
          if (!parse_double_flag("sparse-churn", "--alpha", argv[i + 1],
                                 session.pareto_alpha)) {
            return 1;
          }
          ++i;
        } else if (arg == "--replicas" && i + 1 < argc) {
          if (!parse_int_flag("sparse-churn", "--replicas", argv[i + 1], 1,
                              64, replicas)) {
            return 1;
          }
          ++i;
        } else if (arg == "--zipf" && i + 1 < argc) {
          if (!parse_double_flag("sparse-churn", "--zipf", argv[i + 1],
                                 zipf_s)) {
            return 1;
          }
          ++i;
        } else if (arg == "--objects" && i + 1 < argc) {
          if (!parse_u64_flag("sparse-churn", "--objects", argv[i + 1], 0,
                              std::uint64_t{1} << 26, objects)) {
            return 1;
          }
          ++i;
        } else if (arg == "--trace-routes" && i + 1 < argc) {
          if (!parse_u64_flag("sparse-churn", "--trace-routes", argv[i + 1],
                              0, kAnyU64, trace_routes)) {
            return 1;
          }
          ++i;
        } else if (arg == "--trace-out" && i + 1 < argc) {
          trace_out = argv[i + 1];
          ++i;
        } else if (arg.rfind("--", 0) == 0) {
          return reject_flag("sparse-churn", arg);
        } else {
          positional.push_back(arg);
        }
      }
      // The world positionals parse as strictly as the flags: "32x" or
      // "1e6" must not silently run a different config.
      int bits = 0;
      std::uint64_t n0 = 0;
      double pd = 0.0;
      double pr = 0.0;
      int refresh = 0;
      if (!parse_int_flag("sparse-churn", "<bits>", argv[3], 1, 63, bits) ||
          !parse_u64_flag("sparse-churn", "<n0>", argv[4], 1,
                          std::uint64_t{1} << 26, n0) ||
          !parse_double_flag("sparse-churn", "<pd>", argv[5], pd) ||
          !parse_double_flag("sparse-churn", "<pr>", argv[6], pr) ||
          !parse_int_flag("sparse-churn", "<R>", argv[7], 1, kAnyInt,
                          refresh)) {
        return 1;
      }
      int rounds = 4;
      std::uint64_t pairs = 1000;
      std::uint64_t seed = 1;
      if ((!positional.empty() &&
           !parse_int_flag("sparse-churn", "rounds", positional[0].c_str(), 1,
                           kAnyInt, rounds)) ||
          !parse_pairs_seed("sparse-churn", positional, 1, pairs, seed)) {
        return 1;
      }
      return cmd_sparse_churn(argv[2], bits, n0, pd, pr, refresh, rounds,
                              pairs, seed, threads, shards, rho, succ,
                              announce, bucket_k, inflight, session,
                              replicas, zipf_s, objects, trace_routes,
                              trace_out);
    }
    if (command == "latency" && argc == 5) {
      int d = 0;
      double q = 0.0;
      if (!parse_int_flag("latency", "<d>", argv[3], 1, kAnyInt, d) ||
          !parse_double_flag("latency", "<q>", argv[4], q)) {
        return 1;
      }
      return cmd_latency(argv[2], d, q);
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
  return usage();
}
