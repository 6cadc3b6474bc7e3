// Routing-throughput harness for the Monte-Carlo engines.
//
// Measures routes/sec of the parallel deterministic engine with flattened
// kernels at a sweep of thread counts, on the same (N, q, seed).  Emits one
// machine-readable JSON object per line (JSONL) so the bench trajectory can
// be tracked across PRs:
//
//   {"bench":"perf_simulator","geometry":"ring","threads":8,"n":65536,
//    "q":0.100000,"pairs":200000,"seed":1,"table_bytes":0,
//    "seconds":0.123,"routes_per_sec":1626016.3,"routability":0.986535,
//    "identical_across_threads":true}
//
// table_bytes is the overlay's routing-table storage (Overlay::table_bytes:
// ceil(d(d-1)/16) 2^d + 8 for the packed class rows of tree/xor and the
// randomized ring, 4 ks 2^d for symphony, 0 for the closed-form ring and
// hypercube), an exact integer the thread-count diffs compare.
//
// A second JSONL section ("section":"churn") drives the sharded churn
// trajectory engine (churn/trajectory.hpp) on the XOR geometry across the
// same thread sweep, so the bench trajectory also records dynamic-regime
// throughput:
//
//   {"bench":"perf_simulator","section":"churn","geometry":"xor",
//    "threads":8,"n":4096,"shards":8,"warmup_rounds":30,"rounds":4,
//    "pairs_per_round":2500,"q_eff":0.075,"seed":1,"seconds":0.042,
//    "shard_rounds_per_sec":6476.2,"routes":80000,
//    "routability":0.951234,"identical_across_threads":true}
//
// Wall time covers world evolution (warmup + measured rounds) plus route
// sampling, so the churn throughput metric is shard-rounds/sec; the
// routes_per_sec column divides by that same full wall time (comparable
// across sections but diluted by warmup), while
// route_phase_routes_per_sec divides by the route phase's own measured
// seconds -- the honest routing-throughput figure for the churn sections.
//
// Every row also carries the observability columns: the six phase_*_s
// per-phase CPU-second columns (timing -- exempt from the cross-thread
// determinism pairing) and the exact-integer route-failure taxonomy
// (fail_dead_entry, hop_limit_hits, fail_holder_departed,
// fail_succ_collapse, fail_cache_dead_owner -- gated like every other
// count column).  --trace-out FILE additionally writes the harness's
// phase spans as a Chrome trace_event JSON timeline (open in Perfetto).
//
// A fourth JSONL section ("section":"sparse_churn") drives the
// dynamic-membership sparse churn engine (churn/sparse_trajectory.hpp):
// shard-private worlds over a slot roster in a 2^32 key space, joins
// drawing fresh identifiers, leaves decaying in-edges, successor-list
// repair and join announcement, on the ring geometry:
//
//   {"bench":"perf_simulator","section":"sparse_churn","geometry":"ring",
//    "threads":8,"n0":65536,"capacity":81920,"bits":32,"succ":4,
//    "inflight":false,"k":1,"session":"geometric",
//    "shards":8,"warmup_rounds":12,"rounds":3,"pairs_per_round":2000,
//    "pd":0.02,"pr":0.08,"refresh":10,"rho":0.0,"q_eff":0.0746,"seed":1,
//    "seconds":1.23,"shard_rounds_per_sec":97.6,"routes":48000,
//    "routability":0.9991,"mean_population":65519.2,
//    "identical_across_threads":true}
//
// The section runs the thread sweep twice: the round-synchronous
// single-contact geometric configuration above, and the full dynamic
// realism stack -- in-flight lookup measurement (the world steps DURING
// each route), k = 4 Kademlia-style bucket rows, heavy-tailed Pareto
// sessions -- so both modes stay determinism-gated in CI.  As with the
// dense churn section, wall time covers world evolution plus sampling, so
// the throughput metric is shard-rounds/sec.
//
// A third JSONL section ("section":"sparse") sweeps the sparse parallel
// engine (sparse/flat_sparse.hpp) over an N grid up to 10^6 nodes
// scattered in a 2^32 key space, for sparse Chord and sparse Kademlia,
// across the thread sweep:
//
//   {"bench":"perf_simulator","section":"sparse","geometry":"sparse-xor",
//    "threads":8,"n":131072,"bits":32,"q":0.100000,"pairs":200000,
//    "seed":1,"build_seconds":0.24,"seconds":0.031,
//    "routes_per_sec":6451613.3,"routability":0.931234,
//    "identical_across_threads":true}
//
// The harness also cross-checks determinism: the parallel estimates at
// every thread count must be bit-identical (static, churn AND sparse
// sections); a mismatch exits non-zero.
//
// The churn sections report routes/sec alongside shard-rounds/sec so route
// throughput is comparable across sections.
//
// A fifth JSONL section ("section":"sparse_workload") drives the static
// sparse engine under the heavy-traffic workload model: Zipf-popular
// objects placed by consistent hashing, per-node load accounting, and the
// per-shard finger-path cache, each configuration with caching off and on:
//
//   {"bench":"perf_simulator","section":"sparse_workload",
//    "geometry":"sparse-ring","threads":8,"n":16384,"bits":32,"q":0.1,
//    "pairs":200000,"zipf":1.10,"objects":16384,"cache_entries":8,
//    "seed":1,"seconds":0.04,"routes_per_sec":5000000.0,
//    "cache_hit_rate":0.31,"mean_hops":5.1,"load_max":941,"load_p99":210.0,
//    "load_cv":1.52,"routability":0.95,"identical_across_threads":true}
//
// and the sparse_churn section adds a third replicated-GET mode
// (replicas = 3, Zipf GETs on the ring) whose rows carry availability and
// per-slot load columns alongside routability.
//
// Flags: --bits D (16)  --q Q (0.1)  --pairs P (200000)  --seed S (1)
//        --threads a,b,c (1,2,4,8)  --geometry NAME|all (ring; all =
//        ring,xor,tree,hypercube,symphony)
//        --churn-bits D (12)  --churn-rounds R (4, 0 disables the section)
//        --sparse-bits D (32)  --sparse-n-max N (1048576, 0 disables the
//        sparse AND sparse_workload sections; the grid is 2^14, 2^17, 2^20
//        clipped to N)
//        --sparse-churn-n N (65536, stationary population; 0 disables)
//        --sparse-churn-rounds R (3, measured rounds; 0 disables)
//        --pd PD --pr PR --refresh R (0.02, 0.08, 10: the lifecycle of the
//        churn and sparse-churn sections)
//        --zipf S (1.1, object-popularity skew of the workload sections)
//        --workload-objects M (0 = one per alive node)
//        --cache-entries E (8, per-node path-cache slots; the workload
//        section also always measures the E = 0 baseline)
//        --replicas R (3, successor-list replication of the GET mode)
//        --trace-out FILE (write a Chrome trace_event JSON timeline of the
//        engine phase spans; empty = off)
//        --obs 0|1 (1: attach phase profiles/trace sinks to the engines;
//        0 hands them null sinks -- the clock-free disabled path -- for
//        A/B measurement of the instrumentation overhead itself)
//        All flags are validated here at the parse boundary -- a bad value
//        gets a one-line diagnostic instead of a deep engine abort.
//        Numbers parse strictly (common/flags.hpp): "--bits 20x",
//        "--q 0.1abc" or "--refresh 30.5" exit 1, as does a --threads
//        element that is not an integer >= 1 ("1x", "0,2") and any --obs
//        value but 0 or 1.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "churn/sparse_trajectory.hpp"
#include "churn/trajectory.hpp"
#include "common/flags.hpp"
#include "math/rng.hpp"
#include "obs/failure.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "sim/overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"

namespace {

using namespace dht;

struct Config {
  int bits = 16;
  double q = 0.1;
  std::uint64_t pairs = 200000;
  std::uint64_t seed = 1;
  std::vector<unsigned> threads = {1, 2, 4, 8};
  // Default to the ring: the geometry the paper's Fig. 6(b) simulates, and
  // the headline flattened kernel.  --geometry all sweeps every geometry.
  std::vector<std::string> geometries = {"ring"};
  // Churn section: XOR trajectories at a smaller space (each shard evolves
  // a full replica, so the per-round cost is O(N log N) per shard).
  int churn_bits = 12;
  int churn_rounds = 4;  // 0 disables the section
  // Sparse section: N nodes scattered in a 2^sparse_bits key space.
  int sparse_bits = 32;
  std::uint64_t sparse_n_max = 1u << 20;  // 0 disables the section
  // Sparse-churn section: dynamic membership at stationary population N0
  // in a 2^32 key space (ring + successor lists).
  std::uint64_t sparse_churn_n = 1u << 16;  // 0 disables the section
  int sparse_churn_rounds = 3;              // 0 disables the section
  // Lifecycle of the churn + sparse-churn sections; validated at the flag
  // boundary (parse_args) instead of the deep check_params DHT_CHECK.
  double pd = 0.02;
  double pr = 0.08;
  int refresh = 10;
  // Heavy-traffic workload knobs (sparse_workload section + the replicated
  // sparse-churn mode).
  double zipf = 1.1;
  std::uint64_t workload_objects = 0;  // 0 = one object per alive node
  int cache_entries = 8;
  int replicas = 3;
  // Chrome trace_event JSON output of the engine phase spans ("" = off).
  std::string trace_out;
  // Observability side-channels (phase profiles + trace spans).  --obs 0
  // hands every engine null sinks -- the zero-cost path that reads no
  // clock -- so A/B runs can measure the instrumentation overhead itself
  // (the phase_*_s columns then emit as zeros).  Taxonomy counts are
  // intrinsic to the estimates and unaffected by this switch.
  bool obs = true;
};

// The --threads list: comma-separated, every element a whole integer >= 1
// ("1x", "1,abc" and "0,2" are rejected, not read as a shorter list).
bool parse_thread_list(const char* command, const char* flag,
                       const char* arg, std::vector<unsigned>& out) {
  out.clear();
  const std::string list = arg;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = list.find(',', begin);
    const std::string item = list.substr(begin, comma - begin);
    std::uint64_t threads = 0;
    if (!common::parse_u64_flag(command, flag, item.c_str(), 1,
                                std::numeric_limits<unsigned>::max(),
                                threads)) {
      return false;
    }
    out.push_back(static_cast<unsigned>(threads));
    if (comma == std::string::npos) {
      return true;
    }
    begin = comma + 1;
  }
}

// Exits with status 1 when a flag's value did not parse; the parser has
// already said why on stderr.
void require(bool parsed) {
  if (!parsed) {
    std::exit(1);
  }
}

Config parse_args(int argc, char** argv) {
  constexpr const char* kCommand = "perf_simulator";
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  Config cfg;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s requires a value\n", flag.c_str());
      std::exit(1);
    }
    const char* name = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--bits") {
      require(common::parse_int_flag(kCommand, name, value, 1, 26, cfg.bits));
    } else if (flag == "--q") {
      require(common::parse_double_flag(kCommand, name, value, cfg.q));
      if (!(cfg.q >= 0.0 && cfg.q < 1.0)) {
        std::fprintf(stderr, "--q must be in [0, 1), got %s\n", value);
        std::exit(1);
      }
    } else if (flag == "--pairs") {
      require(
          common::parse_u64_flag(kCommand, name, value, 1, kU64Max, cfg.pairs));
    } else if (flag == "--seed") {
      require(
          common::parse_u64_flag(kCommand, name, value, 0, kU64Max, cfg.seed));
    } else if (flag == "--threads") {
      require(parse_thread_list(kCommand, name, value, cfg.threads));
    } else if (flag == "--churn-bits") {
      require(common::parse_int_flag(kCommand, name, value, 1, 26,
                                     cfg.churn_bits));
    } else if (flag == "--churn-rounds") {
      // 0 disables the section.
      require(common::parse_int_flag(kCommand, name, value, 0, kIntMax,
                                     cfg.churn_rounds));
    } else if (flag == "--sparse-bits") {
      require(common::parse_int_flag(kCommand, name, value, 1, 63,
                                     cfg.sparse_bits));
    } else if (flag == "--sparse-n-max") {
      require(common::parse_u64_flag(kCommand, name, value, 0, kU64Max,
                                     cfg.sparse_n_max));
    } else if (flag == "--sparse-churn-n") {
      // At most 2^24: the slot roster needs capacity headroom under 2^26.
      require(common::parse_u64_flag(kCommand, name, value, 0,
                                     std::uint64_t{1} << 24,
                                     cfg.sparse_churn_n));
    } else if (flag == "--sparse-churn-rounds") {
      // 0 disables the section.
      require(common::parse_int_flag(kCommand, name, value, 0, kIntMax,
                                     cfg.sparse_churn_rounds));
    } else if (flag == "--zipf") {
      require(common::parse_double_flag(kCommand, name, value, cfg.zipf));
      if (!(cfg.zipf >= 0.0)) {
        std::fprintf(stderr, "--zipf must be a finite skew >= 0, got %s\n",
                     value);
        std::exit(1);
      }
    } else if (flag == "--workload-objects") {
      require(common::parse_u64_flag(kCommand, name, value, 0,
                                     std::uint64_t{1} << 26,
                                     cfg.workload_objects));
    } else if (flag == "--cache-entries") {
      require(common::parse_int_flag(
          kCommand, name, value, 0,
          sparse::SparseWorkloadOptions::kMaxCacheEntries, cfg.cache_entries));
    } else if (flag == "--replicas") {
      require(
          common::parse_int_flag(kCommand, name, value, 1, 64, cfg.replicas));
    } else if (flag == "--pd") {
      require(common::parse_double_flag(kCommand, name, value, cfg.pd));
      if (!(cfg.pd > 0.0 && cfg.pd < 1.0)) {
        std::fprintf(stderr, "--pd must be in (0, 1), got %s\n", value);
        std::exit(1);
      }
    } else if (flag == "--pr") {
      require(common::parse_double_flag(kCommand, name, value, cfg.pr));
      if (!(cfg.pr > 0.0 && cfg.pr < 1.0)) {
        std::fprintf(stderr, "--pr must be in (0, 1), got %s\n", value);
        std::exit(1);
      }
    } else if (flag == "--refresh") {
      require(common::parse_int_flag(kCommand, name, value, 1, kIntMax,
                                     cfg.refresh));
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else if (flag == "--obs") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        std::fprintf(stderr, "--obs must be 0 or 1, got %s\n", value);
        std::exit(1);
      }
      cfg.obs = std::strcmp(value, "1") == 0;
    } else if (flag == "--geometry") {
      if (std::strcmp(value, "all") == 0) {
        cfg.geometries = {"ring", "xor", "tree", "hypercube", "symphony"};
      } else {
        cfg.geometries = {value};
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      std::exit(1);
    }
  }
  if (cfg.pd + cfg.pr > 1.0) {
    std::fprintf(stderr, "--pd + --pr must not exceed 1, got %.6f\n",
                 cfg.pd + cfg.pr);
    std::exit(1);
  }
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The observability column block every section appends: the six per-phase
// CPU-second columns (summed across shards -- timing, exempt from the
// cross-thread determinism pairing) followed by the exact-integer
// route-failure taxonomy, which IS gated.  hop_limit_hits keeps its
// pre-taxonomy column name for bench-trajectory continuity;
// fail_cache_dead_owner is an invariant canary -- the static engine
// resolves cached paths against the same frozen failure mask that filled
// the cache, so it must stay 0.
std::string obs_columns(const obs::PhaseProfile& profile,
                        const obs::FailureTaxonomy& failures) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "\"phase_world_build_s\":%.6f,\"phase_lifecycle_s\":%.6f,"
      "\"phase_refresh_repair_s\":%.6f,\"phase_route_s\":%.6f,"
      "\"phase_commit_s\":%.6f,\"phase_merge_s\":%.6f,"
      "\"fail_dead_entry\":%llu,\"hop_limit_hits\":%llu,"
      "\"fail_holder_departed\":%llu,\"fail_succ_collapse\":%llu,"
      "\"fail_cache_dead_owner\":%llu",
      profile[obs::Phase::kWorldBuild], profile[obs::Phase::kLifecycle],
      profile[obs::Phase::kRefreshRepair], profile[obs::Phase::kRoute],
      profile[obs::Phase::kMembershipCommit], profile[obs::Phase::kMerge],
      static_cast<unsigned long long>(
          failures[obs::RouteFailure::kDeadEntry]),
      static_cast<unsigned long long>(
          failures[obs::RouteFailure::kHopLimit]),
      static_cast<unsigned long long>(
          failures[obs::RouteFailure::kHolderDeparted]),
      static_cast<unsigned long long>(
          failures[obs::RouteFailure::kSuccessorCollapse]),
      static_cast<unsigned long long>(
          failures[obs::RouteFailure::kCacheDeadOwner]));
  return buf;
}

void emit(const Config& cfg, const std::string& geometry,
          std::uint64_t table_bytes, unsigned threads, double seconds,
          double routability, bool identical,
          const obs::PhaseProfile& profile,
          const obs::FailureTaxonomy& failures) {
  std::printf(
      "{\"bench\":\"perf_simulator\",\"geometry\":\"%s\","
      "\"threads\":%u,\"n\":%llu,\"q\":%.6f,"
      "\"pairs\":%llu,\"seed\":%llu,\"table_bytes\":%llu,"
      "\"seconds\":%.6f,\"routes_per_sec\":%.1f,"
      "\"routability\":%.6f,%s,\"identical_across_threads\":%s}\n",
      geometry.c_str(), threads,
      static_cast<unsigned long long>(std::uint64_t{1} << cfg.bits), cfg.q,
      static_cast<unsigned long long>(cfg.pairs),
      static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(table_bytes), seconds,
      static_cast<double>(cfg.pairs) / seconds, routability,
      obs_columns(profile, failures).c_str(), identical ? "true" : "false");
}

bool identical_estimates(const sim::RoutabilityEstimate& a,
                         const sim::RoutabilityEstimate& b) {
  return a.routed.successes == b.routed.successes &&
         a.routed.trials == b.routed.trials &&
         a.hops.count() == b.hops.count() && a.hops.sum() == b.hops.sum() &&
         a.hops.sum_squares() == b.hops.sum_squares() &&
         a.hops.min() == b.hops.min() && a.hops.max() == b.hops.max() &&
         a.failures == b.failures;
}

void emit_sparse(const Config& cfg, const char* geometry, unsigned threads,
                 std::uint64_t n, double build_seconds, double seconds,
                 double routability, bool identical,
                 const obs::PhaseProfile& profile,
                 const obs::FailureTaxonomy& failures) {
  std::printf(
      "{\"bench\":\"perf_simulator\",\"section\":\"sparse\","
      "\"geometry\":\"%s\",\"threads\":%u,\"n\":%llu,"
      "\"bits\":%d,\"q\":%.6f,\"pairs\":%llu,\"seed\":%llu,"
      "\"build_seconds\":%.6f,\"seconds\":%.6f,\"routes_per_sec\":%.1f,"
      "\"routability\":%.6f,%s,\"identical_across_threads\":%s}\n",
      geometry, threads, static_cast<unsigned long long>(n), cfg.sparse_bits,
      cfg.q, static_cast<unsigned long long>(cfg.pairs),
      static_cast<unsigned long long>(cfg.seed), build_seconds, seconds,
      static_cast<double>(cfg.pairs) / seconds, routability,
      obs_columns(profile, failures).c_str(), identical ? "true" : "false");
}

/// Runs the sparse N-grid sweep; returns false when a parallel estimate
/// differed across thread counts.
bool run_sparse_section(const Config& cfg, obs::Trace* trace) {
  bool all_identical = true;
  std::vector<std::uint64_t> grid;
  for (const std::uint64_t n :
       {std::uint64_t{1} << 14, std::uint64_t{1} << 17, std::uint64_t{1} << 20}) {
    if (n <= cfg.sparse_n_max) {
      grid.push_back(n);
    }
  }
  for (const std::uint64_t n : grid) {
    // One id sample per grid point, shared by both geometries (the same
    // seed would reproduce the identical sorted-id set anyway).
    math::Rng space_rng(cfg.seed + 10);
    const sparse::SparseIdSpace space(cfg.sparse_bits, n, space_rng);
    for (const char* geometry : {"sparse-ring", "sparse-xor"}) {
      math::Rng build_rng(cfg.seed + 14);
      auto build_start = std::chrono::steady_clock::now();
      std::unique_ptr<sparse::SparseOverlay> overlay;
      if (std::strcmp(geometry, "sparse-ring") == 0) {
        overlay = std::make_unique<sparse::SparseChordOverlay>(space);
      } else {
        overlay =
            std::make_unique<sparse::SparseKademliaOverlay>(space, build_rng);
      }
      const double build_seconds = seconds_since(build_start);
      math::Rng fail_rng(cfg.seed + 11);
      const sparse::SparseFailure failures(space, cfg.q, fail_rng);

      const math::Rng engine_rng(cfg.seed + 12);
      bool have_reference = false;
      sparse::SparseEstimate reference;
      for (unsigned threads : cfg.threads) {
        obs::PhaseProfile profile;
        sparse::SparseParallelOptions options{.pairs = cfg.pairs,
                                              .threads = threads};
        options.profile = cfg.obs ? &profile : nullptr;
        options.trace = cfg.obs ? trace : nullptr;
        const auto start = std::chrono::steady_clock::now();
        const auto estimate = sparse::estimate_routability_parallel(
            *overlay, failures, options, engine_rng);
        const double seconds = seconds_since(start);
        const bool identical = !have_reference || reference == estimate;
        if (!have_reference) {
          reference = estimate;
          have_reference = true;
        }
        all_identical = all_identical && identical;
        emit_sparse(cfg, geometry, threads, n, build_seconds, seconds,
                    estimate.routability(), identical, profile,
                    estimate.failures);
      }
    }
  }
  return all_identical;
}

void emit_sparse_workload(const Config& cfg, unsigned threads,
                          std::uint64_t n, std::uint64_t objects,
                          int cache_entries, double seconds,
                          const sparse::SparseWorkloadReport& report,
                          bool identical,
                          const obs::PhaseProfile& profile) {
  std::printf(
      "{\"bench\":\"perf_simulator\",\"section\":\"sparse_workload\","
      "\"geometry\":\"sparse-ring\",\"threads\":%u,"
      "\"n\":%llu,\"bits\":%d,\"q\":%.6f,\"pairs\":%llu,"
      "\"zipf\":%.2f,\"objects\":%llu,\"cache_entries\":%d,\"seed\":%llu,"
      "\"seconds\":%.6f,\"routes_per_sec\":%.1f,\"cache_hit_rate\":%.6f,"
      "\"mean_hops\":%.3f,\"load_max\":%llu,\"load_p99\":%llu,"
      "\"load_cv\":%.6f,\"routability\":%.6f,%s,"
      "\"identical_across_threads\":%s}\n",
      threads, static_cast<unsigned long long>(n), cfg.sparse_bits, cfg.q,
      static_cast<unsigned long long>(cfg.pairs), cfg.zipf,
      static_cast<unsigned long long>(objects), cache_entries,
      static_cast<unsigned long long>(cfg.seed), seconds,
      static_cast<double>(cfg.pairs) / seconds,
      report.estimate.cache_hit_rate(), report.estimate.mean_hops(),
      static_cast<unsigned long long>(report.load.max),
      static_cast<unsigned long long>(report.load.p99), report.load.cv,
      report.estimate.routability(),
      obs_columns(profile, report.estimate.failures).c_str(),
      identical ? "true" : "false");
}

/// Runs the heavy-traffic workload sweep on the sparse ring: Zipf-popular
/// GET targets, per-node load accounting, and the finger-path cache, each
/// grid point measured with caching off (the baseline) and on.  Returns
/// false when an estimate OR a load summary differed across thread counts.
bool run_sparse_workload_section(const Config& cfg, obs::Trace* trace) {
  bool all_identical = true;
  std::vector<std::uint64_t> grid;
  for (const std::uint64_t n :
       {std::uint64_t{1} << 14, std::uint64_t{1} << 17}) {
    if (n <= cfg.sparse_n_max &&
        n <= (std::uint64_t{1} << std::min(cfg.sparse_bits, 26))) {
      grid.push_back(n);
    }
  }
  std::vector<int> cache_sweep = {0};
  if (cfg.cache_entries > 0) {
    cache_sweep.push_back(cfg.cache_entries);
  }
  for (const std::uint64_t n : grid) {
    math::Rng space_rng(cfg.seed + 10);
    const sparse::SparseIdSpace space(cfg.sparse_bits, n, space_rng);
    const sparse::SparseChordOverlay overlay(space);
    math::Rng fail_rng(cfg.seed + 11);
    const sparse::SparseFailure failures(space, cfg.q, fail_rng);
    const math::Rng engine_rng(cfg.seed + 13);
    for (const int cache_entries : cache_sweep) {
      bool have_reference = false;
      sparse::SparseWorkloadReport reference;
      for (unsigned threads : cfg.threads) {
        obs::PhaseProfile profile;
        sparse::SparseParallelOptions options{
            .pairs = cfg.pairs,
            .threads = threads,
            // Fixed shard count: results are a function of (seed, shards),
            // and per-shard caches warm with the shard's draw stream.
            .shards = 64};
        options.workload.zipf_s = cfg.zipf;
        options.workload.objects = cfg.workload_objects;
        options.workload.cache_entries = cache_entries;
        options.workload.record_load = true;
        options.profile = cfg.obs ? &profile : nullptr;
        options.trace = cfg.obs ? trace : nullptr;
        const auto start = std::chrono::steady_clock::now();
        const auto report = sparse::estimate_workload_parallel(
            overlay, failures, options, engine_rng);
        const double seconds = seconds_since(start);
        const bool identical = !have_reference ||
                               (reference.estimate == report.estimate &&
                                reference.load == report.load);
        if (!have_reference) {
          reference = report;
          have_reference = true;
        }
        all_identical = all_identical && identical;
        const std::uint64_t objects =
            cfg.workload_objects != 0 ? cfg.workload_objects
                                      : failures.alive_count();
        emit_sparse_workload(cfg, threads, n, objects, cache_entries, seconds,
                             report, identical, profile);
      }
    }
  }
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);
  const sim::IdSpace space(cfg.bits);
  bool all_identical = true;
  // One timeline for the whole harness run (one lane per worker thread);
  // null when --trace-out is unset, which keeps the engines' span hooks
  // clock-free.
  obs::Trace trace_store;
  obs::Trace* const trace = cfg.trace_out.empty() ? nullptr : &trace_store;

  for (const std::string& geometry : cfg.geometries) {
    math::Rng build_rng(cfg.seed);
    const auto overlay = sim::make_overlay(geometry, space, build_rng);
    if (overlay == nullptr) {
      std::fprintf(stderr, "unknown geometry: %s\n", geometry.c_str());
      return 1;
    }
    math::Rng fail_rng(cfg.seed + 1);
    const sim::FailureScenario failures(space, cfg.q, fail_rng);

    // Parallel engine across the thread sweep; estimates must agree
    // bit-for-bit at every thread count.
    const math::Rng engine_rng(cfg.seed + 2);
    bool have_reference = false;
    sim::RoutabilityEstimate reference;
    for (unsigned threads : cfg.threads) {
      obs::PhaseProfile profile;
      sim::ParallelOptions options{.pairs = cfg.pairs, .threads = threads};
      options.profile = cfg.obs ? &profile : nullptr;
      options.trace = cfg.obs ? trace : nullptr;
      const auto start = std::chrono::steady_clock::now();
      const auto estimate = sim::estimate_routability_parallel(
          *overlay, failures, options, engine_rng);
      const double seconds = seconds_since(start);
      const bool identical =
          !have_reference || identical_estimates(reference, estimate);
      if (!have_reference) {
        reference = estimate;
        have_reference = true;
      }
      all_identical = all_identical && identical;
      emit(cfg, geometry, overlay->table_bytes(), threads, seconds,
           estimate.routability(), identical, profile, estimate.failures);
    }
  }

  // Churn-sweep section: sharded XOR trajectories across the same thread
  // sweep.  Routability and every per-round estimate must be bit-identical
  // at every thread count.
  if (cfg.churn_rounds > 0) {
    const sim::IdSpace churn_space(cfg.churn_bits);
    const churn::ChurnParams params{.death_per_round = cfg.pd,
                                    .rebirth_per_round = cfg.pr,
                                    .refresh_interval = cfg.refresh};
    const churn::TrajectoryOptions base{.warmup_rounds = 30,
                                        .measured_rounds = cfg.churn_rounds,
                                        .pairs_per_round = 2500,
                                        .shards = 8};
    const math::Rng churn_rng(cfg.seed + 3);
    bool have_reference = false;
    churn::TrajectoryResult reference;
    for (unsigned threads : cfg.threads) {
      obs::PhaseProfile profile;
      churn::TrajectoryOptions options = base;
      options.threads = threads;
      options.profile = cfg.obs ? &profile : nullptr;
      options.trace = cfg.obs ? trace : nullptr;
      const auto start = std::chrono::steady_clock::now();
      const auto result = churn::run_churn_trajectory(
          churn::TrajectoryGeometry::kXor, churn_space, params, options,
          churn_rng);
      const double seconds = seconds_since(start);
      bool identical = true;
      if (have_reference) {
        identical =
            identical_estimates(reference.overall, result.overall) &&
            reference.per_round.size() == result.per_round.size();
        for (std::size_t r = 0; identical && r < result.per_round.size();
             ++r) {
          identical =
              identical_estimates(reference.per_round[r], result.per_round[r]);
        }
      } else {
        reference = result;
        have_reference = true;
      }
      all_identical = all_identical && identical;
      const double shard_rounds =
          static_cast<double>(result.shards) *
          static_cast<double>(base.warmup_rounds + cfg.churn_rounds);
      const auto routes =
          static_cast<unsigned long long>(result.overall.routed.trials);
      // Route-phase throughput: routes over the route phase's own summed
      // CPU-seconds -- the honest figure the full-wall routes_per_sec
      // (diluted by warmup stepping) cannot give.
      const double route_s = profile[obs::Phase::kRoute];
      std::printf(
          "{\"bench\":\"perf_simulator\",\"section\":\"churn\","
          "\"geometry\":\"xor\",\"threads\":%u,"
          "\"n\":%llu,\"shards\":%llu,"
          "\"warmup_rounds\":%d,\"rounds\":%d,\"pairs_per_round\":%llu,"
          "\"q_eff\":%.6f,\"seed\":%llu,\"seconds\":%.6f,"
          "\"shard_rounds_per_sec\":%.1f,\"routes\":%llu,"
          "\"routes_per_sec\":%.1f,\"route_phase_routes_per_sec\":%.1f,"
          "%s,"
          "\"routability\":%.6f,\"identical_across_threads\":%s}\n",
          threads, static_cast<unsigned long long>(churn_space.size()),
          static_cast<unsigned long long>(result.shards),
          base.warmup_rounds, cfg.churn_rounds,
          static_cast<unsigned long long>(base.pairs_per_round),
          churn::effective_q(params),
          static_cast<unsigned long long>(cfg.seed), seconds,
          shard_rounds / seconds, routes,
          static_cast<double>(routes) / seconds,
          route_s > 0.0 ? static_cast<double>(routes) / route_s : 0.0,
          obs_columns(profile, result.overall.failures).c_str(),
          result.overall.routability(), identical ? "true" : "false");
    }
  }

  // Sparse-sweep section: the flattened sparse kernels on the sharded
  // engine across an N grid up to 10^6 nodes in a 2^sparse_bits key space.
  if (cfg.sparse_n_max > 0) {
    all_identical = run_sparse_section(cfg, trace) && all_identical;
    // Heavy-traffic workload sweep on the same spaces: Zipf GETs, per-node
    // load, path caching off/on; estimates AND load summaries are
    // determinism-gated.
    all_identical = run_sparse_workload_section(cfg, trace) && all_identical;
  }

  // Sparse-churn section: dynamic membership (joins drawing fresh ids,
  // leaves, successor-list repair, join announcement) on shard-private
  // replica worlds; per-round and pooled estimates must be bit-identical
  // at every thread count.
  if (cfg.sparse_churn_n > 0 && cfg.sparse_churn_rounds > 0) {
    const churn::ChurnParams params{.death_per_round = cfg.pd,
                                    .rebirth_per_round = cfg.pr,
                                    .refresh_interval = cfg.refresh};
    // Three determinism-gated configurations: the round-synchronous
    // single-contact geometric baseline, the full dynamic realism stack
    // (in-flight measurement, k = 4 buckets, heavy-tailed Pareto sessions)
    // -- Kademlia for the latter so the bucket machinery is on the measured
    // path -- and the heavy-traffic GET mode: Zipf-popular objects fetched
    // from an r-way successor-list replica group, with per-slot load
    // accounting, so availability-under-churn x replication is tracked.
    struct SparseChurnMode {
      churn::SparseChurnGeometry geometry;
      bool inflight;
      int bucket_k;
      churn::SessionKind session;
      int replicas;
      double zipf_s;
    };
    const SparseChurnMode modes[] = {
        {churn::SparseChurnGeometry::kChord, false, 1,
         churn::SessionKind::kGeometric, 1, 0.0},
        {churn::SparseChurnGeometry::kKademlia, true, 4,
         churn::SessionKind::kPareto, 1, 0.0},
        {churn::SparseChurnGeometry::kChord, false, 1,
         churn::SessionKind::kGeometric, cfg.replicas, cfg.zipf},
    };
    for (const SparseChurnMode& mode : modes) {
      churn::SparseChurnConfig config{
          .bits = 32,
          .capacity =
              churn::capacity_for_population(cfg.sparse_churn_n, params),
          .successors = 4,
          .shortcuts = 6};
      config.bucket_k = mode.bucket_k;
      config.session = churn::SessionModel{.kind = mode.session,
                                           .pareto_alpha = 2.0};
      config.replicas = mode.replicas;
      config.zipf_s = mode.zipf_s;
      config.objects = cfg.workload_objects;
      churn::TrajectoryOptions base{
          .warmup_rounds = 12,
          .measured_rounds = cfg.sparse_churn_rounds,
          .pairs_per_round = 2000,
          .shards = 8};
      base.inflight = mode.inflight;
      const double q_eff = churn::effective_q(params);
      const double q_nr = churn::effective_q_no_return(params, config.session);
      const math::Rng churn_rng(cfg.seed + 4);
      bool have_reference = false;
      churn::SparseChurnResult reference;
      for (unsigned threads : cfg.threads) {
        obs::PhaseProfile profile;
        churn::TrajectoryOptions options = base;
        options.threads = threads;
        options.profile = cfg.obs ? &profile : nullptr;
        options.trace = cfg.obs ? trace : nullptr;
        const auto start = std::chrono::steady_clock::now();
        const auto result = churn::run_sparse_churn_trajectory(
            mode.geometry, config, params, options, churn_rng);
        const double seconds = seconds_since(start);
        bool identical = true;
        if (have_reference) {
          identical = reference.overall == result.overall &&
                      reference.load_max == result.load_max &&
                      reference.load_p99 == result.load_p99 &&
                      reference.load_cv == result.load_cv &&
                      reference.per_round.size() == result.per_round.size();
          for (std::size_t r = 0; identical && r < result.per_round.size();
               ++r) {
            identical = reference.per_round[r] == result.per_round[r];
          }
        } else {
          reference = result;
          have_reference = true;
        }
        all_identical = all_identical && identical;
        const double shard_rounds =
            static_cast<double>(result.shards) *
            static_cast<double>(base.warmup_rounds + cfg.sparse_churn_rounds);
        const auto routes =
            static_cast<unsigned long long>(result.overall.attempts);
        const double route_s = profile[obs::Phase::kRoute];
        std::printf(
            "{\"bench\":\"perf_simulator\",\"section\":\"sparse_churn\","
            "\"geometry\":\"%s\",\"threads\":%u,\"n0\":%llu,"
            "\"capacity\":%llu,\"bits\":32,\"succ\":%d,"
            "\"inflight\":%s,\"k\":%d,\"session\":\"%s\","
            "\"shards\":%llu,"
            "\"warmup_rounds\":%d,\"rounds\":%d,\"pairs_per_round\":%llu,"
            "\"pd\":%.6f,\"pr\":%.6f,\"refresh\":%d,\"rho\":%.2f,"
            "\"q_eff\":%.6f,\"q_nr\":%.6f,\"replicas\":%d,\"zipf\":%.2f,"
            "\"seed\":%llu,\"seconds\":%.6f,"
            "\"shard_rounds_per_sec\":%.1f,\"routes\":%llu,"
            "\"routes_per_sec\":%.1f,\"route_phase_routes_per_sec\":%.1f,"
            "%s,"
            "\"routability\":%.6f,\"availability\":%.6f,"
            "\"load_max\":%llu,\"load_p99\":%.1f,\"load_cv\":%.6f,"
            "\"mean_population\":%.1f,"
            "\"identical_across_threads\":%s}\n",
            churn::to_string(mode.geometry), threads,
            static_cast<unsigned long long>(cfg.sparse_churn_n),
            static_cast<unsigned long long>(config.capacity),
            config.successors, mode.inflight ? "true" : "false",
            config.bucket_k, churn::to_string(mode.session),
            static_cast<unsigned long long>(result.shards),
            base.warmup_rounds, cfg.sparse_churn_rounds,
            static_cast<unsigned long long>(base.pairs_per_round),
            params.death_per_round, params.rebirth_per_round,
            params.refresh_interval, base.repair_probability, q_eff, q_nr,
            config.replicas, config.zipf_s,
            static_cast<unsigned long long>(cfg.seed), seconds,
            shard_rounds / seconds, routes,
            static_cast<double>(routes) / seconds,
            route_s > 0.0 ? static_cast<double>(routes) / route_s : 0.0,
            obs_columns(profile, result.overall.failures).c_str(),
            result.overall.routability(), result.overall.availability(),
            static_cast<unsigned long long>(result.load_max), result.load_p99,
            result.load_cv, result.mean_population,
            identical ? "true" : "false");
      }
    }
  }

  if (trace != nullptr && !trace->write_chrome_trace(cfg.trace_out)) {
    std::fprintf(stderr, "FAIL: cannot write trace to %s\n",
                 cfg.trace_out.c_str());
    return 1;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel estimates differ across thread counts\n");
    return 1;
  }
  return 0;
}
