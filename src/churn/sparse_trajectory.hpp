// Dynamic-membership churn over non-fully-populated identifier spaces --
// the fusion of the repo's two flagship engines.
//
// The dense churn engine (churn/trajectory.hpp) evolves liveness on a fixed
// fully-populated roster; the sparse engine (sparse/flat_sparse.hpp) routes
// static populations scattered in huge key spaces.  Here N itself evolves:
// a SparseChurnWorld runs a slot roster (churn/membership.hpp) over a 2^d
// key space (d <= 63) in which joining nodes draw fresh identifiers,
// bootstrap their row-major tables (Chord fingers / Kademlia bucket
// contacts / Symphony harmonic shortcuts) against the current membership,
// and leaving nodes are removed -- their in-edges decay until lazy refresh
// (every R rounds per entry), eager repair (the rho knob), or
// successor-list repair re-points them.  Entries are stamped with the
// target slot's occupancy generation: a departed node's in-edges stay dead
// even after the slot is recycled, because in dynamic membership
// identities never return.  That drops the rebirth term from the dense
// q_eff bridge -- the engine's routability tracks the static model at the
// *no-return* effective failure probability q_nr(R) = effective_q_no_return
// (churn/churn.hpp), the dynamic-membership generalization of PR 2's
// bridge, asserted in test_sparse_churn.
//
// The successor-list model (the paper's "sequential neighbors", Section 2,
// finally run under churn): each node keeps its s clockwise successors.
// Routing may fall back on the list when the table offers no admissible
// alive hop, and per-round maintenance repairs a broken list by consulting
// the list itself -- the first alive entry seeds the rebuilt list -- before
// falling back to a full table rebuild when every entry is dead.  s = 0
// disables the list and recovers the pure-table decay model.
//
// Estimation reuses the replica sharding of the dense churn engine: shard k
// forks the caller's generator (Rng::fork(k)) and owns a private world, so
// the whole trajectory is a pure function of (seed, k); per-(shard, round)
// SparseEstimates (exact integer counters) are merged round-wise in shard
// order -- bit-identical at any thread count.  Grid sweeps over
// (N0, d, churn, rho, s) ride run_sparse_churn_sweep; the dense-limit
// oracle (capacity = 2^d, join rate = rebirth, leave rate = death) pins the
// engine to the PR 2 q_eff bridge in test_sparse_churn.
//
// Three live-churn realism axes ride on top of the round-synchronous
// engine (all default-off, all bit-compatible with the historical
// defaults):
//  * In-flight lookup measurement (TrajectoryOptions::inflight /
//    measure_inflight): the round's lifecycle sweep advances DURING each
//    measured route, so a lookup can lose its next hop -- or the node
//    holding the message -- mid-flight; joins integrate at lookup
//    boundaries.
//  * k-bucket Kademlia (SparseChurnConfig::bucket_k): up to k contacts
//    per bucket in insertion order, dead-observed LRU eviction, announce
//    inserts at the first free cell; k = 1 reproduces the single-contact
//    engine bit for bit (golden-pinned).
//  * Heavy-tailed sessions (SparseChurnConfig::session): geometric or
//    discrete shifted-Pareto lifetimes at the same mean 1/pd, with the
//    generalized no-return bridge effective_q_no_return(params, model).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "churn/churn_rows.hpp"
#include "churn/membership.hpp"
#include "churn/sparse_config.hpp"
#include "churn/trajectory.hpp"
#include "math/rng.hpp"
#include "math/zipf.hpp"
#include "obs/route_trace.hpp"
#include "sim/load_stats.hpp"
#include "sparse/sparse_overlay.hpp"

namespace dht::churn {

/// The capacity whose stationary population is `population`:
/// round(population / availability(params)).
std::uint64_t capacity_for_population(std::uint64_t population,
                                      const ChurnParams& params);

/// One dynamic sparse overlay world: membership churn (joins draw fresh
/// ids, leaves free slots), per-entry lazy refresh every R rounds, optional
/// eager repair of entries observed dead (rho), per-round successor-list
/// maintenance, and routing against the *current* membership via flattened
/// slot-indexed kernels.  The constructor only fork()s the caller's
/// generator, so a world's trajectory is a pure function of (rng lineage,
/// inputs).
class SparseChurnWorld {
 public:
  /// Starts at the stationary membership (each slot present w.p. a) with
  /// fresh tables and refresh phases staggered uniformly.  `max_hops` of 0
  /// selects the default cap C; hits land in the hop_limit_hits canary.
  /// Throws std::invalid_argument before allocating anything when the
  /// config is out of range or its footprint_bytes exceed the host's
  /// physical memory.
  SparseChurnWorld(SparseChurnGeometry geometry,
                   const SparseChurnConfig& config, const ChurnParams& params,
                   double repair_probability, std::uint64_t max_hops,
                   const math::Rng& rng);

  /// Bytes one world of (geometry, config) can occupy: its routing rows
  /// with every slot present (ChurnRows::bytes_for), its membership
  /// (SparseMembership::bytes_for), and its per-slot join rounds and load
  /// counters.  Saturates at UINT64_MAX.
  static std::uint64_t footprint_bytes(SparseChurnGeometry geometry,
                                       const SparseChurnConfig& config);

  /// Advances one round: lifecycle flips (leaves + joins with fresh ids),
  /// order-index commit, joiner bootstraps + join announcements,
  /// successor-list maintenance, due refreshes, and eager repair.
  void step();

  /// Samples `pairs` routes among currently-present pairs against the
  /// stored (possibly stale) tables.  With fewer than two present nodes
  /// there is nothing to sample: returns an empty estimate (the
  /// ChurnWorld::measure contract).
  ///
  /// All per-pair randomness (sources, targets, Zipf objects) is drawn up
  /// front in pair order from the world's measurement sub-stream; routing
  /// itself is rng-free, so the stream is byte-for-byte the historical
  /// interleaved one.  The routes then run through the 8-lane SoA batch
  /// driver.
  sparse::SparseEstimate measure(std::uint64_t pairs);

  /// measure()'s scalar reference: the same draws, routed pair by pair
  /// through the single-route core instead of the batch driver.
  /// Bit-identical to measure() by construction -- every recorded quantity
  /// (estimate counters, per-slot load adds) is commutative and the batch
  /// executes exactly the scalar attempt set -- and gated per pair in
  /// test_sparse_churn.  The oracle for the batch path, not a run mode.
  sparse::SparseEstimate measure_reference(std::uint64_t pairs);

  /// One in-flight measured round: advances the round AND samples `pairs`
  /// routes while the world moves underneath them.  Instead of the
  /// step()-then-measure freeze, the round's lifecycle sweep (leaves,
  /// join draws, per-slot maintenance) is spread across the routes --
  /// `events_per_hop` slots advance after every hop (0 derives the rate
  /// from `pairs`: one full sweep over pairs x ~log2 N expected hops), so
  /// a lookup can lose its next hop, or the node currently holding the
  /// message, mid-flight.  Joiners collected by the sweep are integrated
  /// (id draw, order-index commit, bootstrap, announcement) at lookup
  /// boundaries -- a join becomes routable only once the overlay absorbs
  /// it.  Any sweep remainder is flushed at the end, so a measured round
  /// always performs exactly one full lifecycle round and the stationary
  /// population matches the round-synchronous mode.  Draws come from the
  /// world's measurement sub-stream.
  sparse::SparseEstimate measure_inflight(std::uint64_t pairs,
                                          std::uint64_t events_per_hop = 0);

  int round() const noexcept { return round_; }
  std::uint64_t population() const noexcept {
    return membership_.population();
  }
  std::uint64_t capacity() const noexcept { return membership_.capacity(); }
  /// Population over capacity (tracks availability a at stationarity).
  double alive_fraction() const noexcept;

  /// Checks the world's invariants between rounds (after step() or
  /// measure_inflight()), throwing PreconditionError on the first
  /// violation: the membership's order index (SparseMembership::audit)
  /// and the routing rows (ChurnRows::audit; the due-round bound only on
  /// rho = 0 worlds, the only ones that maintain it).
  /// O(capacity + population x row width); for tests.
  void audit() const;

  /// Cumulative membership turnover (diagnostics).
  std::uint64_t total_joins() const noexcept { return total_joins_; }
  std::uint64_t total_leaves() const noexcept { return total_leaves_; }

  /// Mean age (rounds since refresh) over present nodes' table entries --
  /// the q_eff derivation's uniform-age diagnostic.
  double mean_entry_age() const;

  const SparseMembership& membership() const noexcept { return membership_; }

  /// Digest of the per-slot forwarded-message counters over present slots
  /// (accumulated by every measured route; rng-free, so recording never
  /// perturbs the lifecycle/table/measure streams).
  sim::LoadSummary load_summary() const;

  /// Attaches observability sinks (obs/phase_timer.hpp): step() attributes
  /// its lifecycle sweep, joiner commit, and refresh/repair pass, and the
  /// measure paths their route sampling, to the profile/trace.  In-flight
  /// measurement fuses the lifecycle sweep INTO the routes, so
  /// measure_inflight attributes its whole body to the route phase.  Pure
  /// timing side-channels: null (the default) reads no clock, and
  /// attaching them never changes a counter.
  void set_observer(obs::PhaseProfile* profile, obs::Trace* trace) noexcept {
    profile_ = profile;
    trace_ = trace;
  }

  /// Attaches a route-forensics sink (obs/route_trace.hpp): sync-mode
  /// measurement re-routes the pairs the sink's stride selects against the
  /// frozen round snapshot, recording each hop's (slot, id, table rank,
  /// generation check).  The re-route touches no load counter, no estimate
  /// and no rng, so estimates and goldens are unchanged.  `shard` labels
  /// the records.
  void set_route_trace(obs::RouteTraceSink* sink,
                       std::uint64_t shard) noexcept {
    trace_sink_ = sink;
    trace_shard_ = shard;
  }

 private:
  bool workload_enabled() const noexcept {
    return config_.replicas > 1 || config_.zipf_s > 0.0;
  }
  std::uint64_t object_count() const noexcept {
    return config_.objects != 0 ? config_.objects : membership_.capacity();
  }
  bool entry_valid(NodeSlot entry, std::uint32_t generation) const;
  // The measurement bodies run over ChurnKernelCtx<Id>, Id the rows'
  // cached-id column type; the public measure calls pick the instantiation
  // once per call from rows_.narrow_ids().
  //
  // measure_sync draws `pairs` GETs a chunk at a time and routes each chunk
  // through the 8-lane batched path (`batched`) or the scalar reference
  // path.  Both consume no rng and record identical per-pair outcomes.
  template <typename Id>
  sparse::SparseEstimate measure_sync(std::uint64_t pairs, bool batched);
  template <typename Id>
  void measure_scalar_routes(const ChurnKernelCtx<Id>& ctx, int attempts,
                             sparse::SparseEstimate& estimate);
  template <typename Id>
  void measure_batched_routes(const ChurnKernelCtx<Id>& ctx, int attempts,
                              sparse::SparseEstimate& estimate);
  template <typename Id>
  sparse::SparseEstimate inflight_round(std::uint64_t pairs,
                                        std::uint64_t events_per_hop);
  void refresh_entry(NodeSlot slot, int index);
  void announce_join(NodeSlot slot);
  void rebuild_tables(NodeSlot slot);
  void maintain_successors(NodeSlot slot);
  void maintain_entries(NodeSlot slot);
  void maintain_kademlia_buckets(NodeSlot slot);
  void rebuild_node(NodeSlot slot);
  void lifecycle_and_maintain_slot(NodeSlot slot);
  void integrate_joiners(bool commit_always);
  void advance_sweep(std::uint64_t& cursor, std::uint64_t slots);
  // Re-routes one selected pair against the frozen round snapshot and
  // pushes the hop record into trace_sink_ (sync mode only; rng-free, no
  // load or estimate accounting).
  template <typename Id>
  void trace_route(const ChurnKernelCtx<Id>& ctx, NodeSlot source,
                   NodeSlot target, std::uint64_t pair_index);

  const SparseChurnGeometry geometry_;
  const SparseChurnConfig config_;
  const ChurnParams params_;
  const double repair_probability_;
  const std::uint64_t max_hops_;
  const SessionProcess session_;
  math::Rng lifecycle_rng_;
  math::Rng table_rng_;
  math::Rng measure_rng_;
  math::Rng id_rng_;
  int round_ = 0;
  SparseMembership membership_;
  std::uint64_t total_joins_ = 0;
  std::uint64_t total_leaves_ = 0;
  // Round each slot's current occupant joined; with heavy-tailed sessions
  // the departure hazard depends on this age (negative stamps encode the
  // stationary ages the world is initialized with).
  std::vector<std::int64_t> joined_at_;
  // The routing rows: tables, successor lists, and their stamps.
  ChurnRows rows_;
  // Scratch for step() (avoids per-round allocation).
  std::vector<NodeSlot> joiners_;
  // Kademlia bootstrap/announce scratch: one node's bucket order ranges
  // (SparseMembership::bucket_ranges).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bucket_ranges_;
  // Sync-mode measurement scratch, reused across rounds: the up-front
  // per-pair draws, the per-GET availability flags, and the batch
  // driver's failed-attempt worklist.
  struct GetDraw {
    NodeSlot source = kNoSlot;
    NodeSlot target = kNoSlot;      // attempt-0 holder (the primary)
    std::uint64_t position = 0;     // ring position of the primary
  };
  std::vector<GetDraw> draws_;
  std::vector<std::uint8_t> get_available_;
  std::vector<std::pair<std::uint32_t, int>> retry_;  // (pair, attempt)
  // Messages forwarded per slot across all measured routes (plain u64: the
  // world is single-threaded; see sim/load_stats.hpp for the shapes).
  std::vector<std::uint64_t> load_;
  // Workload measurement state (engaged by replicas > 1 or zipf_s > 0):
  // object popularity.  Objects sit at sparse::flat::object_key, the
  // static engine's placement, which no rng lineage of the world touches.
  std::optional<math::ZipfSampler> zipf_;
  // Observability sinks (all optional, all timing/forensics side-channels
  // that never feed back into the trajectory).
  obs::PhaseProfile* profile_ = nullptr;
  obs::Trace* trace_ = nullptr;
  obs::RouteTraceSink* trace_sink_ = nullptr;
  std::uint64_t trace_shard_ = 0;
};

/// Result of a sharded sparse churn trajectory; the sparse counterpart of
/// churn::TrajectoryResult, with SparseEstimate as the merged currency.
struct SparseChurnResult {
  std::uint64_t shards = 0;
  /// Round r's estimate pooled across shards (merged in shard order).
  std::vector<sparse::SparseEstimate> per_round;
  /// All measured rounds pooled in round order.
  sparse::SparseEstimate overall;
  /// Population averaged over (shard, measured round) snapshots.
  double mean_population = 0.0;
  /// Population / capacity, same averaging (tracks a at stationarity).
  double mean_alive_fraction = 0.0;
  /// Mean table-entry age of present nodes, same averaging.
  double mean_entry_age = 0.0;
  /// Per-node load digest of the measured routes: hottest slot across all
  /// shard worlds, and p99 / coefficient-of-variation averaged over shards
  /// in shard order (each shard world is an independent trajectory).
  std::uint64_t load_max = 0;
  double load_p99 = 0.0;
  double load_cv = 0.0;
  /// Sampled hop-by-hop route traces (TrajectoryOptions::trace_routes),
  /// collected per shard and concatenated in shard order -- deterministic
  /// at any thread count.  Empty when tracing is off.
  std::vector<obs::RouteTrace> traces;
};

/// Runs the sharded sparse churn trajectory; reuses TrajectoryOptions
/// (warmup/measured rounds, pairs per round, shards, threads, max hops,
/// rho).  `rng` is only fork()ed.  Bit-identical at any thread count.
/// Throws std::invalid_argument before allocating anything when
/// min(threads, shards) live worlds of footprint_bytes exceed the host's
/// physical memory.
SparseChurnResult run_sparse_churn_trajectory(SparseChurnGeometry geometry,
                                              const SparseChurnConfig& config,
                                              const ChurnParams& params,
                                              const TrajectoryOptions& options,
                                              const math::Rng& rng);

/// One evaluated grid point of a sparse churn sweep.
struct SparseChurnSweepPoint {
  int bits = 0;
  std::uint64_t population = 0;  ///< target stationary population N0
  std::uint64_t capacity = 0;    ///< derived roster size
  ChurnParams params;
  double repair_probability = 0.0;
  int successors = 0;
  double q_eff = 0.0;  ///< the PR 2 static-model bridge value for `params`
  SparseChurnResult result;
};

/// A (N0, d, churn, rho, s) grid.  Points are the cartesian product in that
/// nesting order (bits outermost, successors innermost); point i uses
/// Rng(seed).fork(i), so each point is reproducible independent of the grid
/// shape.  Capacity is derived per point as capacity_for_population.
struct SparseChurnSweepSpec {
  SparseChurnGeometry geometry = SparseChurnGeometry::kChord;
  std::vector<int> bits = {32};
  std::vector<std::uint64_t> populations = {std::uint64_t{1} << 14};
  std::vector<ChurnParams> churn = {ChurnParams{}};
  std::vector<double> repair = {0.0};
  std::vector<int> successors = {4};
  int shortcuts = 6;
  /// Kademlia bucket width and session model, applied to every point.
  int bucket_k = 1;
  SessionModel session{};
  /// Replication factor, object-popularity skew, and object count,
  /// applied to every point (SparseChurnConfig semantics).
  int replicas = 1;
  double zipf_s = 0.0;
  std::uint64_t objects = 0;
  TrajectoryOptions options{};
  std::uint64_t seed = 1;
};

std::vector<SparseChurnSweepPoint> run_sparse_churn_sweep(
    const SparseChurnSweepSpec& spec);

}  // namespace dht::churn
