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
#include <string_view>
#include <vector>

#include "churn/membership.hpp"
#include "churn/trajectory.hpp"
#include "math/rng.hpp"
#include "math/zipf.hpp"
#include "obs/route_trace.hpp"
#include "sim/load_stats.hpp"
#include "sparse/sparse_overlay.hpp"

namespace dht::churn {

struct ChurnKernelCtx;  // flattened routing view (sparse_trajectory.cpp)

/// Geometries of the sparse churn world (the three sparse overlay
/// families; named like the dhtscale_cli sparse geometries).
enum class SparseChurnGeometry {
  kChord,     // "ring": successor-of-key fingers, greedy clockwise
  kKademlia,  // "xor": bucket contacts, XOR-greedy bucket walk
  kSymphony,  // "symphony": harmonic shortcuts, greedy clockwise
};

/// Maps "ring" | "xor" | "symphony" to the enum; anything else is false.
bool sparse_churn_geometry_from_name(std::string_view name,
                                     SparseChurnGeometry& out);

const char* to_string(SparseChurnGeometry geometry) noexcept;

struct SparseChurnConfig {
  /// Key-space bits (1 <= bits <= 63).
  int bits = 32;
  /// Slot-roster size C.  Each slot runs the two-state lifecycle of
  /// churn/churn.hpp (present w.p. a = pr/(pd+pr) at stationarity), so the
  /// stationary population is a * C.  Capacity <= min(2^bits, 2^26).
  std::uint64_t capacity = std::uint64_t{1} << 14;
  /// Successor-list length s (0 disables sequential neighbors).
  int successors = 4;
  /// Symphony shortcut count ks (ignored by the other geometries).
  int shortcuts = 6;
  /// Join-announcement budget: how many nearby nodes a joiner installs
  /// itself into (Kademlia's self-lookup deep-bucket inserts; 0 disables).
  /// The ring geometries announce to the clockwise predecessor's successor
  /// list instead (Chord's notify), which costs nothing extra.  Without
  /// announcement a newcomer is invisible to in-edges until their owners
  /// refresh -- up to R rounds of arrival blindness the dense model cannot
  /// express, because there a reborn node keeps its identity and every
  /// stale in-edge revives instantly.
  int announce = 8;
  /// Kademlia bucket width k (the Roos et al. k-bucket model): each of the
  /// d buckets holds up to k contacts in insertion order -- longest-lived
  /// at the head, newcomers at the tail.  Routing probes a bucket head
  /// first (Kademlia's preference for long-lived contacts, which the
  /// heavy-tailed session model rewards); maintenance evicts a contact
  /// observed dead by compacting the bucket and refreshing the freed tail
  /// cell (the LRU replacement), and join announcement inserts into the
  /// first free cell.  k = 1 reproduces the single-contact rows of the
  /// pre-k engine bit for bit.  Ignored by the ring geometries.
  int bucket_k = 1;
  /// Session-length distribution of the lifecycle (churn/churn.hpp):
  /// geometric (memoryless, the historical model) or heavy-tailed Pareto
  /// with the same mean session 1/pd.
  SessionModel session{};
  /// r-way object replication over the successor list: a GET succeeds when
  /// ANY of the object key's first r clockwise present holders is reached
  /// (attempt 0, toward the primary, is what the routing estimate records;
  /// the extra attempts feed only the availability counters).  replicas = 1
  /// together with zipf_s = 0 keeps the historical uniform-pair
  /// measurement, bit for bit.
  int replicas = 1;
  /// Zipf skew of object popularity for the measured GETs (0 = uniform
  /// over objects; only meaningful with the workload measurement engaged,
  /// i.e. replicas > 1 or zipf_s > 0).
  double zipf_s = 0.0;
  /// Distinct objects (0 = one per roster slot).  Capped at 2^26.
  std::uint64_t objects = 0;
};

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
  SparseChurnWorld(SparseChurnGeometry geometry,
                   const SparseChurnConfig& config, const ChurnParams& params,
                   double repair_probability, std::uint64_t max_hops,
                   const math::Rng& rng);

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
  ChurnKernelCtx kernel_ctx() const;
  // Draws `pairs` GETs a chunk at a time and routes each chunk with
  // `route_chunk`, one of the two members below: the scalar reference path
  // or the 8-lane batched path.  Both consume no rng and record identical
  // per-pair outcomes.
  using RouteChunk = void (SparseChurnWorld::*)(const ChurnKernelCtx&, int,
                                                sparse::SparseEstimate&);
  sparse::SparseEstimate measure_sync(std::uint64_t pairs,
                                      RouteChunk route_chunk);
  void measure_scalar_routes(const ChurnKernelCtx& ctx, int attempts,
                             sparse::SparseEstimate& estimate);
  void measure_batched_routes(const ChurnKernelCtx& ctx, int attempts,
                              sparse::SparseEstimate& estimate);
  void refresh_entry(NodeSlot slot, int index);
  void install_entry(std::uint64_t offset, NodeSlot chosen,
                     std::uint64_t owner_id);
  void announce_join(NodeSlot slot);
  void rebuild_tables(NodeSlot slot);
  void rebuild_successors(NodeSlot slot, std::uint64_t from_position);
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
  void trace_route(const ChurnKernelCtx& ctx, NodeSlot source,
                   NodeSlot target, std::uint64_t pair_index);

  const SparseChurnGeometry geometry_;
  const SparseChurnConfig config_;
  const ChurnParams params_;
  const double repair_probability_;
  const std::uint64_t max_hops_;
  const int row_width_;
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
  // Row-major [slot][index] table entries, the generation each entry was
  // installed against (an entry is valid only while its target slot keeps
  // that generation -- identities never return), and the round each entry
  // was refreshed.
  std::vector<NodeSlot> table_;
  std::vector<std::uint32_t> table_gen_;
  std::vector<std::int32_t> refreshed_at_;
  // Install-time identifier of each entry's target, cached row-major next
  // to the entries.  While an entry is valid its target's id cannot have
  // changed (ids change only on rejoin, which bumps the generation), so
  // the kernels compute progress / XOR distance from this sequential row
  // instead of chasing ids_[entry] pointers; invalid entries yield garbage
  // geometry but are rejected by the validity probe exactly as before.
  // Empty cells store the row owner's own id: zero clockwise progress /
  // XOR distance equal to the owner's, inadmissible in both metrics, so
  // they fall out arithmetically.
  std::vector<std::uint64_t> table_id_;
  // Earliest round at which a slot's row can hold a due entry
  // (min refreshed_at over the row + R, maintained conservatively: stamps
  // only increase between scans).  Lets rho = 0 maintenance skip whole
  // rows without touching them -- a skipped row consumes no rng, exactly
  // like a scanned row with nothing due.
  std::vector<std::int32_t> table_due_round_;
  // Row-major [slot][0..s) successor lists + generations + cached target
  // ids (same discipline as table_id_) + per-node refresh stamps.
  std::vector<NodeSlot> successors_;
  std::vector<std::uint32_t> successors_gen_;
  std::vector<std::uint64_t> successors_id_;
  std::vector<std::int32_t> successors_refreshed_at_;
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
