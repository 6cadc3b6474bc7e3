// SparseChurnWorld's membership and table maintenance: construction at
// the stationary membership, the round step (lifecycle flips, joiner
// integration, successor-list and table upkeep), and the in-flight sweep's
// per-slot lifecycle.  Measurement lives in sparse_measure.cpp, the hop
// kernels in churn_kernels.hpp.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "churn/sparse_trajectory.hpp"
#include "common/check.hpp"
#include "common/memory.hpp"
#include "common/strfmt.hpp"

namespace dht::churn {

namespace {

// Visits present slots in ascending order by scanning the packed alive
// bitmap one u64 word at a time (countr_zero per member) -- the flattened
// replacement for full-capacity presence scans.  Visit order is identical
// to `for slot < capacity: if present`, so every rng and accumulation
// stream downstream is unchanged.  The callback must not change presence.
template <typename Fn>
void for_each_alive(const SparseMembership& membership, Fn&& fn) {
  const std::uint64_t* words = membership.alive_bits_data();
  const std::uint64_t nwords = membership.alive_words();
  for (std::uint64_t w = 0; w < nwords; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const auto b = static_cast<std::uint64_t>(std::countr_zero(bits));
      fn(static_cast<NodeSlot>((w << 6) + b));
      bits &= bits - 1;
    }
  }
}

// Rejects a config whose `worlds` live replicas cannot fit in physical
// memory, naming the knobs that size a world.
void check_footprint(SparseChurnGeometry geometry,
                     const SparseChurnConfig& config, std::uint64_t worlds) {
  const std::uint64_t per_world =
      SparseChurnWorld::footprint_bytes(geometry, config);
  const std::uint64_t total = common::saturating_mul(per_world, worlds);
  const std::uint64_t physical = common::physical_memory_bytes();
  DHT_CHECK(total <= physical,
            strfmt("%llu live sparse churn world(s) need %llu bytes (%llu "
                   "each) but the host has %llu bytes of physical memory; "
                   "lower capacity (n0), bits, bucket_k (--k) or shortcuts, "
                   "or run fewer threads",
                   static_cast<unsigned long long>(worlds),
                   static_cast<unsigned long long>(total),
                   static_cast<unsigned long long>(per_world),
                   static_cast<unsigned long long>(physical)));
}

}  // namespace

SparseChurnConfig SparseChurnWorld::checked_config(
    const SparseChurnConfig& config, SparseChurnGeometry geometry,
    std::uint64_t live_worlds) {
  DHT_CHECK(config.bits >= 1 && config.bits <= 63,
            "sparse churn supports 1 <= bits <= 63");
  DHT_CHECK(config.successors >= 0 && config.successors <= 64,
            "successor-list length must be in [0, 64]");
  DHT_CHECK(config.bucket_k >= 1 && config.bucket_k <= 64,
            "kademlia bucket width must be in [1, 64]");
  DHT_CHECK(config.replicas >= 1 && config.replicas <= 64,
            "replication factor must be in [1, 64]");
  DHT_CHECK(std::isfinite(config.zipf_s) && config.zipf_s >= 0.0,
            "workload zipf skew must be finite and >= 0");
  DHT_CHECK(config.objects <= (std::uint64_t{1} << 26),
            "workload object count exceeds the 2^26 population cap");
  if (geometry == SparseChurnGeometry::kSymphony) {
    // The upper cap (with bits <= 63 and the successor cap above) keeps
    // every routing row + successor list within the ring kernel's
    // candidate bound (churn_kernels.hpp), so its per-hop progress
    // lattice lives on the stack.
    DHT_CHECK(config.shortcuts >= 1 && config.shortcuts <= 64,
              "symphony shortcut count must be in [1, 64]");
  }
  check_footprint(geometry, config, live_worlds);
  return config;
}

SparseChurnWorld::SparseChurnWorld(SparseChurnGeometry geometry,
                                   const SparseChurnConfig& config,
                                   const ChurnParams& params,
                                   double repair_probability,
                                   std::uint64_t max_hops,
                                   const math::Rng& rng)
    : geometry_(geometry),
      config_(checked_config(config, geometry, /*live_worlds=*/1)),
      params_(params),
      repair_probability_(repair_probability),
      max_hops_(max_hops == 0 ? config.capacity : max_hops),
      session_(params, config.session),
      lifecycle_rng_(rng.fork(1)),
      table_rng_(rng.fork(2)),
      measure_rng_(rng.fork(3)),
      id_rng_(rng.fork(4)),
      membership_(config.bits, config.capacity),
      rows_(geometry, config) {
  const double a = availability(params);  // validates the lifecycle rates
  DHT_CHECK(repair_probability >= 0.0 && repair_probability <= 1.0,
            "repair probability must be in [0, 1]");
  const std::uint64_t capacity = membership_.capacity();
  joined_at_.assign(capacity, 0);
  load_.assign(capacity, 0);
  if (workload_enabled()) {
    zipf_.emplace(object_count(), config_.zipf_s);
  }
  // Stationary membership: each slot present w.p. a, like the dense world's
  // stationary liveness -- the dense-limit oracle depends on the two
  // lifecycle processes being the same slot-level chain.  (The Pareto
  // calibration pins the mean session to 1/pd, so `a` is the geometric
  // availability for every session model.)  Heavy-tailed sessions also
  // draw a stationary session age per initial member -- the age-dependent
  // hazard starts in steady state; geometric sessions are memoryless and
  // skip the draw, keeping the historical rng stream bit for bit.
  joiners_.clear();
  for (NodeSlot slot = 0; slot < capacity; ++slot) {
    if (lifecycle_rng_.bernoulli(a)) {
      joiners_.push_back(slot);
      if (!session_.geometric()) {
        joined_at_[slot] = -session_.sample_stationary_age(lifecycle_rng_);
      }
    }
  }
  membership_.join(joiners_, id_rng_);
  membership_.commit();
  total_joins_ += joiners_.size();
  rows_.acquire(joiners_);
  for_each_alive(membership_, [&](NodeSlot slot) { rebuild_node(slot); });
  // Stagger refresh phases so entry ages start uniform over 0..R-1,
  // matching the q_eff derivation (and the dense world's construction).
  const auto interval =
      static_cast<std::uint64_t>(params_.refresh_interval);
  for_each_alive(membership_, [&](NodeSlot slot) {
    const std::uint64_t base = rows_.row_offset(slot);
    for (int j = 0; j < rows_.row_width(); ++j) {
      rows_.set_stamp(
          base + static_cast<std::uint64_t>(j),
          -static_cast<std::int32_t>(table_rng_.uniform_below(interval)));
    }
    if (config_.successors > 0) {
      rows_.set_successors_refreshed_at(
          slot, -static_cast<std::int32_t>(table_rng_.uniform_below(interval)));
    }
  });
}

std::uint64_t SparseChurnWorld::footprint_bytes(
    SparseChurnGeometry geometry, const SparseChurnConfig& config) {
  // joined_at_ and load_: one i64 and one u64 per slot.
  const std::uint64_t world_slot_bytes =
      common::saturating_mul(config.capacity, 2 * sizeof(std::uint64_t));
  return common::saturating_add(
      common::saturating_add(ChurnRows::bytes_for(geometry, config),
                             SparseMembership::bytes_for(config.bits,
                                                         config.capacity)),
      world_slot_bytes);
}

void SparseChurnWorld::audit() const {
  membership_.audit();
  rows_.audit(membership_, round_, params_.refresh_interval,
              /*due_bound=*/repair_probability_ == 0.0);
}

bool SparseChurnWorld::entry_valid(NodeSlot entry,
                                   std::uint32_t generation) const {
  // Probe the packed alive bitmap rather than the byte mask: the bitmap
  // for a full-sized roster is 16 KiB (L1-resident under the maintenance
  // sweeps' random slot access), the byte mask 64x that.
  return entry != kNoSlot &&
         (membership_.alive_bits_data()[entry >> 6] >> (entry & 63) & 1) !=
             0 &&
         membership_.generation(entry) == generation;
}

void SparseChurnWorld::refresh_entry(NodeSlot slot, int index) {
  const std::uint64_t id = membership_.id_of(slot);
  const std::uint64_t mask = membership_.key_mask();
  const std::uint64_t offset =
      rows_.row_offset(slot) + static_cast<std::uint64_t>(index);
  NodeSlot chosen = kNoSlot;
  switch (geometry_) {
    case SparseChurnGeometry::kChord: {
      // Finger i = index+1 points at successor(id + 2^{d-i}).
      const std::uint64_t key =
          (id + (std::uint64_t{1} << (config_.bits - index - 1))) & mask;
      chosen = membership_.successor_of_key(key);
      break;
    }
    case SparseChurnGeometry::kKademlia: {
      // Cell `index % k` of bucket `index / k + 1`; every cell re-draws a
      // uniform bucket member, so k = 1 consumes the pre-k stream exactly.
      const auto [lo, hi] = kademlia_bucket_range(
          id, index / config_.bucket_k + 1, config_.bits);
      const auto [first, last] = membership_.order_range(lo, hi);
      if (first < last) {
        chosen = membership_.slot_at(
            first + table_rng_.uniform_below(last - first));
      }
      break;
    }
    case SparseChurnGeometry::kSymphony: {
      // Harmonic key-distance draw, linked to the key's current owner;
      // re-draw when it degenerates to the node itself.  This is the
      // shortcut re-draw semantics the dense trajectory engine lacks: the
      // sparse world re-draws the *key* and resolves it against the
      // current membership.
      const std::uint64_t keys = membership_.key_space_size();
      const double log_range =
          std::log(static_cast<double>(keys - 1));
      NodeSlot link = slot;
      for (int attempt = 0; attempt < 64 && link == slot; ++attempt) {
        const double u = table_rng_.uniform01();
        std::uint64_t key_offset =
            static_cast<std::uint64_t>(std::exp(u * log_range));
        key_offset = key_offset < 1 ? 1 : key_offset;
        key_offset = key_offset > keys - 1 ? keys - 1 : key_offset;
        link = membership_.successor_of_key((id + key_offset) & mask);
      }
      chosen = link;  // may stay self in degenerate tiny populations
      break;
    }
  }
  rows_.install(offset, chosen, membership_, id,
                static_cast<std::int32_t>(round_));
}

void SparseChurnWorld::rebuild_tables(NodeSlot slot) {
  if (geometry_ == SparseChurnGeometry::kChord) {
    // Bulk finger rebuild -- the join-storm path (every joiner re-derives
    // its whole row, hundreds of millions of entries per trajectory).
    rows_.install_chord_row(slot, membership_,
                            static_cast<std::int32_t>(round_));
    return;
  }
  if (geometry_ == SparseChurnGeometry::kKademlia) {
    // Bulk bucket rebuild: every bucket's range from one narrowing pass,
    // then its k cells drawn from that range in refresh_entry's cell
    // order -- the same draws and writes as refresh_entry per index,
    // without re-searching a bucket once per cell.
    const std::uint64_t id = membership_.id_of(slot);
    const int k = config_.bucket_k;
    membership_.bucket_ranges(id, bucket_ranges_);
    std::uint64_t offset = rows_.row_offset(slot);
    const auto stamp = static_cast<std::int32_t>(round_);
    for (const auto& [first, last] : bucket_ranges_) {
      for (int cell = 0; cell < k; ++cell, ++offset) {
        const NodeSlot chosen =
            first < last ? membership_.slot_at(
                               first + table_rng_.uniform_below(last - first))
                         : kNoSlot;
        rows_.install(offset, chosen, membership_, id, stamp);
      }
    }
    return;
  }
  for (int j = 0; j < rows_.row_width(); ++j) {
    refresh_entry(slot, j);
  }
}

void SparseChurnWorld::rebuild_node(NodeSlot slot) {
  rebuild_tables(slot);
  if (config_.successors > 0) {
    const std::uint64_t own =
        membership_.successor_position(membership_.id_of(slot));
    // First node strictly clockwise.
    rows_.rebuild_successors(slot, membership_, own + 1,
                             static_cast<std::int32_t>(round_));
  }
}

void SparseChurnWorld::announce_join(NodeSlot slot) {
  const std::uint64_t population = membership_.order_size();
  if (population < 2) {
    return;
  }
  const std::uint64_t own =
      membership_.successor_position(membership_.id_of(slot));
  // Chord's notify: the clockwise predecessor learns its new successor
  // immediately (its rebuilt list starts at the joiner).  This is what
  // keeps arrival working under membership turnover -- without it a
  // newcomer is unreachable until its neighborhood refreshes.
  if (config_.successors > 0) {
    const NodeSlot predecessor =
        membership_.slot_at((own + population - 1) % population);
    if (predecessor != slot) {
      rows_.rebuild_successors(predecessor, membership_, own,
                               static_cast<std::int32_t>(round_));
    }
  }
  // Kademlia's join lookup: the joiner installs itself into the matching
  // bucket of its closest peers (deepest shared-prefix levels first),
  // filling entries that are empty or point at departed/recycled nodes.
  // Bucket membership is symmetric -- u in v's level-l bucket iff v in
  // u's -- so the peers are exactly the members of the joiner's own deep
  // buckets.
  if (geometry_ == SparseChurnGeometry::kKademlia && config_.announce > 0) {
    int budget = config_.announce;
    const int k = config_.bucket_k;
    const std::uint64_t id = membership_.id_of(slot);
    membership_.bucket_ranges(id, bucket_ranges_);
    for (int level = config_.bits; level >= 1 && budget > 0; --level) {
      const auto [first, last] =
          bucket_ranges_[static_cast<std::size_t>(level - 1)];
      for (std::uint64_t pos = first; pos < last && budget > 0; ++pos) {
        const NodeSlot peer = membership_.slot_at(pos);
        // The joiner enters the peer's bucket at its first free cell --
        // empty or observed-stale -- i.e. at the tail of the live entries,
        // the newcomer end of the LRU order.  A bucket full of valid
        // contacts ignores the announcement (classic Kademlia keeps its
        // long-lived members).
        const std::uint64_t bucket_base =
            rows_.row_offset(peer) + static_cast<std::uint64_t>(level - 1) *
                                         static_cast<std::uint64_t>(k);
        for (int cell = 0; cell < k; ++cell) {
          const std::uint64_t offset =
              bucket_base + static_cast<std::uint64_t>(cell);
          if (!entry_valid(rows_.entry(offset),
                           rows_.entry_generation(offset))) {
            rows_.install(offset, slot, membership_, id,
                          static_cast<std::int32_t>(round_));
            break;
          }
        }
        --budget;
      }
    }
  }
}

void SparseChurnWorld::maintain_successors(NodeSlot slot) {
  const int s = config_.successors;
  if (s == 0) {
    return;
  }
  bool broken = false;
  NodeSlot first_alive = kNoSlot;
  for (int t = 0; t < s; ++t) {
    const NodeSlot e = rows_.successor(slot, t);
    if (e == slot || !entry_valid(e, rows_.successor_generation(slot, t))) {
      broken = true;
    } else if (first_alive == kNoSlot) {
      first_alive = e;
    }
  }
  if (broken) {
    if (first_alive != kNoSlot) {
      // Consult the list: the first alive entry seeds the repaired list
      // (its current clockwise chain).  Joiners between this node and that
      // entry are picked up by the next scheduled rebuild -- the
      // stabilization lag of real successor lists.
      rows_.rebuild_successors(
          slot, membership_,
          membership_.successor_position(membership_.id_of(first_alive)),
          static_cast<std::int32_t>(round_));
    } else {
      // Every sequential neighbor is gone: fall back to a full rebuild
      // (tables included), the re-join-like recovery path.
      rebuild_node(slot);
    }
  } else if (round_ - rows_.successors_refreshed_at(slot) >=
             params_.refresh_interval) {
    const std::uint64_t own =
        membership_.successor_position(membership_.id_of(slot));
    rows_.rebuild_successors(slot, membership_, own + 1,
                             static_cast<std::int32_t>(round_));
  }
}

// Entry maintenance for the single-contact row geometries (Chord fingers,
// Symphony shortcuts): due refreshes plus the eager-repair channel (an
// entry observed dead is re-pointed with probability rho between scheduled
// refreshes).  Fresh joiner rows are stamped with the current round, so
// they fall through every branch.
void SparseChurnWorld::maintain_entries(NodeSlot slot) {
  if (geometry_ == SparseChurnGeometry::kKademlia) {
    maintain_kademlia_buckets(slot);
    return;
  }
  if (repair_probability_ == 0.0) {
    // Pure lazy refresh consumes no rng during the scan, so a row whose
    // earliest possibly-due round lies in the future can be skipped
    // outright -- the dirty-row worklist that replaces the full-width
    // sweep.  The bound is conservative: stamps only move forward between
    // scans (refreshes and announcements re-stamp with the current
    // round), so a skipped row provably has nothing due.
    if (round_ < rows_.due_round(slot)) {
      return;
    }
    // Two passes so the common case -- scanning a row with nothing or
    // almost nothing due -- is a branch-free strip over the contiguous
    // stamps (row_width <= 64 outside Kademlia, so the due set packs into
    // one word).  Refreshing ascending mask bits then reproduces the
    // interleaved loop exactly: refreshes re-stamp with round_, so the
    // post-scan minimum is min(surviving stamps, round_), and round_ only
    // enters when something was refreshed -- surviving stamps never
    // exceed it.
    const int row_width = rows_.row_width();
    const std::int32_t* stamps = rows_.row_stamps(slot);
    const std::int32_t due_at =
        static_cast<std::int32_t>(round_) -
        static_cast<std::int32_t>(params_.refresh_interval);
    std::uint64_t due = 0;
    std::int32_t min_live = std::numeric_limits<std::int32_t>::max();
    for (int j = 0; j < row_width; ++j) {
      const bool is_due = stamps[j] <= due_at;
      due |= static_cast<std::uint64_t>(is_due) << j;
      min_live = !is_due && stamps[j] < min_live ? stamps[j] : min_live;
    }
    std::int32_t min_stamp = min_live;
    if (due != 0) {
      do {
        refresh_entry(slot, std::countr_zero(due));
        due &= due - 1;
      } while (due != 0);
      min_stamp = std::min(min_live, static_cast<std::int32_t>(round_));
    }
    rows_.set_due_round(
        slot, min_stamp + static_cast<std::int32_t>(params_.refresh_interval));
    return;
  }
  const std::uint64_t row_base = rows_.row_offset(slot);
  for (int j = 0; j < rows_.row_width(); ++j) {
    const std::uint64_t offset = row_base + static_cast<std::uint64_t>(j);
    if (round_ - rows_.stamp(offset) >= params_.refresh_interval) {
      refresh_entry(slot, j);
    } else {
      // Observed-dead covers departed targets AND recycled slots (the
      // node at that address is a different one now) -- both are
      // generation mismatches.
      const NodeSlot entry = rows_.entry(offset);
      if (entry != kNoSlot &&
          !entry_valid(entry, rows_.entry_generation(offset)) &&
          table_rng_.bernoulli(repair_probability_)) {
        refresh_entry(slot, j);
      }
    }
  }
}

// k-bucket maintenance (the Roos et al. LRU discipline): a cell due for
// refresh is re-drawn in place (the scheduled touch); a cell observed dead
// by the rho channel is EVICTED -- the bucket compacts toward the head,
// preserving insertion order, and the freed tail cell is refreshed (the
// replacement enters at the newcomer end).  With k = 1 the compaction is
// empty and both branches collapse onto the single-contact sequence, so
// the pre-k rng stream and tables are reproduced bit for bit.
void SparseChurnWorld::maintain_kademlia_buckets(NodeSlot slot) {
  const int k = config_.bucket_k;
  const std::uint64_t row_base = rows_.row_offset(slot);
  // rho == 0: the scan is rng-free, so the due-round bound applies
  // exactly as in maintain_entries (evictions -- which shift stamps
  // mid-scan -- exist only on the rho > 0 branch, where the bound is
  // never consulted or maintained).
  const bool lazy_only = repair_probability_ == 0.0;
  if (lazy_only && round_ < rows_.due_round(slot)) {
    return;
  }
  std::int32_t min_stamp = std::numeric_limits<std::int32_t>::max();
  for (int b = 0; b < config_.bits; ++b) {
    const std::uint64_t bucket_base =
        row_base + static_cast<std::uint64_t>(b) * static_cast<std::uint64_t>(k);
    for (int cell = 0; cell < k; ++cell) {
      const std::uint64_t offset =
          bucket_base + static_cast<std::uint64_t>(cell);
      if (round_ - rows_.stamp(offset) >= params_.refresh_interval) {
        refresh_entry(slot, b * k + cell);
      } else if (!lazy_only) {
        const NodeSlot entry = rows_.entry(offset);
        if (entry != kNoSlot &&
            !entry_valid(entry, rows_.entry_generation(offset)) &&
            table_rng_.bernoulli(repair_probability_)) {
          rows_.evict(bucket_base, cell, k);
          refresh_entry(slot, b * k + (k - 1));
          // The shifted-in cell keeps its own stamps and gets its next
          // look next round -- each cell is examined once per round.
        }
      }
      min_stamp = std::min(min_stamp, rows_.stamp(offset));
    }
  }
  if (lazy_only) {
    rows_.set_due_round(
        slot, min_stamp + static_cast<std::int32_t>(params_.refresh_interval));
  }
}

// Integrates the joiner cohort collected since the last call: fresh-id
// draw, order-index commit, bootstrap against the committed membership
// (which already includes the whole cohort, mirroring the dense rejoiner
// rebuilds), then announcement (predecessor notify / deep-bucket inserts).
// `commit_always` forces the order-index rebuild even with no joiners --
// the round-boundary contract (departed entries dropped every round); the
// in-flight path skips the O(N) rebuild at joinerless lookup boundaries
// (mid-round the order index may briefly carry departed entries, which
// read as dead through the presence mask like any stale state).
void SparseChurnWorld::integrate_joiners(bool commit_always) {
  // Round-boundary commits (commit_always) also refresh the membership's
  // prefix-seek table: a round of maintenance queries follows and
  // amortizes the rebuild many times over.  The in-flight engine's
  // per-lookup boundary commits skip the rebuild -- their delta is a
  // handful of slots and the next boundary is one lookup away -- at the
  // price of seek windows widened by the membership drift since the last
  // refreshing commit.
  if (joiners_.empty()) {
    if (commit_always) {
      membership_.commit(/*refresh_seek=*/true);
    }
    return;
  }
  membership_.join(joiners_, id_rng_);
  membership_.commit(/*refresh_seek=*/commit_always);
  total_joins_ += joiners_.size();
  rows_.acquire(joiners_);
  for (const NodeSlot slot : joiners_) {
    joined_at_[slot] = round_;
  }
  for (const NodeSlot slot : joiners_) {
    rebuild_node(slot);
  }
  for (const NodeSlot slot : joiners_) {
    announce_join(slot);
  }
  joiners_.clear();
}

// One slot of the fused in-flight sweep: the lifecycle flip, then -- for a
// surviving member -- its round maintenance in place.  Unlike step(),
// where every flip happens before any repair, the world here is genuinely
// un-frozen: a slot's maintenance sees whatever the sweep has already done
// this round.  The lifecycle stream still draws exactly one Bernoulli per
// slot in slot order, so it stays the same sequence as step()'s.
void SparseChurnWorld::lifecycle_and_maintain_slot(NodeSlot slot) {
  if (membership_.present(slot)) {
    if (lifecycle_rng_.bernoulli(
            session_.hazard(static_cast<std::int64_t>(round_) -
                            joined_at_[slot]))) {
      membership_.leave(slot);
      rows_.release(slot);
      ++total_leaves_;
      return;
    }
    if (membership_.order_size() == 0) {
      return;  // order index momentarily empty: nothing to repair against
    }
    maintain_successors(slot);
    maintain_entries(slot);
  } else if (lifecycle_rng_.bernoulli(params_.rebirth_per_round)) {
    joiners_.push_back(slot);
  }
}

void SparseChurnWorld::advance_sweep(std::uint64_t& cursor,
                                     std::uint64_t slots) {
  const std::uint64_t capacity = membership_.capacity();
  const std::uint64_t end =
      slots > capacity - cursor ? capacity : cursor + slots;
  for (; cursor < end; ++cursor) {
    lifecycle_and_maintain_slot(static_cast<NodeSlot>(cursor));
  }
}

void SparseChurnWorld::step() {
  ++round_;
  const std::uint64_t capacity = membership_.capacity();
  // Lifecycle flips first: a slot's decision reads its pre-round state
  // (leave() flips presence in place, but each slot is visited once; join
  // assignment is deferred to the batch below).  The departure draw runs
  // through the session model's age-dependent hazard; geometric sessions
  // have the constant hazard pd, reproducing the historical stream.
  obs::PhaseTimer lifecycle_timer(profile_, obs::Phase::kLifecycle, trace_);
  joiners_.clear();
  for (NodeSlot slot = 0; slot < capacity; ++slot) {
    if (membership_.present(slot)) {
      if (lifecycle_rng_.bernoulli(
              session_.hazard(static_cast<std::int64_t>(round_) -
                              joined_at_[slot]))) {
        membership_.leave(slot);
        rows_.release(slot);
        ++total_leaves_;
      }
    } else if (lifecycle_rng_.bernoulli(params_.rebirth_per_round)) {
      joiners_.push_back(slot);
    }
  }
  lifecycle_timer.stop();
  {
    obs::PhaseTimer commit_timer(profile_, obs::Phase::kMembershipCommit,
                                 trace_);
    integrate_joiners(/*commit_always=*/true);
  }
  // Maintenance for present nodes: successor-list stabilization, due
  // refreshes, and eager repair.  Members are enumerated through the
  // packed alive bitmap (same ascending order as the historical
  // full-capacity presence scan) and rows that provably have nothing due
  // are skipped inside maintain_entries.
  obs::PhaseTimer refresh_timer(profile_, obs::Phase::kRefreshRepair, trace_);
  for_each_alive(membership_, [&](NodeSlot slot) {
    maintain_successors(slot);
    maintain_entries(slot);
  });
}

double SparseChurnWorld::alive_fraction() const noexcept {
  return static_cast<double>(membership_.population()) /
         static_cast<double>(membership_.capacity());
}

double SparseChurnWorld::mean_entry_age() const {
  double total = 0.0;
  std::uint64_t counted = 0;
  // Bitmap enumeration preserves the ascending slot order, so the
  // floating-point accumulation is bit-identical to the historical
  // full-capacity scan.
  for_each_alive(membership_, [&](NodeSlot slot) {
    const std::int32_t* stamps = rows_.row_stamps(slot);
    for (int j = 0; j < rows_.row_width(); ++j) {
      total += round_ - stamps[j];
      ++counted;
    }
  });
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace dht::churn
