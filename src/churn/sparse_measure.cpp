// SparseChurnWorld's measurement: lookup draws, the sync estimate (the
// lane-driven measure() and its scalar reference), route forensics, the
// in-flight round, and the per-slot load digest.  Every route takes its
// hops through the kernels in churn_kernels.hpp.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "churn/churn_kernels.hpp"
#include "churn/sparse_trajectory.hpp"
#include "sim/lanes.hpp"
#include "sparse/flat_sparse.hpp"

namespace dht::churn {

using namespace detail;  // the hop kernels of churn_kernels.hpp
namespace flat = sparse::flat;

NodeSlot SparseChurnWorld::sample_present(math::Rng& rng) const {
  const std::uint64_t capacity = membership_.capacity();
  auto slot = static_cast<NodeSlot>(rng.uniform_below(capacity));
  while (!membership_.present(slot)) {
    slot = static_cast<NodeSlot>(rng.uniform_below(capacity));
  }
  return slot;
}

SparseChurnWorld::GetDraw SparseChurnWorld::draw_lookup(math::Rng& rng) {
  GetDraw draw;
  if (!workload_enabled()) {
    draw.source = sample_present(rng);
    do {
      draw.target = sample_present(rng);
    } while (draw.target == draw.source);
    return draw;
  }
  // Replicated GET: the object's key places it on its successor (the
  // primary, attempt 0 -- what the routing estimate records) and the next
  // r - 1 clockwise present nodes hold the replicas.  Sources colliding
  // with the primary redraw both draws, like the uniform target rejection.
  do {
    draw.source = sample_present(rng);
    const std::uint64_t object = zipf_->sample(rng);
    draw.position = membership_.successor_position(
        flat::object_key(membership_.key_mask(), object));
    draw.target = membership_.ring_successor(draw.position, 0);
  } while (draw.target == draw.source);
  return draw;
}

template <typename RouteTo>
bool SparseChurnWorld::replica_reachable(const GetDraw& draw, int attempts,
                                         RouteTo&& route_to) const {
  for (int a = 1; a < attempts; ++a) {
    const NodeSlot holder = membership_.ring_successor(
        draw.position, static_cast<std::uint64_t>(a));
    if (!membership_.present(holder)) {
      continue;  // the replica departed with its holder
    }
    // The source may hold the replica itself.
    if (holder == draw.source || route_to(holder)) {
      return true;
    }
  }
  return false;
}

template <typename Id>
sparse::SparseEstimate SparseChurnWorld::measure_sync(std::uint64_t pairs,
                                                      bool batched) {
  math::Rng& rng = measure_rng_;
  obs::PhaseTimer route_timer(profile_, obs::Phase::kRoute, trace_);
  sparse::SparseEstimate estimate;
  if (membership_.population() < 2) {
    return estimate;  // nothing to sample: the empty-estimate contract
  }
  const ChurnKernelCtx<Id> ctx = rows_.kernel_view<Id>(membership_);
  const bool workload = workload_enabled();
  // Replica attempts are capped by the population once for the whole
  // call: the world is frozen in sync mode, so the historical per-pair
  // min is a constant.
  const int attempts =
      workload ? static_cast<int>(std::min<std::uint64_t>(
                     static_cast<std::uint64_t>(config_.replicas),
                     membership_.order_size()))
               : 1;
  // Draws are pulled a chunk at a time BEFORE any routing: routing is
  // rng-free, so hoisting the draws out of the route loop consumes the
  // measurement stream byte for byte like the historical interleaved
  // loop, while giving the lane driver a pair source to refill lanes
  // from.  Chunking bounds the scratch (and keeps pair tags in u32).
  constexpr std::uint64_t kDrawChunk = 4096;
  for (std::uint64_t start = 0; start < pairs; start += kDrawChunk) {
    const std::uint64_t n = std::min(kDrawChunk, pairs - start);
    draws_.clear();
    draws_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      draws_.push_back(draw_lookup(rng));
    }
    // Forensics: the sink's stride selects pairs by their index within
    // this measurement call -- a pure function of (shard, round, pair
    // index), so the traced set is identical at any thread count.  The
    // re-route runs against the same frozen snapshot the measurement
    // routes see and touches no rng, load counter, or estimate.
    if (trace_sink_ != nullptr && trace_sink_->enabled()) {
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t pair_index = start + i;
        if (trace_sink_->selects(pair_index)) {
          trace_route(ctx, draws_[i].source, draws_[i].target, pair_index);
        }
      }
    }
    if (batched) {
      measure_batched_routes(ctx, attempts, estimate);
    } else {
      measure_scalar_routes(ctx, attempts, estimate);
    }
  }
  return estimate;
}

// Re-routes one selected pair through route_one against the frozen
// snapshot, recording each chosen hop's slot, cached id, table rank (the
// index in the forwarding node's row; -1 marks a successor-list hop), and
// the generation probe that admitted it.  Routing is rng-free and the world
// is frozen in sync mode, so the walk reproduces the measurement route
// exactly; it charges no load and records into no estimate, so it never
// perturbs the measurement either.
template <typename Id>
void SparseChurnWorld::trace_route(const ChurnKernelCtx<Id>& ctx,
                                   NodeSlot source, NodeSlot target,
                                   std::uint64_t pair_index) {
  static_assert(static_cast<int>(RouteStatus::kArrived) == 0 &&
                    static_cast<int>(RouteStatus::kDropped) == 1 &&
                    static_cast<int>(RouteStatus::kHopLimit) == 2,
                "RouteTrace::status codes are RouteStatus values");
  obs::RouteTrace trace;
  trace.shard = trace_shard_;
  trace.round = round_;
  trace.pair_index = pair_index;
  trace.source_slot = source;
  trace.source_id = ctx.ids[source];
  trace.target_id = ctx.ids[target];
  const auto record_hop = [&](NodeSlot from, const StepResult& next) {
    obs::RouteHop hop;
    hop.slot = next.next;
    hop.id = next.next_id;
    hop.rank = -1;
    hop.gen_ok = false;
    // Recover the rank: the chosen entry lives in the forwarding node's
    // table row (rank = cell index) or its successor list (rank = -1);
    // match on slot + cached id so a recycled slot in another cell can't
    // alias the pick.
    const std::uint64_t row_base = ctx.row_base(from);
    for (int j = 0; j < ctx.row_width; ++j) {
      const std::uint64_t off = row_base + static_cast<std::uint64_t>(j);
      if (ctx.table[off] == next.next && ctx.table_id[off] == next.next_id &&
          ctx_entry_valid(ctx, ctx.table[off], ctx.table_gen[off])) {
        hop.rank = j;
        hop.gen_ok = true;
        break;
      }
    }
    if (hop.rank < 0) {
      const std::uint64_t succ_base = ctx.successor_base(from);
      for (int t = 0; t < ctx.s; ++t) {
        const std::uint64_t off = succ_base + static_cast<std::uint64_t>(t);
        if (ctx.successors[off] == next.next &&
            ctx.successors_id[off] == next.next_id &&
            ctx_entry_valid(ctx, ctx.successors[off],
                            ctx.successors_gen[off])) {
          hop.gen_ok = true;
          break;
        }
      }
    }
    trace.hops.push_back(hop);
  };
  trace.status = static_cast<std::uint32_t>(route_one<false>(
      ctx, step_kernel<Id>(geometry_), source, trace.source_id, target,
      trace.target_id, max_hops_, /*load=*/nullptr, /*rec=*/nullptr,
      record_hop));
  trace_sink_->push(std::move(trace));
}

// The scalar reference path: pair by pair through the shared single-route
// core, replicas consulted in attempt order only while unavailable --
// exactly the historical control flow over the drawn chunk.
template <typename Id>
void SparseChurnWorld::measure_scalar_routes(
    const ChurnKernelCtx<Id>& ctx, int attempts,
    sparse::SparseEstimate& estimate) {
  const StepFn<Id> kernel = step_kernel<Id>(geometry_);
  const bool workload = workload_enabled();
  for (const GetDraw& draw : draws_) {
    const std::uint64_t source_id = ctx.ids[draw.source];
    const auto route_to = [&](NodeSlot target, sparse::SparseEstimate* rec) {
      return route_one<false>(ctx, kernel, draw.source, source_id, target,
                              ctx.ids[target], max_hops_, load_.data(), rec,
                              NoHop{}) == RouteStatus::kArrived;
    };
    const bool arrived = route_to(draw.target, &estimate);
    if (!workload) {
      continue;
    }
    ++estimate.gets;
    if (arrived || replica_reachable(draw, attempts, [&](NodeSlot holder) {
          return route_to(holder, nullptr);
        })) {
      ++estimate.gets_available;
    }
  }
}

// The batched path: the drawn chunk feeds the 8 SoA lanes; replica
// attempts are failure-driven (attempt a launches only once attempts
// 0..a-1 have failed, via the LIFO retry worklist), so exactly the scalar
// attempt set gets routed.  Every recorded quantity -- estimate counters,
// availability flags, load bumps -- is a commutative sum over that
// identical set, so lane scheduling cannot change the merged result;
// per-pair equality against measure_scalar_routes is gated in
// test_sparse_churn.
template <typename Id>
void SparseChurnWorld::measure_batched_routes(
    const ChurnKernelCtx<Id>& ctx, int attempts,
    sparse::SparseEstimate& estimate) {
  const bool workload = workload_enabled();
  const bool xor_geometry = geometry_ == SparseChurnGeometry::kKademlia;
  const auto n = static_cast<std::uint32_t>(draws_.size());
  get_available_.assign(n, 0);
  retry_.clear();
  std::uint32_t next = 0;
  int lane_attempt[Lanes::kLanes] = {};
  const auto launch = [&](Lanes& b, int l, std::uint32_t pair,
                          int attempt, NodeSlot target) {
    const GetDraw& draw = draws_[pair];
    b.rank[l] = pair;  // the lane's GET tag
    lane_attempt[l] = attempt;
    b.cur[l] = draw.source;
    b.dist[l] = ctx.ids[draw.source];
    b.target[l] = target;
    b.target_id[l] = ctx.ids[target];
    b.hops[l] = 0;
    if (xor_geometry) {
      prefetch_xor_bucket(ctx, draw.source, b.dist[l], b.target_id[l]);
    } else {
      prefetch_ring_row(ctx, draw.source);
    }
  };
  const auto refill = [&](Lanes& b, int l) -> bool {
    for (;;) {
      std::uint32_t pair;
      int attempt;
      if (!retry_.empty()) {
        pair = retry_.back().first;
        attempt = retry_.back().second;
        retry_.pop_back();
      } else if (next < n) {
        pair = next++;
        attempt = 0;
      } else {
        return false;
      }
      const GetDraw& draw = draws_[pair];
      if (attempt == 0) {
        launch(b, l, pair, attempt, draw.target);
        return true;
      }
      const NodeSlot holder = membership_.ring_successor(
          draw.position, static_cast<std::uint64_t>(attempt));
      if (!membership_.present(holder)) {
        // The replica departed with its holder: fall through to the
        // next attempt without routing, like the scalar `continue`.
        if (attempt + 1 < attempts) {
          retry_.emplace_back(pair, attempt + 1);
        }
        continue;
      }
      if (holder == draw.source) {
        get_available_[pair] = 1;  // the source holds the replica itself
        continue;
      }
      launch(b, l, pair, attempt, holder);
      return true;
    }
  };
  const auto retire = [&](const Lanes& b, int l, RouteStatus status,
                          NodeSlot drop_slot) {
    if (lane_attempt[l] == 0) {
      // Attempt 0 is what the routing estimate records (the historical
      // uniform route / primary GET).  A drop is classified at the slot
      // that had no admissible hop -- the lane's pre-step position, which
      // is exactly the `cur` the scalar path classifies at.
      flat::record_route(estimate, status,
                         static_cast<std::uint64_t>(b.hops[l]),
                         status == RouteStatus::kDropped
                             ? classify_drop(ctx, drop_slot)
                             : obs::RouteFailure::kDeadEntry);
    }
    if (!workload) {
      return;
    }
    if (status == RouteStatus::kArrived) {
      get_available_[b.rank[l]] = 1;
    } else if (lane_attempt[l] + 1 < attempts) {
      retry_.emplace_back(b.rank[l], lane_attempt[l] + 1);
    }
  };
  if (xor_geometry) {
    sim::drive_lanes<NodeSlot>(
        max_hops_, ChurnLanes<true, Id, decltype(refill), decltype(retire)>{
                       {}, ctx, load_.data(), refill, retire});
  } else {
    sim::drive_lanes<NodeSlot>(
        max_hops_, ChurnLanes<false, Id, decltype(refill), decltype(retire)>{
                       {}, ctx, load_.data(), refill, retire});
  }
  if (workload) {
    estimate.gets += n;
    for (const std::uint8_t available : get_available_) {
      estimate.gets_available += available;
    }
  }
}

sparse::SparseEstimate SparseChurnWorld::measure(std::uint64_t pairs) {
  return rows_.narrow_ids() ? measure_sync<std::uint32_t>(pairs, true)
                            : measure_sync<std::uint64_t>(pairs, true);
}

sparse::SparseEstimate SparseChurnWorld::measure_reference(
    std::uint64_t pairs) {
  return rows_.narrow_ids() ? measure_sync<std::uint32_t>(pairs, false)
                            : measure_sync<std::uint64_t>(pairs, false);
}

sparse::SparseEstimate SparseChurnWorld::measure_inflight(
    std::uint64_t pairs, std::uint64_t events_per_hop) {
  return rows_.narrow_ids()
             ? inflight_round<std::uint32_t>(pairs, events_per_hop)
             : inflight_round<std::uint64_t>(pairs, events_per_hop);
}

template <typename Id>
sparse::SparseEstimate SparseChurnWorld::inflight_round(
    std::uint64_t pairs, std::uint64_t events_per_hop) {
  math::Rng& rng = measure_rng_;
  // The in-flight round fuses the lifecycle sweep into the routes (each
  // hop advances the world), so the whole body is one route-phase span --
  // nesting lifecycle/commit timers inside it would double-count.
  obs::PhaseTimer route_timer(profile_, obs::Phase::kRoute, trace_);
  ++round_;
  const std::uint64_t capacity = membership_.capacity();
  joiners_.clear();
  std::uint64_t cursor = 0;
  std::uint64_t eph = events_per_hop;
  if (eph == 0) {
    // Derive the rate from the pair budget: one full capacity sweep
    // spread over the round's expected hop count, `pairs` routes of
    // ~log2 N hops each.  Routes shorter than the estimate leave a sweep
    // remainder, flushed below -- the round always completes exactly one
    // lifecycle sweep either way.
    const std::uint64_t population =
        membership_.population() < 2 ? 2 : membership_.population();
    // max(1, ...): pairs == 0 still closes the round (the flush below runs
    // the whole sweep), it just samples nothing.
    const std::uint64_t hop_budget = std::max<std::uint64_t>(
        1, pairs * static_cast<std::uint64_t>(std::bit_width(population)));
    eph = (capacity + hop_budget - 1) / hop_budget;
    eph = eph == 0 ? 1 : eph;
  }
  sparse::SparseEstimate estimate;
  // The ctx pointers stay valid while the world moves: the per-slot
  // arrays never resize, rows never move (a leave or join only rewrites
  // the slot's entry in the slot -> row map), and membership mutations
  // (leave / join) update the packed epoch structure in place.  Ids can
  // change only on rejoin, which happens at lookup boundaries -- never
  // mid-route -- so the cached-id kernels' carried identifiers cannot go
  // stale in flight.
  const ChurnKernelCtx<Id> ctx = rows_.kernel_view<Id>(membership_);
  const StepFn<Id> kernel = step_kernel<Id>(geometry_);
  // In-flight route through the shared single-route core: the holder's
  // departure drops the message (checked before arrival -- a route
  // "arriving" at a slot that just left gets no reply), and the lifecycle
  // sweep advances under every hop, which is what keeps this path scalar:
  // each hop depends on the sweep the previous hop triggered.  Forwards
  // bump the holding slot's load counter, rng-free as in measure().
  const auto sweep = [&](NodeSlot /*from*/, const StepResult& /*next*/) {
    advance_sweep(cursor, eph);
  };
  const auto route_to = [&](NodeSlot source, NodeSlot target,
                            sparse::SparseEstimate* rec) -> bool {
    return route_one<true>(ctx, kernel, source, ctx.ids[source], target,
                           ctx.ids[target], max_hops_, load_.data(), rec,
                           sweep) == RouteStatus::kArrived;
  };
  const bool workload = workload_enabled();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    // Joins become routable at lookup boundaries only: a node that
    // arrived mid-route has not finished bootstrapping until the overlay
    // absorbs it here (id draw, order-index commit, bootstrap, announce).
    // A replicated GET is one lookup transaction: all its attempts run
    // against the membership of its boundary.
    integrate_joiners(/*commit_always=*/false);
    if (membership_.population() < 2) {
      continue;  // nothing to sample this instant; the sweep still flushes
    }
    const GetDraw draw = draw_lookup(rng);
    const bool arrived = route_to(draw.source, draw.target, &estimate);
    if (!workload) {
      continue;
    }
    ++estimate.gets;
    const auto attempts = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(config_.replicas),
        membership_.order_size()));
    if (arrived || replica_reachable(draw, attempts, [&](NodeSlot holder) {
          return route_to(draw.source, holder, nullptr);
        })) {
      ++estimate.gets_available;
    }
  }
  // Flush the sweep remainder and close the round: exactly one full
  // lifecycle round per measured round, so the stationary population (and
  // the q_nr bridge) matches the round-synchronous mode.
  advance_sweep(cursor, capacity);
  integrate_joiners(/*commit_always=*/true);
  return estimate;
}

sim::LoadSummary SparseChurnWorld::load_summary() const {
  return sim::summarize_load(load_, [this](std::size_t slot) {
    return membership_.present(static_cast<NodeSlot>(slot));
  });
}

}  // namespace dht::churn
