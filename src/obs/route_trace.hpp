// Route forensics: deterministic sampled hop-by-hop traces.
//
// When a routability regression lands, an aggregate estimate says THAT
// routes fail, not WHERE.  A RouteTrace records one sampled route's full
// hop sequence -- each hop's (slot, identifier, table rank, generation
// check) -- so two runs can be diffed route by route.
//
// Determinism contract: whether a pair is traced is a pure function of
// its (shard, round, pair index) -- index % stride == 0 with the stride
// derived from the requested sample budget -- never of scheduling, so
// the SAME pairs are traced at any thread count (asserted in
// test_observability).  Traced routes are re-routed against the frozen
// round snapshot through the engine's single-route core (a per-hop hook
// records each hop) with no load accounting, no estimate, and no rng, so
// tracing perturbs neither the measured estimates nor any stream: goldens
// are unchanged with tracing on.
//
// Storage: a bounded ring buffer per shard (capacity = the per-shard
// sample budget); when more pairs match the stride than fit, the newest
// overwrite the oldest, deterministically.
#pragma once

#include <cstdint>
#include <vector>

namespace dht::obs {

/// One hop of a traced route: where the message landed and what the
/// forwarding rule saw when it picked that entry.
struct RouteHop {
  std::uint32_t slot = 0;   ///< slot index the message moved to
  std::uint64_t id = 0;     ///< that slot's identifier at trace time
  /// Index of the chosen entry in the forwarding node's table row
  /// (0-based); -1 when the hop came from the successor list instead.
  std::int32_t rank = -1;
  /// 1 when the chosen entry passed its generation check (the entry's
  /// install-time generation still matches the slot) -- routine; 0 would
  /// mean the kernel followed a stale entry, which the admissibility
  /// rules forbid, so this doubles as a kernel invariant canary.
  std::uint8_t gen_ok = 0;
};

/// One sampled route, end to end.
struct RouteTrace {
  std::uint64_t shard = 0;
  std::uint64_t round = 0;       ///< world round at trace time (warmup
                                 ///< rounds included, so traces from the
                                 ///< same world sort by age)
  std::uint64_t pair_index = 0;  ///< draw index within the round
  std::uint32_t source_slot = 0;
  std::uint64_t source_id = 0;
  std::uint64_t target_id = 0;
  std::uint32_t status = 0;  ///< 0 arrived, 1 dropped, 2 hop limit
  std::vector<RouteHop> hops;
};

/// Per-shard bounded collector.  `stride` selects pairs (index % stride
/// == 0); `capacity` bounds retention ring-buffer style.
class RouteTraceSink {
 public:
  RouteTraceSink() = default;
  RouteTraceSink(std::uint64_t stride, std::uint64_t capacity)
      : stride_(stride), capacity_(capacity) {}

  bool enabled() const noexcept { return capacity_ > 0 && stride_ > 0; }
  bool selects(std::uint64_t pair_index) const noexcept {
    return enabled() && pair_index % stride_ == 0;
  }

  void push(RouteTrace&& trace) {
    if (!enabled()) {
      return;
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(trace));
    } else {
      ring_[next_overwrite_] = std::move(trace);
      next_overwrite_ = (next_overwrite_ + 1) % capacity_;
    }
  }

  /// Retained traces, oldest first.
  std::vector<RouteTrace> drain() {
    std::vector<RouteTrace> out;
    out.reserve(ring_.size());
    for (std::uint64_t i = 0; i < ring_.size(); ++i) {
      out.push_back(
          std::move(ring_[(next_overwrite_ + i) % ring_.size()]));
    }
    ring_.clear();
    next_overwrite_ = 0;
    return out;
  }

 private:
  std::uint64_t stride_ = 0;
  std::uint64_t capacity_ = 0;
  std::uint64_t next_overwrite_ = 0;
  std::vector<RouteTrace> ring_;
};

}  // namespace dht::obs
