// Determinism and correctness of the parallel Monte-Carlo routing engine
// (parallel_monte_carlo.hpp): bit-identical results across thread counts,
// merge() associativity, and agreement with the sequential reference
// implementations; plus the contract of the lane driver every batched
// engine runs on (sim/lanes.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/lanes.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht::sim {
namespace {

void expect_identical(const RoutabilityEstimate& a,
                      const RoutabilityEstimate& b, const char* what) {
  EXPECT_EQ(a.routed.successes, b.routed.successes) << what;
  EXPECT_EQ(a.routed.trials, b.routed.trials) << what;
  EXPECT_EQ(a.hops.count(), b.hops.count()) << what;
  EXPECT_EQ(a.hops.sum(), b.hops.sum()) << what;
  EXPECT_EQ(a.hops.sum_squares(), b.hops.sum_squares()) << what;
  EXPECT_EQ(a.hops.min(), b.hops.min()) << what;
  EXPECT_EQ(a.hops.max(), b.hops.max()) << what;
  EXPECT_EQ(a.hop_limit_hits(), b.hop_limit_hits()) << what;
}

std::unique_ptr<Overlay> make_named_overlay(const std::string& name,
                                            const IdSpace& space,
                                            math::Rng& rng) {
  if (name == "tree") {
    return std::make_unique<TreeOverlay>(space, rng);
  }
  if (name == "xor") {
    return std::make_unique<XorOverlay>(space, rng);
  }
  if (name == "hypercube") {
    return std::make_unique<HypercubeOverlay>(space);
  }
  if (name == "chord") {
    return std::make_unique<ChordOverlay>(space, rng);
  }
  if (name == "chord-randomized") {
    return std::make_unique<ChordOverlay>(space, rng,
                                          ChordFingers::kRandomized);
  }
  return std::make_unique<SymphonyOverlay>(space, 2, 2, rng);
}

TEST(ParallelMonteCarlo, BitIdenticalAcrossThreadCounts) {
  const IdSpace space(10);
  for (const std::string name :
       {"chord", "xor", "hypercube", "chord-randomized", "tree", "symphony"}) {
    math::Rng build_rng(41);
    const auto overlay = make_named_overlay(name, space, build_rng);
    math::Rng fail_rng(42);
    const FailureScenario failures(space, 0.3, fail_rng);
    const math::Rng route_rng(43);
    const ParallelOptions base{.pairs = 4000};

    RoutabilityEstimate reference;
    bool first = true;
    for (unsigned threads : {1u, 2u, 8u}) {
      ParallelOptions options = base;
      options.threads = threads;
      const auto estimate = estimate_routability_parallel(
          *overlay, failures, options, route_rng);
      if (first) {
        reference = estimate;
        first = false;
        EXPECT_GT(estimate.routed.trials, 0u) << name;
      } else {
        expect_identical(reference, estimate, name.c_str());
      }
    }
  }
}

TEST(ParallelMonteCarlo, RepeatedCallsAreIdentical) {
  // The engine only forks the caller's rng, so re-running with the same
  // generator must reproduce the estimate exactly.
  const IdSpace space(9);
  math::Rng build_rng(5);
  const XorOverlay overlay(space, build_rng);
  math::Rng fail_rng(6);
  const FailureScenario failures(space, 0.25, fail_rng);
  const math::Rng route_rng(7);
  const auto a = estimate_routability_parallel(overlay, failures,
                                               {.pairs = 3000}, route_rng);
  const auto b = estimate_routability_parallel(overlay, failures,
                                               {.pairs = 3000}, route_rng);
  expect_identical(a, b, "repeat");
}

// Each lane hands out a pair drawn one refill earlier, so one shard with a
// budget below, at, and just above the lane count draws pairs it never
// routes.  The counters are pinned from the engine before the lookahead:
// the handed-out pairs, and hence the estimates, must not change.
TEST(ParallelMonteCarlo, LookaheadDrawsKeepSmallBudgetsExact) {
  struct Pinned {
    const char* overlay;
    std::uint64_t pairs;
    // successes, trials, hop sum, hop sum of squares, min, max, drops
    std::uint64_t counters[7];
  };
  const Pinned pinned[] = {
      {"tree", 1, {0, 1, 0, 0, 0, 0, 1}},
      {"tree", 7, {3, 7, 11, 43, 3, 5, 4}},
      {"tree", 8, {3, 8, 11, 43, 3, 5, 5}},
      {"tree", 9, {3, 9, 11, 43, 3, 5, 6}},
      {"tree", 17, {5, 17, 19, 77, 3, 5, 12}},
      {"hypercube", 1, {1, 1, 5, 25, 5, 5, 0}},
      {"hypercube", 7, {5, 7, 19, 79, 2, 5, 2}},
      {"hypercube", 8, {6, 8, 22, 88, 2, 5, 2}},
      {"hypercube", 9, {7, 9, 27, 113, 2, 5, 2}},
      {"hypercube", 17, {14, 17, 59, 269, 2, 6, 3}},
  };
  const IdSpace space(10);
  for (const Pinned& p : pinned) {
    math::Rng build_rng(41);
    const auto overlay = make_named_overlay(p.overlay, space, build_rng);
    math::Rng fail_rng(42);
    const FailureScenario failures(space, 0.3, fail_rng);
    const math::Rng route_rng(43);
    const RoutabilityEstimate e = estimate_routability_parallel(
        *overlay, failures, {.pairs = p.pairs, .threads = 1, .shards = 1},
        route_rng);
    const std::uint64_t got[7] = {
        e.routed.successes,
        e.routed.trials,
        e.hops.sum(),
        static_cast<std::uint64_t>(e.hops.sum_squares()),
        e.hops.min(),
        e.hops.max(),
        e.failures[obs::RouteFailure::kDeadEntry]};
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(got[i], p.counters[i])
          << p.overlay << " pairs=" << p.pairs << " counter " << i;
    }
  }
}

TEST(ParallelMonteCarlo, MergeOfShardsEqualsOnePass) {
  // Record a deterministic stream of route outcomes once sequentially and
  // once split across three shard estimates; merging the shards must
  // reproduce the one-pass accumulator exactly.
  std::vector<RouteResult> routes;
  math::Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    RouteResult r;
    const std::uint64_t kind = rng.uniform_below(10);
    r.status = kind < 7   ? RouteStatus::kArrived
               : kind < 9 ? RouteStatus::kDropped
                          : RouteStatus::kHopLimit;
    r.hops = static_cast<int>(rng.uniform_below(20));
    routes.push_back(r);
  }

  RoutabilityEstimate one_pass;
  for (const RouteResult& r : routes) {
    one_pass.record(r);
  }

  RoutabilityEstimate shards[3];
  for (std::size_t i = 0; i < routes.size(); ++i) {
    shards[i % 3].record(routes[i]);
  }
  RoutabilityEstimate merged;
  for (const RoutabilityEstimate& shard : shards) {
    merged.merge(shard);
  }
  expect_identical(one_pass, merged, "merge");

  // Merging an empty estimate is the identity.
  RoutabilityEstimate empty;
  merged.merge(empty);
  expect_identical(one_pass, merged, "merge-empty");
}

TEST(ParallelMonteCarlo, HopStatsMergeHandlesEmptyAndExtrema) {
  HopStats a;
  a.add(5);
  a.add(2);
  HopStats b;
  HopStats merged = a;
  merged.merge(b);  // empty right-hand side
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_EQ(merged.min(), 2u);
  EXPECT_EQ(merged.max(), 5u);
  b.merge(a);  // empty left-hand side
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 2u);
  EXPECT_EQ(b.max(), 5u);
  HopStats c;
  c.add(9);
  c.add(1);
  b.merge(c);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_EQ(b.sum(), 17u);
  EXPECT_EQ(b.min(), 1u);
  EXPECT_EQ(b.max(), 9u);
}

TEST(ParallelMonteCarlo, HopLimitHitsAreCountedDeterministically) {
  const IdSpace space(8);
  const HypercubeOverlay overlay(space);
  const FailureScenario alive = FailureScenario::all_alive(space);
  const math::Rng rng(71);
  const ParallelOptions options{.pairs = 2000, .max_hops = 1, .threads = 2};
  const auto a = estimate_routability_parallel(overlay, alive, options, rng);
  EXPECT_GT(a.hop_limit_hits(), 0u);  // Hamming distance > 1 cannot arrive
  ParallelOptions more_threads = options;
  more_threads.threads = 8;
  const auto b =
      estimate_routability_parallel(overlay, alive, more_threads, rng);
  expect_identical(a, b, "hop-limit");
}

TEST(ParallelMonteCarlo, RejectsDegenerateInputs) {
  const IdSpace space(4);
  const HypercubeOverlay overlay(space);
  const math::Rng rng(81);
  const FailureScenario alive = FailureScenario::all_alive(space);
  EXPECT_THROW(
      estimate_routability_parallel(overlay, alive, {.pairs = 0}, rng),
      PreconditionError);
  FailureScenario one_alive = FailureScenario::all_alive(space);
  for (NodeId id = 1; id < space.size(); ++id) {
    one_alive.kill(id);
  }
  EXPECT_THROW(
      estimate_routability_parallel(overlay, one_alive, {.pairs = 10}, rng),
      PreconditionError);
}

// Drops every message; a dense overlay type with no flat kernel.
class NullOverlay final : public Overlay {
 public:
  explicit NullOverlay(const IdSpace& space) : space_(space) {}
  std::string_view name() const noexcept override { return "null"; }
  const IdSpace& space() const noexcept override { return space_; }
  std::optional<NodeId> next_hop(NodeId, NodeId, const FailureScenario&,
                                 math::Rng&) const override {
    return std::nullopt;
  }
  std::vector<NodeId> links(NodeId) const override { return {}; }
  std::uint64_t table_bytes() const noexcept override { return 0; }

 private:
  const IdSpace& space_;
};

TEST(ParallelMonteCarlo, RejectsAnOverlayWithNoKernel) {
  // The flat kernels are the estimator's only route path.
  const IdSpace space(4);
  const FailureScenario alive = FailureScenario::all_alive(space);
  EXPECT_THROW(estimate_routability_parallel(NullOverlay(space), alive,
                                             {.pairs = 10}, math::Rng(82)),
               PreconditionError);
}


// --- The shared lane driver's contract (sim/lanes.hpp), against a
// scripted fake engine: every pair's fate is fixed up front, and the
// engine logs what the driver asks of it.

// One scripted route: after `hops` successful hops it arrives, or its
// next step drops it, or it runs on until the hop cap.  A pair with
// shortcut_at >= 0 jumps to its target from the shortcut hook once it
// has taken that many hops.
struct ScriptedPair {
  RouteStatus outcome = RouteStatus::kArrived;
  std::uint32_t hops = 0;
  int shortcut_at = -1;
};

struct LaneEvent {
  enum Kind { kRefill, kRetire, kStep } kind;
  int lane;
  std::uint32_t pair;
};

struct ScriptedLanes {
  using Batch = LaneBatch<std::uint32_t>;
  static constexpr std::uint32_t kMaxHops = 6;

  explicit ScriptedLanes(std::vector<ScriptedPair> script)
      : pairs(std::move(script)), steps_taken(pairs.size(), 0),
        retired(pairs.size(), 0), status(pairs.size()),
        hops(pairs.size(), 0) {}

  bool refill(Batch& b, int l) {
    if (next == pairs.size()) {
      return false;
    }
    const auto pair = static_cast<std::uint32_t>(next++);
    b.cur[l] = 1000 + pair;
    b.target[l] = 5000 + pair;
    b.hops[l] = 0;
    b.rank[l] = pair;
    events.push_back({LaneEvent::kRefill, l, pair});
    return true;
  }

  void retire(const Batch& b, int l, RouteStatus s) {
    const std::uint32_t pair = b.rank[l];
    ++retired[pair];
    status[pair] = s;
    hops[pair] = b.hops[l];
    events.push_back({LaneEvent::kRetire, l, pair});
  }

  bool shortcut(Batch& b, int l) {
    const ScriptedPair& p = pairs[b.rank[l]];
    if (p.shortcut_at < 0 ||
        b.hops[l] != static_cast<std::uint32_t>(p.shortcut_at)) {
      return false;
    }
    b.cur[l] = b.target[l];
    b.hops[l] += 1;
    ++shortcuts;
    return true;
  }

  void step(Batch& b) {
    ++step_calls;
    for (int l = 0; l < Batch::kLanes; ++l) {
      if (b.active[l] == 0) {
        continue;
      }
      const std::uint32_t pair = b.rank[l];
      // The driver hands a step only mid-route lanes.
      EXPECT_NE(b.cur[l], Batch::kDropped);
      EXPECT_NE(b.cur[l], b.target[l]);
      EXPECT_LT(b.hops[l], kMaxHops);
      ++steps_taken[pair];  // the lane's one charge for this step
      events.push_back({LaneEvent::kStep, l, pair});
      const ScriptedPair& p = pairs[pair];
      if (p.outcome == RouteStatus::kDropped && b.hops[l] == p.hops) {
        b.cur[l] = Batch::kDropped;
        continue;
      }
      b.hops[l] += 1;
      b.cur[l] = p.outcome == RouteStatus::kArrived && b.hops[l] == p.hops
                     ? b.target[l]
                     : 2000 + pair * 16 + b.hops[l];
    }
  }

  std::vector<ScriptedPair> pairs;
  std::size_t next = 0;
  std::vector<std::uint32_t> steps_taken;
  std::vector<int> retired;
  std::vector<RouteStatus> status;
  std::vector<std::uint32_t> hops;
  std::vector<LaneEvent> events;
  int step_calls = 0;
  int shortcuts = 0;
};

TEST(LaneDriver, RetiresEveryPairOnceWithItsStatusAndHops) {
  std::vector<ScriptedPair> script;
  for (std::uint32_t i = 0; i < 21; ++i) {
    switch (i % 3) {
      case 0:
        script.push_back({RouteStatus::kArrived, 1 + i % 5});
        break;
      case 1:
        script.push_back({RouteStatus::kDropped, i % 4});
        break;
      default:
        script.push_back({RouteStatus::kHopLimit, 0});
        break;
    }
  }
  script[5] = {RouteStatus::kArrived, 5, /*shortcut_at=*/2};
  const ScriptedLanes lanes = drive_lanes<std::uint32_t>(
      ScriptedLanes::kMaxHops, ScriptedLanes(script));

  EXPECT_EQ(lanes.shortcuts, 1);
  for (std::size_t i = 0; i < script.size(); ++i) {
    const ScriptedPair& p = script[i];
    ASSERT_EQ(lanes.retired[i], 1) << "pair " << i;
    EXPECT_EQ(lanes.status[i], p.outcome) << "pair " << i;
    // Charged once per step it was handed: the hops it took, plus the
    // step that dropped it; never on its retire turn.
    if (p.shortcut_at >= 0) {
      EXPECT_EQ(lanes.hops[i], static_cast<std::uint32_t>(p.shortcut_at) + 1);
      EXPECT_EQ(lanes.steps_taken[i],
                static_cast<std::uint32_t>(p.shortcut_at));
    } else if (p.outcome == RouteStatus::kArrived) {
      EXPECT_EQ(lanes.hops[i], p.hops);
      EXPECT_EQ(lanes.steps_taken[i], p.hops);
    } else if (p.outcome == RouteStatus::kDropped) {
      EXPECT_EQ(lanes.hops[i], p.hops);
      EXPECT_EQ(lanes.steps_taken[i], p.hops + 1);
    } else {
      EXPECT_EQ(lanes.hops[i], ScriptedLanes::kMaxHops);
      EXPECT_EQ(lanes.steps_taken[i], ScriptedLanes::kMaxHops);
    }
  }
}

TEST(LaneDriver, ServesLanesInLaneOrderAndRefillsOnRetire) {
  std::vector<ScriptedPair> script;
  for (std::uint32_t i = 0; i < 30; ++i) {
    script.push_back({i % 2 == 0 ? RouteStatus::kArrived
                                 : RouteStatus::kDropped,
                      1 + (i * 7) % 4});
  }
  script[9].shortcut_at = 1;
  const ScriptedLanes lanes = drive_lanes<std::uint32_t>(
      ScriptedLanes::kMaxHops, ScriptedLanes(script));

  const auto& ev = lanes.events;
  constexpr int kLanes = ScriptedLanes::Batch::kLanes;
  // Start-up: lanes 0..7 refilled in lane order before any step.
  ASSERT_GE(ev.size(), static_cast<std::size_t>(kLanes));
  for (int l = 0; l < kLanes; ++l) {
    EXPECT_EQ(ev[l].kind, LaneEvent::kRefill);
    EXPECT_EQ(ev[l].lane, l);
    EXPECT_EQ(ev[l].pair, static_cast<std::uint32_t>(l));
  }
  // Between two steps, retirements run in rising lane order, each is
  // followed at once by its lane's refill while pairs remain, and a
  // retired pair is never stepped again.
  std::vector<bool> done(script.size(), false);
  std::size_t handed_out = kLanes;
  int last_lane = -1;
  for (std::size_t i = kLanes; i < ev.size(); ++i) {
    const LaneEvent& e = ev[i];
    if (e.kind == LaneEvent::kStep) {
      EXPECT_FALSE(done[e.pair]) << "event " << i;
      last_lane = -1;
    } else if (e.kind == LaneEvent::kRefill) {
      ++handed_out;
    } else {
      EXPECT_GT(e.lane, last_lane) << "event " << i;
      last_lane = e.lane;
      done[e.pair] = true;
      if (handed_out < script.size()) {
        ASSERT_LT(i + 1, ev.size());
        EXPECT_EQ(ev[i + 1].kind, LaneEvent::kRefill) << "event " << i;
        EXPECT_EQ(ev[i + 1].lane, e.lane) << "event " << i;
      }
    }
  }
  // Refills hand pairs out in order; every pair was handed out.
  std::uint32_t expected = 0;
  for (const LaneEvent& e : ev) {
    if (e.kind == LaneEvent::kRefill) {
      EXPECT_EQ(e.pair, expected++);
    }
  }
  EXPECT_EQ(expected, script.size());
}

TEST(LaneDriver, ShortcutToTargetRetiresBeforeTheNextStep) {
  // One lane's worth of work: pair 0 shortcuts to its target after one
  // hop, so it retires as an arrival with two hops and is stepped once.
  const ScriptedLanes lanes = drive_lanes<std::uint32_t>(
      ScriptedLanes::kMaxHops,
      ScriptedLanes({{RouteStatus::kArrived, 4, /*shortcut_at=*/1}}));
  EXPECT_EQ(lanes.shortcuts, 1);
  EXPECT_EQ(lanes.status[0], RouteStatus::kArrived);
  EXPECT_EQ(lanes.hops[0], 2u);
  EXPECT_EQ(lanes.steps_taken[0], 1u);
  EXPECT_EQ(lanes.step_calls, 1);
  // A pair that shortcuts before its first hop never reaches a step.
  const ScriptedLanes at_start = drive_lanes<std::uint32_t>(
      ScriptedLanes::kMaxHops,
      ScriptedLanes({{RouteStatus::kArrived, 4, /*shortcut_at=*/0}}));
  EXPECT_EQ(at_start.status[0], RouteStatus::kArrived);
  EXPECT_EQ(at_start.hops[0], 1u);
  EXPECT_EQ(at_start.step_calls, 0);
}

TEST(LaneDriver, ZeroPairsNeverStep) {
  const ScriptedLanes lanes = drive_lanes<std::uint32_t>(
      ScriptedLanes::kMaxHops, ScriptedLanes(std::vector<ScriptedPair>{}));
  EXPECT_EQ(lanes.step_calls, 0);
  EXPECT_TRUE(lanes.events.empty());
}

}  // namespace
}  // namespace dht::sim
