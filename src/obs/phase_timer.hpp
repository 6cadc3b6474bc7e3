// Phase profiles: scoped wall-clock attribution of engine phases.
//
// Every engine does the same kinds of work -- build a world, sweep
// lifecycles, refresh/repair tables, route, commit membership, merge shard
// results -- but until now only the total wall clock was reported, and
// finding out that (say) finger-refresh binary searches dominated a churn
// run required an external profiler.  A PhaseProfile is a tiny fixed
// array of per-phase second accumulators; engines keep one per shard,
// time their phases with the RAII PhaseTimer below, and reduce the shard
// profiles in shard order.
//
// Determinism contract: profiles carry TIMING only.  They never feed back
// into any engine decision, so attaching or detaching a profile cannot
// change a single counter -- the disabled path (null profile AND null
// trace) reads no clock at all.  The phase_*_s JSONL columns they produce
// are therefore exempt from the cross-thread determinism gates (the
// --ignore-columns flag of scripts/check_jsonl_determinism.py), while
// every taxonomy count column remains gated.
//
// Note on units: a shard-reduced phase figure is the SUM of per-shard
// wall clocks -- CPU-seconds of that phase.  At 1 thread the phases sum
// to the run's wall clock (the scripts/check_phase_sanity.py gate); at T
// threads they sum to up to T times it.
#pragma once

#include <chrono>

#include "obs/trace.hpp"

namespace dht::obs {

/// The engine phases every runner attributes its time to.  Phases a given
/// engine does not have (the static engines never sweep lifecycles) simply
/// stay zero.
enum class Phase : int {
  kWorldBuild = 0,       ///< overlay/ctx/world construction, workload tables
  kLifecycle = 1,        ///< churn lifecycle flips + rejoin/depart handling
  kRefreshRepair = 2,    ///< scheduled refresh, eager repair, list rebuilds
  kRoute = 3,            ///< route/GET measurement (in-flight mode's fused
                         ///< lifecycle sweep is attributed here; see
                         ///< sparse_measure.cpp)
  kMembershipCommit = 4, ///< joiner integration into the routable roster
  kMerge = 5,            ///< shard-order reduction of results
};

inline constexpr int kPhaseCount = 6;

/// Per-phase second accumulators.  Plain doubles: profiles are timing
/// side-channels, never determinism-gated, never fed back into engines.
struct PhaseProfile {
  double seconds[kPhaseCount] = {0, 0, 0, 0, 0, 0};

  void add(Phase phase, double s) noexcept {
    seconds[static_cast<int>(phase)] += s;
  }
  double operator[](Phase phase) const noexcept {
    return seconds[static_cast<int>(phase)];
  }
  void merge(const PhaseProfile& other) noexcept {
    for (int i = 0; i < kPhaseCount; ++i) {
      // Phase seconds are a scheduling-dependent timing side-channel,
      // never part of the gated estimates.
      // lint:allow(fp-merge) timing side-channel, not a gated estimate
      seconds[i] += other.seconds[i];
    }
  }
  double total() const noexcept {
    double sum = 0.0;
    for (int i = 0; i < kPhaseCount; ++i) {
      sum += seconds[i];
    }
    return sum;
  }
};

inline const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::kWorldBuild:
      return "world_build";
    case Phase::kLifecycle:
      return "lifecycle";
    case Phase::kRefreshRepair:
      return "refresh_repair";
    case Phase::kRoute:
      return "route";
    case Phase::kMembershipCommit:
      return "commit";
    case Phase::kMerge:
      return "merge";
  }
  return "unknown";
}

/// Scoped phase timer.  With a null profile AND null trace the
/// constructor and destructor do nothing -- no clock read, no branch
/// beyond the null test -- which is the zero-cost disabled path every
/// engine ships by default.
class PhaseTimer {
 public:
  explicit PhaseTimer(PhaseProfile* profile, Phase phase,
                      Trace* trace = nullptr) noexcept
      : profile_(profile), trace_(trace), phase_(phase) {
    if (profile_ != nullptr || trace_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() { stop(); }

  /// Ends the scope early (idempotent); the destructor is then a no-op.
  void stop() noexcept {
    if (profile_ == nullptr && trace_ == nullptr) {
      return;
    }
    const auto end = std::chrono::steady_clock::now();
    if (profile_ != nullptr) {
      profile_->add(phase_,
                    std::chrono::duration<double>(end - start_).count());
    }
    if (trace_ != nullptr) {
      trace_->record(to_string(phase_), start_, end);
    }
    profile_ = nullptr;
    trace_ = nullptr;
  }

 private:
  PhaseProfile* profile_;
  Trace* trace_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dht::obs
