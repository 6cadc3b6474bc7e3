// Best-effort CPU/NUMA topology detection and worker pinning.
//
// The shard pool (shard_pool.hpp) optionally pins its workers so that
// shard-private state -- churn replica worlds, per-shard estimates --
// stays on the socket that first touched it.  Detection reads
// the Linux sysfs NUMA layout; on other platforms (or a stripped /sys)
// everything degrades to a single node spanning all CPUs and pinning
// becomes a silent no-op.  Nothing here ever affects results: pinning
// moves work, never changes it.
#pragma once

#include <cstdint>
#include <vector>

namespace dht::sim {

/// A machine's processor layout: every online CPU, grouped by NUMA node.
struct Topology {
  /// Per-NUMA-node lists of logical CPU ids; always at least one node with
  /// at least one CPU (the graceful fallback is one node spanning
  /// hardware_concurrency CPUs).
  std::vector<std::vector<int>> node_cpus;

  unsigned nodes() const noexcept {
    return static_cast<unsigned>(node_cpus.size());
  }
  unsigned cpus() const noexcept {
    unsigned total = 0;
    for (const auto& node : node_cpus) {
      total += static_cast<unsigned>(node.size());
    }
    return total;
  }

  /// The CPU a round-robin-pinned worker should run on: workers are dealt
  /// across nodes first (worker w -> node w mod nodes), then across that
  /// node's CPUs, so shard-private worlds spread over all sockets at every
  /// worker count.
  int cpu_for_worker(unsigned worker) const noexcept {
    const auto& node = node_cpus[worker % node_cpus.size()];
    return node[(worker / node_cpus.size()) % node.size()];
  }
};

/// The detected topology, computed once per process (thread-safe).
const Topology& topology();

/// Pins the calling thread to the given logical CPU.  Returns false -- and
/// leaves the thread's affinity untouched -- where pinning is unsupported
/// (non-Linux) or rejected by the OS; callers treat that as a no-op.
bool pin_current_thread(int cpu);

}  // namespace dht::sim
