// Configuration of the sparse churn world (churn/sparse_trajectory.hpp):
// its geometry and per-world knobs, on their own so the routing-row arena
// (churn/churn_rows.hpp) can size itself from them without the world.
#pragma once

#include <cstdint>
#include <string_view>

#include "churn/churn.hpp"

namespace dht::churn {

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

}  // namespace dht::churn
