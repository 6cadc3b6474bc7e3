// The deterministic shard pool shared by the parallel engines.
//
// Work is split over a fixed number of shards that does NOT depend on the
// thread count; worker threads claim *runs* of shard indices from an atomic
// counter (one CAS per run instead of per shard, so the counter never
// becomes the contention point at high thread counts).  Because every
// shard's computation is a pure function of (caller seed, shard index) and
// per-shard results are merged in shard order afterwards, results are
// bit-identical at any thread count and any chunk size.  Used by the static
// Monte-Carlo engine (parallel_monte_carlo.cpp), the sparse engine
// (sparse/flat_sparse.cpp), and the churn trajectory engines
// (churn/trajectory.cpp, churn/sparse_trajectory.cpp).
//
// Workers can optionally be pinned round-robin across NUMA nodes
// (sim/topology.hpp).  Shard-private state allocated inside work() -- churn
// replica worlds, per-shard scratch and path caches -- is then
// first-touched on the worker's socket and stays there; read-only shared
// tables are not copied per socket.  On machines without pinning support
// the option is a silent no-op.  Pinning moves work, never changes it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/topology.hpp"

namespace dht::sim {

/// Scheduling knobs for run_sharded; none of them ever affect results.
struct PoolOptions {
  /// Worker threads (already resolved; see resolve_threads).
  unsigned threads = 1;
  /// Shards claimed per atomic increment.  0 = auto: shards / (8 * workers)
  /// clamped to [1, 64] -- runs long enough to kill contention, short
  /// enough to load-balance the tail.  Engines whose shards are heavy
  /// (churn replica worlds) pass 1 explicitly.
  std::uint64_t chunk = 0;
  /// Pin worker w to topology().cpu_for_worker(w): workers are dealt
  /// round-robin across NUMA nodes so shard-private state spreads over all
  /// sockets via first-touch.  Best effort -- a silent no-op where
  /// unsupported.
  bool pin_workers = false;
};

/// Runs `work(shard_index)` for every shard in [0, shards); rethrows the
/// first worker exception.  A failed shard stops the pool *before* other
/// workers claim new shards or start queued ones; shards already in flight
/// finish (work() is never interrupted mid-shard).
template <typename Work>
void run_sharded(std::uint64_t shards, const PoolOptions& options,
                 Work&& work) {
  if (options.threads <= 1 || shards <= 1) {
    for (std::uint64_t s = 0; s < shards; ++s) {
      work(s);
    }
    return;
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::uint64_t>(options.threads, shards));
  std::uint64_t chunk = options.chunk;
  if (chunk == 0) {
    chunk = std::clamp<std::uint64_t>(shards / (8 * workers), 1, 64);
  }
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      if (options.pin_workers) {
        (void)pin_current_thread(topology().cpu_for_worker(w));
      }
      for (;;) {
        // Check the failure flag BEFORE claiming: once a shard has failed,
        // no worker may start new work, only drain.  (Claiming first would
        // let every worker begin one more run after the failure.)
        if (failed.load(std::memory_order_acquire)) {
          return;
        }
        const std::uint64_t begin =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= shards) {
          return;
        }
        const std::uint64_t end = std::min(begin + chunk, shards);
        for (std::uint64_t s = begin; s < end; ++s) {
          if (failed.load(std::memory_order_acquire)) {
            return;
          }
          try {
            work(s);
          } catch (...) {
            {
              const std::lock_guard<std::mutex> lock(error_mutex);
              if (!error) {
                error = std::current_exception();
              }
            }
            failed.store(true, std::memory_order_release);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

/// Resolves a requested worker count (0 = hardware concurrency, at least 1).
inline unsigned resolve_threads(unsigned requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace dht::sim
