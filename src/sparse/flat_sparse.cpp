#include "sparse/flat_sparse.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/page_buffer.hpp"
#include "math/zipf.hpp"
#include "sim/shard_pool.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_symphony.hpp"

namespace dht::sparse {

namespace flat {

FlatSparseCtx make_sparse_ctx(const SparseOverlay& overlay,
                              const SparseFailure& failures,
                              std::uint64_t max_hops) {
  const SparseIdSpace& space = overlay.space();
  FlatSparseCtx c;
  c.d = space.bits();
  c.key_mask = space.key_space_size() - 1;
  c.n = space.node_count();
  c.ids = space.ids().data();
  c.max_hops = max_hops == 0 ? space.node_count() : max_hops;
  if (const auto* chord = dynamic_cast<const SparseChordOverlay*>(&overlay)) {
    c.kind = SparseKernelKind::kChord;
    if (!chord->route_packed().empty()) {
      c.packed = chord->route_packed().data();
    } else {
      c.table = chord->route_targets().data();
      c.progress = chord->route_progress().data();
    }
    c.row_len = chord->route_lens().data();
    c.row_width = chord->route_stride();
  } else if (const auto* kad =
                 dynamic_cast<const SparseKademliaOverlay*>(&overlay)) {
    c.kind = SparseKernelKind::kKademlia;
    c.table = kad->contact_table().data();
    c.bucket_k = kad->bucket_k();
    c.row_width = c.d * kad->bucket_k();
  } else {
    const auto* sym = dynamic_cast<const SparseSymphonyOverlay*>(&overlay);
    DHT_CHECK(sym != nullptr, "no flat kernel for this sparse overlay type");
    c.kind = SparseKernelKind::kSymphony;
    c.table = sym->shortcut_table().data();
    c.row_width = sym->shortcuts();
    c.kn = sym->near_neighbors();
    c.ks = sym->shortcuts();
  }
  c.alive_bits = failures.alive_bits();
  return c;
}

std::vector<NodeIndex> object_owners(const SparseIdSpace& space,
                                     const SparseFailure& failures,
                                     std::uint64_t objects) {
  DHT_CHECK(failures.alive_count() > 0, "object owners need an alive node");
  const std::vector<std::uint64_t>& ids = space.ids();
  const std::uint64_t n = ids.size();
  // Bucket b holds the ids whose top floor(log2 n) bits equal b: about one
  // id per bucket, and first[b] is the index of the first id in bucket b
  // or later (first[buckets] = n).  Page-backed like the path caches: a
  // heap block here shifted where later per-call buffers landed and cost
  // ~1 MiB of peak RSS at 2^18 nodes.  The pages arrive zeroed, so
  // first[b + 1] can count bucket b's ids before the prefix sums.
  const int index_bits = std::bit_width(n) - 1;
  const int shift = space.bits() - index_bits;
  const std::uint64_t buckets = std::uint64_t{1} << index_bits;
  const common::PageBuffer first_pages((buckets + 1) * sizeof(NodeIndex));
  NodeIndex* const first = first_pages.as<NodeIndex>();
  for (const std::uint64_t id : ids) {
    ++first[(id >> shift) + 1];
  }
  for (std::uint64_t b = 1; b <= buckets; ++b) {
    first[b] += first[b - 1];
  }
  const std::uint64_t key_mask = space.key_space_size() - 1;
  std::vector<NodeIndex> owner(objects);
  for (std::uint64_t o = 0; o < objects; ++o) {
    const std::uint64_t key = object_key(key_mask, o);
    const std::uint64_t b = key >> shift;
    // The successor is in the key's bucket or is the first id of a later
    // one, which is exactly where the scan stops when the bucket runs out.
    std::uint64_t i = first[b];
    const std::uint64_t end = first[b + 1];
    while (i < end && ids[i] < key) {
      ++i;
    }
    NodeIndex holder = i == n ? 0 : static_cast<NodeIndex>(i);  // wrap
    while (!failures.alive(holder)) {
      holder = holder + 1 == n ? 0 : holder + 1;
    }
    owner[o] = holder;
  }
  return owner;
}

// One shard's finger-path cache of popular objects: node v's row of
// `entries` direct-mapped slots at slots[v * entries ..], each slot one u64
// (object rank << 32) | owner index, empty = ~0.  A shard takes the cache
// all-empty from the call's PathCachePool and logs every slot it fills for
// the first time, so reset() can hand the buffer to the next shard by
// emptying just those slots.  A shard that fills more than 1/16 of the
// slots abandons the log (which never outgrows 1/16 of the cache) and
// reset() refills the whole buffer instead.  Both buffers are page-backed
// (common/page_buffer.hpp): the log's untouched tail costs no memory, and
// the pages go back to the kernel when the pool is destroyed.
struct PathCache {
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  PathCache(std::uint64_t n, std::uint64_t slots_per_node)
      : entries(slots_per_node),
        slot_count(n * slots_per_node),
        log_capacity(slot_count / 16),
        slot_pages(slot_count * sizeof(std::uint64_t)),
        log_pages(log_capacity * sizeof(std::uint64_t)),
        slots(slot_pages.as<std::uint64_t>()),
        log(log_pages.as<std::uint64_t>()) {
    std::fill_n(slots, slot_count, kEmpty);
  }

  /// Writes `value` into slot `at`, whose current content is `held`.
  void install(std::uint64_t at, std::uint64_t held, std::uint64_t value) {
    if (held == kEmpty) {
      if (fills < log_capacity) {
        log[fills] = at;
      }
      ++fills;  // counts on past the capacity: > capacity = log abandoned
    }
    slots[at] = value;
  }

  /// Empties every slot filled since the last reset.
  void reset() {
    if (fills > log_capacity) {
      std::fill_n(slots, slot_count, kEmpty);
    } else {
      for (std::uint64_t i = 0; i < fills; ++i) {
        slots[log[i]] = kEmpty;
      }
    }
    fills = 0;
  }

  const std::uint64_t entries;
  const std::uint64_t slot_count;
  const std::uint64_t log_capacity;
  common::PageBuffer slot_pages;
  common::PageBuffer log_pages;
  std::uint64_t* const slots;
  std::uint64_t* const log;
  std::uint64_t fills = 0;
};

namespace {

// The path caches of one engine call.  A shard acquires an all-empty
// cache, routes, resets it, and releases it; only shards running at the
// same time need distinct caches, so at most min(threads, shards) are ever
// built.  A shard that throws drops its cache instead of releasing it, so
// a half-reset buffer is never handed out.
class PathCachePool {
 public:
  PathCachePool(std::uint64_t n, int entries)
      : n_(n), entries_(static_cast<std::uint64_t>(entries)) {}

  std::unique_ptr<PathCache> acquire() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<PathCache> cache = std::move(free_.back());
        free_.pop_back();
        return cache;
      }
    }
    return std::make_unique<PathCache>(n_, entries_);
  }

  void release(std::unique_ptr<PathCache> cache) {
    cache->reset();
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(cache));
  }

 private:
  const std::uint64_t n_;
  const std::uint64_t entries_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<PathCache>> free_;
};

// Production pair source: a shared budget of `pairs` draws, each lane
// sampling from its own counter-based stream.  Lane l's j-th pair is a
// pure function of (caller seed, shard, l, j) -- no sequential state is
// shared between lanes, so a lane's draws do not depend on how the other
// lanes' routes went (only *how many* pairs it gets does, and that is
// deterministic too: the driver is single-threaded per shard).
// Each lane keeps TWO pre-drawn pairs in flight, pipelined: a handout
// returns the front pair (whose identifiers and neighbor rows were
// prefetched one handout -- i.e. one whole route -- ago), promotes the
// back pair and warms its rows, and draws a fresh back pair.  The fresh
// draw's alive-id loads issue immediately but nothing needs their values
// until the NEXT handout, so the sampling misses overlap an entire route
// instead of stalling the refill.  Buffering never changes what is handed
// out: lane l's j-th handout is still its stream's j-th drawn pair, and
// the shared budget is spent at handout time, exactly as in the unbuffered
// loop (each lane's final buffered draws simply go unused -- lane streams
// are independent, so unused draws affect nothing).
// When the workload model is engaged (tables != null), a draw samples the
// source uniformly over alive nodes and the *object* by Zipf rank; the
// target is the object's precomputed owner.  Owner collisions (source
// already owns the object) redraw both, like the uniform path's
// target-equals-source redraw -- the loop terminates because at least two
// nodes are alive and the source is resampled each round.
struct WorkloadTables {
  const math::ZipfSampler* zipf = nullptr;
  const NodeIndex* owner = nullptr;  // object rank -> owning alive node
};

struct LanePairSource {
  LanePairSource(const FlatSparseCtx& c, const SparseFailure& failures,
                 const math::Rng& shard_rng, std::uint64_t pairs,
                 const WorkloadTables* workload = nullptr)
      : ctx_(c), failures_(failures), workload_(workload),
        remaining_(pairs) {
    for (int l = 0; l < Lanes::kLanes; ++l) {
      streams_[l] = shard_rng.counter_stream(static_cast<std::uint64_t>(l));
      front_[l] = draw(l);
      warm(front_[l]);
    }
  }

  bool operator()(int lane, NodeIndex& source, NodeIndex& target,
                  std::uint32_t& rank) {
    if (remaining_ == 0) {
      return false;
    }
    --remaining_;
    source = front_[lane].source;
    target = front_[lane].target;
    rank = front_[lane].rank;
    front_[lane] = draw(lane);
    warm(front_[lane]);
    return true;
  }

  struct Pair {
    NodeIndex source;
    NodeIndex target;
    std::uint32_t rank;
  };

  Pair draw(int lane) {
    math::CounterRng& rng = streams_[lane];
    if (workload_ == nullptr) {
      const NodeIndex source = failures_.sample_alive(rng);
      NodeIndex target = failures_.sample_alive(rng);
      while (target == source) {
        target = failures_.sample_alive(rng);
      }
      return Pair{source, target, kNoRank};
    }
    for (;;) {
      const NodeIndex source = failures_.sample_alive(rng);
      const std::uint64_t object = workload_->zipf->sample(rng);
      const NodeIndex target = workload_->owner[object];
      if (target != source) {
        return Pair{source, target, static_cast<std::uint32_t>(object)};
      }
    }
  }

  // Warm everything the pair's refill and first hop will touch.
  void warm(const Pair& p) const {
    __builtin_prefetch(&ctx_.ids[p.source]);
    __builtin_prefetch(&ctx_.ids[p.target]);
    const std::uint64_t row =
        p.source * static_cast<std::uint64_t>(ctx_.row_width);
    if (ctx_.packed != nullptr) {
      __builtin_prefetch(&ctx_.packed[row]);
    } else if (ctx_.table != nullptr) {
      __builtin_prefetch(&ctx_.table[row]);
      if (ctx_.progress != nullptr) {
        __builtin_prefetch(&ctx_.progress[row]);
      }
    }
  }

  const FlatSparseCtx& ctx_;
  const SparseFailure& failures_;
  const WorkloadTables* workload_;
  math::CounterRng streams_[Lanes::kLanes];
  Pair front_[Lanes::kLanes];
  std::uint64_t remaining_;
};

// The static engine's lane policy over the shared driver (sim/lanes.hpp):
// pairs come from the pair source, retirements go to the estimate, and
// `step_batch` is the overlay's batch kernel.  Lanes are serviced in lane
// order, so the whole schedule -- which lane routes which pair -- is a
// deterministic function of the pair source and the (rng-free) route
// outcomes.
//
// Workload hooks, both no-ops in the default configuration: with a path
// cache (c.cache != null), each settled lane probes its current node's
// cache row before stepping -- a hit forwards straight to the cached
// owner in one hop, a miss installs the mapping (the lookup's answer IS
// the owner, so caching on the miss models response-path caching exactly;
// PathCache::install logs first fills for the shard-end reset).
// With load recording (c.load != null), every forward -- one per active
// lane per step, plus the cache-hit forward -- bumps the forwarding node's
// counter.  Both hooks are rng-free, so the pair handout schedule (and
// hence the draw streams) is untouched.
template <typename StepBatch>
struct StaticLanes {
  const FlatSparseCtx& c;
  LanePairSource& pairs;
  SparseEstimate& estimate;
  StepBatch step_batch;

  bool refill(Lanes& b, int l) {
    NodeIndex source;
    NodeIndex target;
    std::uint32_t rank;
    if (!pairs(l, source, target, rank)) {
      return false;
    }
    b.cur[l] = source;
    b.target[l] = target;
    b.target_id[l] = c.ids[target];
    b.dist[l] = (b.target_id[l] - c.ids[source]) & c.key_mask;
    b.hops[l] = 0;
    b.rank[l] = rank;
    return true;
  }

  void retire(const Lanes& b, int l, sim::RouteStatus status) {
    record_route(estimate, status, b.hops[l]);
  }

  // Probes lane l's object in its current node's cache row.  True on a
  // hit: the holder forwards straight to the cached owner (one hop, load
  // accounted), and the driver re-checks the lane -- which then records
  // the arrival.  The cached value always equals the object's owner (the
  // lane's target), so a hit can never misroute.
  bool shortcut(Lanes& b, int l) {
    if (c.cache == nullptr || b.rank[l] == kNoRank) {
      return false;
    }
    PathCache& cache = *c.cache;
    const std::uint64_t at =
        b.cur[l] * cache.entries + b.rank[l] % cache.entries;
    const std::uint64_t held = cache.slots[at];
    ++estimate.cache_probes;
    if (static_cast<std::uint32_t>(held >> 32) == b.rank[l]) {
      ++estimate.cache_hits;
      if (c.load != nullptr) {
        c.load[b.cur[l]].fetch_add(1, std::memory_order_relaxed);
      }
      b.cur[l] = static_cast<NodeIndex>(held);
      b.hops[l] += 1;
      return true;
    }
    cache.install(at, held,
                  (static_cast<std::uint64_t>(b.rank[l]) << 32) | b.target[l]);
    return false;
  }

  void step(Lanes& b) {
    if (c.load != nullptr) {
      for (int l = 0; l < Lanes::kLanes; ++l) {
        if (b.active[l]) {
          c.load[b.cur[l]].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    step_batch(c, b);
  }
};

void run_lanes(const FlatSparseCtx& c, LanePairSource& pairs,
               SparseEstimate& estimate) {
  const auto drive = [&](auto step_batch) {
    sim::drive_lanes<NodeIndex>(
        c.max_hops,
        StaticLanes<decltype(step_batch)>{c, pairs, estimate, step_batch});
  };
  switch (c.kind) {
    case SparseKernelKind::kChord:
      drive([](const FlatSparseCtx& ctx, Lanes& b) {
        step_batch_chord(ctx, b);
      });
      return;
    case SparseKernelKind::kKademlia:
      drive([](const FlatSparseCtx& ctx, Lanes& b) {
        step_batch_kademlia(ctx, b);
      });
      return;
    case SparseKernelKind::kSymphony:
      drive([](const FlatSparseCtx& ctx, Lanes& b) {
        step_batch_symphony(ctx, b);
      });
      return;
  }
}

}  // namespace
}  // namespace flat

SparseEstimate estimate_routability_parallel(
    const SparseOverlay& overlay, const SparseFailure& failures,
    const SparseParallelOptions& options, const math::Rng& rng) {
  return estimate_workload_parallel(overlay, failures, options, rng).estimate;
}

SparseWorkloadReport estimate_workload_parallel(
    const SparseOverlay& overlay, const SparseFailure& failures,
    const SparseParallelOptions& options, const math::Rng& rng) {
  DHT_CHECK(failures.alive_count() >= 2,
            "routability needs at least two alive nodes");
  DHT_CHECK(options.pairs > 0, "at least one pair must be sampled");
  const SparseWorkloadOptions& wl = options.workload;
  DHT_CHECK(std::isfinite(wl.zipf_s) && wl.zipf_s >= 0.0,
            "workload zipf skew must be finite and >= 0");
  DHT_CHECK(wl.cache_entries >= 0 &&
                wl.cache_entries <= SparseWorkloadOptions::kMaxCacheEntries,
            "cache entries must be in [0, 1024]");
  DHT_CHECK(wl.cache_entries == 0 ||
                failures.node_count() <=
                    SparseWorkloadOptions::kMaxPathCacheBytes /
                        sizeof(std::uint64_t) /
                        static_cast<std::uint64_t>(wl.cache_entries),
            "path cache of n * cache entries * 8 bytes exceeds 4 GiB");
  DHT_CHECK(wl.objects <= (std::uint64_t{1} << 26),
            "workload object count exceeds the 2^26 population cap");
  // Observability is a timing side-channel: null sinks (the default) read
  // no clock, shard profiles reduce in shard order, and nothing here
  // feeds back into the estimates.
  const bool observed = options.profile != nullptr || options.trace != nullptr;
  obs::PhaseProfile serial_profile;
  obs::PhaseProfile* const serial = observed ? &serial_profile : nullptr;
  obs::PhaseTimer build_timer(serial, obs::Phase::kWorldBuild, options.trace);
  flat::FlatSparseCtx ctx =
      flat::make_sparse_ctx(overlay, failures, options.max_hops);

  // Workload tables, built once and shared read-only by every shard: the
  // Zipf sampler over object ranks and each object's owner
  // (flat::object_owners).
  flat::WorkloadTables tables;
  std::optional<math::ZipfSampler> zipf;
  std::vector<NodeIndex> owner;
  if (wl.enabled()) {
    const std::uint64_t objects =
        wl.objects != 0 ? wl.objects : failures.alive_count();
    zipf.emplace(objects, wl.zipf_s);
    owner = flat::object_owners(overlay.space(), failures, objects);
    tables.zipf = &*zipf;
    tables.owner = owner.data();
  }

  // One shared per-node load array: relaxed atomic adds commute, so the
  // final counts are independent of thread interleaving (load_stats.hpp).
  std::vector<std::atomic<std::uint64_t>> loads;
  if (wl.record_load) {
    loads = std::vector<std::atomic<std::uint64_t>>(ctx.n);
    ctx.load = loads.data();
  }

  build_timer.stop();

  const std::uint64_t shards =
      options.shards != 0 ? options.shards
                          : std::min<std::uint64_t>(options.pairs, 256);
  const std::uint64_t base = options.pairs / shards;
  const std::uint64_t extra = options.pairs % shards;

  std::vector<SparseEstimate> results(shards);
  std::vector<obs::PhaseProfile> shard_profiles(observed ? shards : 0);
  // The call's path caches; destroyed (pages unmapped) before the merge.
  std::optional<flat::PathCachePool> caches;
  if (wl.cache_entries > 0) {
    caches.emplace(ctx.n, wl.cache_entries);
  }
  sim::run_sharded(
      shards,
      sim::PoolOptions{.threads = sim::resolve_threads(options.threads)},
      [&](std::uint64_t s) {
        obs::PhaseTimer route_timer(observed ? &shard_profiles[s] : nullptr,
                                    obs::Phase::kRoute, options.trace);
        // Shard s is a pure function of (caller seed, s): fork a private
        // stream whose counter_stream(lane) draws sample the shard's slice
        // of the pair budget.
        const math::Rng shard_rng = rng.fork(s);
        const std::uint64_t pairs = base + (s < extra ? 1 : 0);
        flat::FlatSparseCtx local = ctx;
        // Shard-private path cache, all-empty on acquire: hits are a pure
        // function of the shard's lane schedule, so the estimate stays
        // bit-identical at any thread count.  The pool holds one cache per
        // concurrently running shard, so the n * entries footprint never
        // multiplies by the shard count.
        std::unique_ptr<flat::PathCache> cache;
        if (caches.has_value()) {
          cache = caches->acquire();
          local.cache = cache.get();
        }
        flat::LanePairSource source(local, failures, shard_rng, pairs,
                                    tables.zipf != nullptr ? &tables
                                                           : nullptr);
        SparseEstimate estimate;
        flat::run_lanes(local, source, estimate);
        results[s] = estimate;
        if (cache != nullptr) {
          caches->release(std::move(cache));
        }
      });
  caches.reset();

  SparseWorkloadReport report;
  {
    obs::PhaseTimer merge_timer(serial, obs::Phase::kMerge, options.trace);
    for (const SparseEstimate& shard : results) {
      report.estimate.merge(shard);
    }
    if (wl.record_load) {
      std::vector<std::uint64_t> counts(loads.size());
      for (std::size_t i = 0; i < loads.size(); ++i) {
        counts[i] = loads[i].load(std::memory_order_relaxed);
      }
      report.load = sim::summarize_load(
          counts, [&](std::size_t i) {
            return failures.alive(static_cast<NodeIndex>(i));
          });
    }
  }
  if (options.profile != nullptr) {
    options.profile->merge(serial_profile);
    for (const obs::PhaseProfile& p : shard_profiles) {
      options.profile->merge(p);
    }
  }
  return report;
}

}  // namespace dht::sparse
