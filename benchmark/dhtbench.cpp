// dhtbench: one benchmark rep in one process.
//
// A rep is the workload's fixed number of timed setups, an untimed warm-up
// (passes repeated until at least 0.5 s has passed), and then timed passes
// until the rep's time budget (--seconds) is spent.  A pass is the
// workload's fixed set of engine calls, made from outside the library
// through the public APIs of
// sim, sparse and churn, on the same inputs every time: every pass must
// return the same counters.  Everything runs on one thread.
//
// The host this runs on drifts: the same pass takes up to a quarter longer
// in one minute than in the next, for every workload at once.  So every
// timed engine call and the setup are bracketed by runs of a reference
// basket (see Reference) whose cost depends only on the host; run.py
// divides each measured time by the reference time around it.
//
// A traced rep (--traced) alternates untraced passes with traced ones,
// which attach the engines' PhaseProfile sinks and record benchmark-side
// spans (name, start, end, parent, workload) around every public call, and
// adds the per-layer metrics of every traced pass; --trace-out writes the
// spans as Chrome trace JSON with the self time of every span name.  No
// tracing is added inside the library.
//
// Every invocation prints one JSON object on stdout; benchmark/run.py
// aggregates the reps, checks their counters, and prints the metrics.
//
//   dhtbench --workload NAME --seed S --seconds T [--traced] [--trace-out F]
//   dhtbench --probe --seed S [--trace-out F]   membership probe
//   dhtbench --manifest                         build identity + configs
#include <sys/resource.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "churn/membership.hpp"
#include "churn/sparse_trajectory.hpp"
#include "math/rng.hpp"
#include "obs/failure.hpp"
#include "obs/phase_timer.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/failure.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/id_space.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_space.hpp"

namespace {

using namespace dht;
using Clock = std::chrono::steady_clock;
using obs::Phase;

/// Every engine call runs on one thread.  More threads than the host
/// reliably gives measure its scheduler, and on this benchmark's 4-vCPU
/// host a second or fourth worker added more spread than speed.
constexpr unsigned kThreads = 1;

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// `seconds` of work spread over `units`, in nanoseconds per unit.
double ns_per(double seconds, double units) {
  return units > 0.0 ? seconds * 1e9 / units : 0.0;
}

// ------------------------------------------------------------------ JSON --

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    return raw(key, json_number(value));
  }
  JsonObject& count(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& text(std::string_view key, std::string_view value) {
    return raw(key, json_string(value));
  }
  JsonObject& flag(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) {
      body_ += ',';
    }
    body_ += json_string(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T, typename Format>
std::string json_array(const std::vector<T>& items, Format format) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += format(items[i]);
  }
  out += ']';
  return out;
}

// ----------------------------------------------------------------- spans --

/// Benchmark-side spans, kept in memory and written once at exit.  Spans
/// wrap calls made from the main thread only, so the open-span
/// stack gives every span its parent.  A disabled log reads no clock: the
/// untraced passes measure the end-to-end metrics with tracing off.
class SpanLog {
 public:
  SpanLog(std::string workload, bool enabled)
      : workload_(std::move(workload)), enabled_(enabled),
        epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      if (log_.enabled_) {
        id_ = log_.open(std::move(name));
      }
    }
    ~Scope() {
      if (log_.enabled_) {
        log_.close(id_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t id_ = 0;
  };

  /// Duration of the latest closed span called `name` (0 when none).
  double seconds(std::string_view name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->name == name && it->closed) {
        return seconds_between(it->start, it->end);
      }
    }
    return 0.0;
  }

  /// Chrome trace JSON: one complete ("X") event per span, plus the self
  /// time of every span name -- its duration minus what its child spans
  /// cover -- summed over the spans of that name.
  void write_chrome_trace(const std::string& path) const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += seconds_between(spans_[i].start, spans_[i].end);
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            seconds_between(spans_[i].start, spans_[i].end);
      }
    }
    std::map<std::string, double> self_by_name;
    std::string events;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self_by_name[s.name] += self[i] * 1e3;
      const JsonObject args = JsonObject()
                                  .count("id", i)
                                  .raw("parent", std::to_string(s.parent))
                                  .text("workload", workload_);
      if (i != 0) {
        events += ',';
      }
      events += JsonObject()
                    .text("name", s.name)
                    .text("cat", "dhtbench")
                    .text("ph", "X")
                    .num("ts", seconds_between(epoch_, s.start) * 1e6)
                    .num("dur", seconds_between(s.start, s.end) * 1e6)
                    .count("pid", 1)
                    .count("tid", 1)
                    .raw("args", args.str())
                    .str();
    }
    JsonObject self_ms;
    for (const auto& [name, ms] : self_by_name) {
      self_ms.num(name, ms);
    }
    std::ofstream out(path);
    out << JsonObject()
               .raw("traceEvents", "[" + events + "]")
               .text("displayTimeUnit", "ms")
               .raw("selfTimeMs", self_ms.str())
               .str()
        << "\n";
    if (!out) {
      throw std::runtime_error("cannot write trace file " + path);
    }
  }

 private:
  struct Span {
    std::string name;
    long parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    bool closed = false;
  };

  std::size_t open(std::string name) {
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    spans_.push_back({std::move(name), parent, Clock::now(), {}, false});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end = Clock::now();
    spans_[id].closed = true;
    stack_.pop_back();
  }

  std::string workload_;
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// -------------------------------------------------------------- counters --

/// The exact counters of one engine call: what golden.json pins and what
/// every pass and every rep of a run must reproduce bit for bit.
struct Counters {
  std::string name;
  std::uint64_t attempts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t hop_sum = 0;
  obs::FailureTaxonomy failures;
  std::vector<std::pair<std::string, std::uint64_t>> extra;
  std::vector<std::uint64_t> per_round_attempts;

  std::string json() const {
    JsonObject taxonomy;
    for (int c = 0; c < obs::kRouteFailureCount; ++c) {
      taxonomy.count(obs::to_string(static_cast<obs::RouteFailure>(c)),
                     failures.counts[c]);
    }
    JsonObject out;
    out.text("name", name)
        .count("attempts", attempts)
        .count("delivered", delivered)
        .count("hop_sum", hop_sum)
        .raw("failures", taxonomy.str());
    for (const auto& [key, value] : extra) {
      out.count(key, value);
    }
    if (!per_round_attempts.empty()) {
      out.raw("per_round_attempts",
              json_array(per_round_attempts,
                         [](std::uint64_t v) { return std::to_string(v); }));
    }
    return out.str();
  }
};

Counters counters_of(std::string name, const sim::RoutabilityEstimate& e) {
  return {std::move(name), e.routed.trials, e.hops.count(), e.hops.sum(),
          e.failures, {}, {}};
}

Counters counters_of(std::string name, const sparse::SparseEstimate& e) {
  return {std::move(name), e.attempts, e.hops.count(), e.hops.sum(),
          e.failures, {}, {}};
}

std::string calls_json(const std::vector<Counters>& calls) {
  return json_array(calls, [](const Counters& c) { return c.json(); });
}

/// Per-layer metrics of a traced pass: name -> (value, unit).
using Layers = std::map<std::string, std::pair<double, std::string>>;

std::string layers_json(const Layers& layers) {
  JsonObject out;
  for (const auto& [name, metric] : layers) {
    out.raw(name, JsonObject()
                      .num("value", metric.first)
                      .text("unit", metric.second)
                      .str());
  }
  return out.str();
}

// -------------------------------------------------------------- timing --

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double resident_mib() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

template <typename Work>
double timed(Work&& work) {
  const auto start = Clock::now();
  work();
  return seconds_between(start, Clock::now());
}

// ------------------------------------------------------------- reference --

/// The host-speed reference: three fixed kernels, one for each way the
/// host's other tenants slow this process down -- greedy XOR routing over a
/// 2^18-node table with one node in ten down (memory latency), a strided
/// sum over 128 MiB (memory bandwidth), and eight interleaved SplitMix64
/// streams (core throughput).  This file builds and owns them, so no
/// library change and no workload seed alters their cost.  The geometric
/// mean of their times, taken between engine calls, is the host's speed at
/// that moment.  No single kernel tracked every workload: each workload
/// leans on latency, bandwidth and throughput in its own mix.
class Reference {
 public:
  /// The basket's time on the host the benchmark was written on.  run.py
  /// reports every time as measured x kNominalSeconds / reference, i.e. in
  /// seconds on that host at its nominal speed; the value sets only the
  /// scale.
  static constexpr double kNominalSeconds = 0.02;

  Reference() : table_(kNodes * kBits), alive_(kNodes / 64), words_(kWords) {
    std::uint64_t state = kSeed;
    for (std::size_t v = 0; v < kNodes; ++v) {
      for (std::size_t level = 0; level < kBits; ++level) {
        const std::uint64_t low = (std::uint64_t{1} << level) - 1;
        const std::uint64_t bucket = (v ^ (std::uint64_t{1} << level)) & ~low;
        table_[v * kBits + level] =
            static_cast<std::uint32_t>(bucket | (splitmix(state) & low));
      }
      if (splitmix(state) % 10 != 0) {
        alive_[v / 64] |= std::uint64_t{1} << (v % 64);
      }
    }
    for (std::uint64_t& word : words_) {
      word = splitmix(state);
    }
  }

  static std::string json() {
    return JsonObject()
        .text("kernels", "geometric mean of: greedy XOR routing, 2^18 nodes,"
                         " 10% down; strided sum over 128 MiB;"
                         " 8 SplitMix64 streams")
        .count("route_pairs", kPairs)
        .count("sum_sweeps", kSweeps)
        .count("hash_rounds", kHashRounds)
        .num("nominal_s", kNominalSeconds)
        .str();
  }

  /// Times the three kernels once and returns the geometric mean; their
  /// results must be the same on every call.
  double time() {
    Results now;
    const double route_s = timed([&] { now.hops = route(); });
    const double sum_s = timed([&] { now.sum = sum(); });
    const double hash_s = timed([&] { now.hash = hash(); });
    if (!first_) {
      first_ = now;
    } else if (now.hops != first_->hops || now.sum != first_->sum ||
               now.hash != first_->hash) {
      throw std::runtime_error("reference kernels are not deterministic");
    }
    return std::cbrt(route_s * sum_s * hash_s);
  }

 private:
  static constexpr std::size_t kBits = 18;
  static constexpr std::size_t kNodes = std::size_t{1} << kBits;
  static constexpr std::uint64_t kPairs = 60'000;
  static constexpr std::size_t kWords = std::size_t{16} << 20;  // 128 MiB
  static constexpr int kSweeps = 2;
  static constexpr std::uint64_t kHashRounds = 1'500'000;
  static constexpr std::uint64_t kSeed = 0x5eed0f4ef;

  struct Results {
    std::uint64_t hops = 0;
    std::uint64_t sum = 0;
    std::uint64_t hash = 0;
  };

  static std::uint64_t splitmix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  bool up(std::uint32_t v) const { return (alive_[v / 64] >> (v % 64)) & 1U; }

  std::uint64_t route() const {
    std::uint64_t state = kSeed + 1;
    std::uint64_t hops = 0;
    for (std::uint64_t p = 0; p < kPairs; ++p) {
      auto cur = static_cast<std::uint32_t>(splitmix(state) % kNodes);
      const auto target = static_cast<std::uint32_t>(splitmix(state) % kNodes);
      if (!up(cur) || !up(target)) {
        continue;
      }
      while (cur != target) {
        const auto level =
            static_cast<std::size_t>(std::bit_width(cur ^ target) - 1);
        const std::uint32_t next = table_[cur * kBits + level];
        if (!up(next)) {
          break;
        }
        cur = next;
        ++hops;
      }
    }
    return hops;
  }

  // One word per cache line; each sweep starts at an offset taken from the
  // sum so far, so no sweep can be hoisted out of the loop.
  std::uint64_t sum() const {
    std::uint64_t total = 0;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      const std::size_t offset = total & 7;
      for (std::size_t i = offset; i < kWords; i += 8) {
        total += words_[i];
      }
    }
    return total;
  }

  static std::uint64_t hash() {
    std::uint64_t states[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint64_t total = 0;
    for (std::uint64_t round = 0; round < kHashRounds; ++round) {
      for (std::uint64_t& state : states) {
        total += splitmix(state);
      }
    }
    return total;
  }

  std::vector<std::uint32_t> table_;
  std::vector<std::uint64_t> alive_;
  std::vector<std::uint64_t> words_;
  std::optional<Results> first_;
};

/// One measured time and the mean of the basket times on either side of it.
struct Sample {
  double wall_s = 0.0;
  double reference_s = 0.0;

  std::string json() const {
    return JsonObject()
        .num("wall_s", wall_s)
        .num("reference_s", reference_s)
        .str();
  }
};

/// Makes a sequence of calls: the engine calls of a pass, or repeated
/// setups.  Given the reference, it times each call and then the basket,
/// so that every call is measured between two basket times: the host's
/// speed can change within one pass.  Without it (a warm-up pass) it only
/// makes the calls.
class CallTimer {
 public:
  CallTimer() = default;
  CallTimer(Reference& reference, double before)
      : reference_(&reference), before_(before) {}

  template <typename Call>
  void operator()(Call&& call) {
    if (reference_ == nullptr) {
      call();
      return;
    }
    Sample sample;
    sample.wall_s = timed(call);
    const double after = reference_->time();
    sample.reference_s = 0.5 * (before_ + after);
    before_ = after;
    samples_.push_back(sample);
  }

  /// The latest basket time, the first bracket of whatever is timed next.
  double last_reference_s() const { return before_; }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  Reference* reference_ = nullptr;
  double before_ = 0.0;
  std::vector<Sample> samples_;
};

// ------------------------------------------------------------ workloads --

// Rng stream ids forked from the workload seed: setup and the engine
// calls draw from disjoint streams.
constexpr std::uint64_t kBuildStream = 1;
constexpr std::uint64_t kFailureStream = 20;
constexpr std::uint64_t kEngineStream = 40;

/// The warm-up repeats untimed passes until this much wall time has passed.
constexpr double kMinWarmupSeconds = 0.5;

class Workload {
 public:
  virtual ~Workload() = default;
  /// The full configuration, recorded in the run manifest.
  virtual std::string config_json() const = 0;
  /// Timed setups per rep.  A fixed count, not a time budget: the first
  /// setup of a process runs cold, so a count that followed the host's
  /// speed would change the share of cold setups in the median.
  virtual int setups_per_rep() const = 0;
  /// Builds the inputs, replacing any built before; the caller times this
  /// as setup_s.
  virtual void setup(SpanLog& spans) = 0;
  /// One pass: the engine calls, each made through `call`, on the same
  /// inputs every time.  With `layers` set (a traced pass), the engines'
  /// PhaseProfile sinks are attached and the per-layer metrics are added
  /// to it.
  virtual std::vector<Counters> pass(CallTimer& call, SpanLog& spans,
                                     Layers* layers) = 0;
};

// static_dense: the paper's five fully populated geometries at N = 2^20.
// Route-kernel-bound, read-only traffic over shared tables.
class StaticDense final : public Workload {
 public:
  static constexpr int kBits = 20;
  static constexpr double kQ = 0.1;
  static constexpr std::uint64_t kPairs = 200'000;
  static constexpr const char* kGeometries[] = {"tree", "hypercube", "xor",
                                                "ring", "symphony"};

  explicit StaticDense(std::uint64_t seed) : root_(seed) {}

  std::string config_json() const override {
    std::vector<std::string> names(std::begin(kGeometries),
                                   std::end(kGeometries));
    return JsonObject()
        .text("engine", "sim::estimate_routability_parallel")
        .raw("geometries", json_array(names, json_string))
        .count("bits", kBits)
        .num("q", kQ)
        .count("pairs_per_geometry_per_pass", kPairs)
        .text("symphony_links", "kn=1 ks=1")
        .count("setups_per_rep", setups_per_rep())
        .count("threads", kThreads)
        .str();
  }

  int setups_per_rep() const override { return 1; }  // 0.5 s each

  void setup(SpanLog& spans) override {
    overlays_.clear();
    failures_.reset();
    for (std::size_t g = 0; g < std::size(kGeometries); ++g) {
      const std::string name = kGeometries[g];
      SpanLog::Scope span(spans, "build." + name);
      math::Rng rng = root_.fork(kBuildStream + g);
      overlays_.push_back(make_overlay(name, rng));
    }
    SpanLog::Scope span(spans, "build.failure");
    math::Rng rng = root_.fork(kFailureStream);
    failures_.emplace(space_, kQ, rng);
  }

  std::vector<Counters> pass(CallTimer& call, SpanLog& spans,
                             Layers* layers) override {
    std::vector<Counters> calls;
    for (std::size_t g = 0; g < std::size(kGeometries); ++g) {
      const std::string name = kGeometries[g];
      obs::PhaseProfile profile;
      sim::ParallelOptions options{.pairs = kPairs, .threads = kThreads};
      options.profile = layers != nullptr ? &profile : nullptr;
      sim::RoutabilityEstimate e;
      call([&] {
        SpanLog::Scope span(spans, "call." + name);
        e = sim::estimate_routability_parallel(*overlays_[g], *failures_,
                                               options,
                                               root_.fork(kEngineStream + g));
      });
      calls.push_back(counters_of(name, e));
      if (layers != nullptr) {
        (*layers)["sim.build_ms." + name] = {
            spans.seconds("build." + name) * 1e3, "ms"};
        (*layers)["sim.route_ns_per_route." + name] = {
            ns_per(profile[Phase::kRoute], static_cast<double>(e.routed.trials)),
            "ns"};
        (*layers)["sim.mean_hops." + name] = {e.hops.mean(), "hops"};
      }
    }
    return calls;
  }

 private:
  std::unique_ptr<sim::Overlay> make_overlay(std::string_view name,
                                             math::Rng& rng) const {
    if (name == "tree") {
      return std::make_unique<sim::TreeOverlay>(space_, rng);
    }
    if (name == "hypercube") {
      return std::make_unique<sim::HypercubeOverlay>(space_);
    }
    if (name == "xor") {
      return std::make_unique<sim::XorOverlay>(space_, rng);
    }
    if (name == "ring") {
      return std::make_unique<sim::ChordOverlay>(space_, rng);
    }
    return std::make_unique<sim::SymphonyOverlay>(space_, 1, 1, rng);
  }

  const math::Rng root_;
  const sim::IdSpace space_{kBits};
  std::vector<std::unique_ptr<sim::Overlay>> overlays_;
  std::optional<sim::FailureScenario> failures_;
};

// sparse_256k: 2^18 nodes in a 2^32 key space.  Setup-heavy; the ring
// GETs write shard caches and a shared load array beside read-only XOR
// routes.
class Sparse final : public Workload {
 public:
  static constexpr int kBits = 32;
  static constexpr std::uint64_t kNodes = std::uint64_t{1} << 18;
  static constexpr double kQ = 0.1;
  static constexpr std::uint64_t kPairs = 100'000;
  static constexpr std::uint64_t kGetShards = 64;
  static constexpr double kZipf = 1.1;
  static constexpr int kCacheEntries = 8;

  explicit Sparse(std::uint64_t seed) : root_(seed) {}

  std::string config_json() const override {
    return JsonObject()
        .count("bits", kBits)
        .count("nodes", kNodes)
        .num("q", kQ)
        .raw("ring_get",
             JsonObject()
                 .text("engine", "sparse::estimate_workload_parallel")
                 .text("geometry", "ring")
                 .count("pairs_per_pass", kPairs)
                 .count("shards", kGetShards)
                 .num("zipf_s", kZipf)
                 .text("objects", "one per alive node")
                 .count("cache_entries", kCacheEntries)
                 .flag("record_load", true)
                 .str())
        .raw("xor", JsonObject()
                        .text("engine", "sparse::estimate_routability_parallel")
                        .text("geometry", "xor")
                        .count("pairs_per_pass", kPairs)
                        .count("bucket_k", 1)
                        .str())
        .count("setups_per_rep", setups_per_rep())
        .count("threads", kThreads)
        .str();
  }

  int setups_per_rep() const override { return 1; }  // 1.2 s each

  void setup(SpanLog& spans) override {
    failures_.reset();
    xor_.reset();
    ring_.reset();
    space_.reset();
    {
      SpanLog::Scope span(spans, "build.idspace");
      math::Rng rng = root_.fork(kBuildStream);
      space_.emplace(kBits, kNodes, rng);
    }
    {
      SpanLog::Scope span(spans, "build.ring");
      ring_.emplace(*space_);
    }
    {
      SpanLog::Scope span(spans, "build.xor");
      math::Rng rng = root_.fork(kBuildStream + 1);
      xor_.emplace(*space_, rng);
    }
    SpanLog::Scope span(spans, "build.failure");
    math::Rng rng = root_.fork(kFailureStream);
    failures_.emplace(*space_, kQ, rng);
  }

  std::vector<Counters> pass(CallTimer& call, SpanLog& spans,
                             Layers* layers) override {
    obs::PhaseProfile get_profile;
    sparse::SparseParallelOptions get_options{
        .pairs = kPairs, .threads = kThreads, .shards = kGetShards};
    get_options.workload = {.zipf_s = kZipf,
                            .cache_entries = kCacheEntries,
                            .record_load = true};
    get_options.profile = layers != nullptr ? &get_profile : nullptr;
    sparse::SparseWorkloadReport get;
    call([&] {
      SpanLog::Scope span(spans, "call.ring_get");
      get = sparse::estimate_workload_parallel(*ring_, *failures_, get_options,
                                               root_.fork(kEngineStream));
    });
    obs::PhaseProfile xor_profile;
    sparse::SparseParallelOptions xor_options{.pairs = kPairs,
                                              .threads = kThreads};
    xor_options.profile = layers != nullptr ? &xor_profile : nullptr;
    sparse::SparseEstimate xor_estimate;
    call([&] {
      SpanLog::Scope span(spans, "call.xor");
      xor_estimate = sparse::estimate_routability_parallel(
          *xor_, *failures_, xor_options, root_.fork(kEngineStream + 1));
    });

    Counters get_counters = counters_of("ring_get", get.estimate);
    get_counters.extra = {{"cache_probes", get.estimate.cache_probes},
                          {"cache_hits", get.estimate.cache_hits},
                          {"load_max", get.load.max}};
    if (layers != nullptr) {
      const auto n = static_cast<double>(kNodes);
      for (const char* part : {"idspace", "ring", "xor"}) {
        (*layers)[std::string("sparse.build_ns_per_node.") + part] = {
            ns_per(spans.seconds(std::string("build.") + part), n), "ns"};
      }
      (*layers)["sparse.ctx_build_ms.ring_get"] = {
          get_profile[Phase::kWorldBuild] * 1e3, "ms"};
      (*layers)["sparse.ctx_build_ms.xor"] = {
          xor_profile[Phase::kWorldBuild] * 1e3, "ms"};
      (*layers)["sparse.merge_ms.ring_get"] = {
          get_profile[Phase::kMerge] * 1e3, "ms"};
      (*layers)["sparse.route_ns_per_route.ring_get"] = {
          ns_per(get_profile[Phase::kRoute],
                 static_cast<double>(get.estimate.attempts)),
          "ns"};
      (*layers)["sparse.route_ns_per_route.xor"] = {
          ns_per(xor_profile[Phase::kRoute],
                 static_cast<double>(xor_estimate.attempts)),
          "ns"};
      (*layers)["sparse.cache_hit_rate"] = {get.estimate.cache_hit_rate(),
                                            "ratio"};
      (*layers)["sparse.load_max"] = {static_cast<double>(get.load.max),
                                      "count"};
      (*layers)["sparse.mean_hops.ring_get"] = {get.estimate.mean_hops(),
                                                "hops"};
      (*layers)["sparse.mean_hops.xor"] = {xor_estimate.mean_hops(), "hops"};
    }
    return {get_counters, counters_of("xor", xor_estimate)};
  }

 private:
  const math::Rng root_;
  std::optional<sparse::SparseIdSpace> space_;
  std::optional<sparse::SparseChordOverlay> ring_;
  std::optional<sparse::SparseKademliaOverlay> xor_;
  std::optional<sparse::SparseFailure> failures_;
};

// The churn parameters shared by both churn workloads and the membership
// probe: the canonical sync sparse-churn row (N0 = 2^16, pd = pr = 0.05,
// R = 30).
constexpr std::uint64_t kChurnPopulation = std::uint64_t{1} << 16;
constexpr int kChurnBits = 32;
const churn::ChurnParams kChurnParams{.death_per_round = 0.05,
                                      .rebirth_per_round = 0.05,
                                      .refresh_interval = 30};

// churn_sync / churn_inflight: one sparse churn engine, two configurations
// that lean on the world and membership layers differently.  A pass is one
// trajectory replica (shards = 1): a world build, 12 warm-up and 3
// measured rounds.  churn_inflight runs at a quarter of the population,
// because one in-flight replica at N0 = 2^16 takes 2.5 s on one thread,
// too long a pass to bracket with the reference.
class Churn final : public Workload {
 public:
  static constexpr int kWarmupRounds = 12;
  static constexpr int kMeasuredRounds = 3;
  static constexpr std::uint64_t kPairsPerRound = 2000;
  static constexpr std::uint64_t kShards = 1;

  Churn(bool inflight, std::uint64_t seed)
      : inflight_(inflight), root_(seed) {
    config_.bits = kChurnBits;
    config_.capacity =
        churn::capacity_for_population(population(), kChurnParams);
    config_.successors = 4;
    if (inflight_) {
      config_.bucket_k = 4;
      config_.session = {.kind = churn::SessionKind::kPareto,
                         .pareto_alpha = 2.0};
    }
  }

  std::string config_json() const override {
    return JsonObject()
        .text("engine", "churn::run_sparse_churn_trajectory")
        .text("geometry", churn::to_string(geometry()))
        .flag("inflight", inflight_)
        .count("bits", config_.bits)
        .count("n0", population())
        .count("capacity", config_.capacity)
        .count("successors", config_.successors)
        .count("shortcuts", config_.shortcuts)
        .count("announce", config_.announce)
        .count("bucket_k", config_.bucket_k)
        .text("session", churn::to_string(config_.session.kind))
        .num("pareto_alpha", config_.session.pareto_alpha)
        .count("replicas", config_.replicas)
        .num("zipf_s", config_.zipf_s)
        .count("objects", config_.objects)
        .num("pd", kChurnParams.death_per_round)
        .num("pr", kChurnParams.rebirth_per_round)
        .count("refresh_interval", kChurnParams.refresh_interval)
        .num("repair_probability", 0.0)
        .count("shards_per_pass", kShards)
        .count("warmup_rounds", kWarmupRounds)
        .count("measured_rounds", kMeasuredRounds)
        .count("pairs_per_round", kPairsPerRound)
        .count("setups_per_rep", setups_per_rep())
        .count("threads", kThreads)
        .str();
  }

  int setups_per_rep() const override { return 5; }  // 0.1 s each

  // The worlds the engine builds inside a pass, built here through the
  // public constructor from the same rng lineage and dropped at once;
  // their summed population is pinned by the goldens.
  void setup(SpanLog& spans) override {
    SpanLog::Scope span(spans, "build.worlds");
    const math::Rng engine_rng = root_.fork(kEngineStream);
    setup_population_ = 0;
    for (std::uint64_t s = 0; s < kShards; ++s) {
      const churn::SparseChurnWorld world(geometry(), config_, kChurnParams,
                                          0.0, 0, engine_rng.fork(s));
      setup_population_ += world.population();
    }
  }

  std::vector<Counters> pass(CallTimer& call, SpanLog& spans,
                             Layers* layers) override {
    obs::PhaseProfile profile;
    churn::TrajectoryOptions options = trajectory_options();
    options.profile = layers != nullptr ? &profile : nullptr;
    churn::SparseChurnResult result;
    call([&] {
      SpanLog::Scope span(spans, "call.trajectory");
      result = churn::run_sparse_churn_trajectory(
          geometry(), config_, kChurnParams, options, root_.fork(kEngineStream));
    });
    Counters c = counters_of("trajectory", result.overall);
    c.extra = {{"setup_population", setup_population_}};
    for (const sparse::SparseEstimate& round : result.per_round) {
      c.per_round_attempts.push_back(round.attempts);
    }
    if (layers != nullptr) {
      const std::string suffix = inflight_ ? ".inflight" : ".sync";
      const double slots = static_cast<double>(kShards) *
                           static_cast<double>(config_.capacity);
      const double slot_rounds = slots * (kWarmupRounds + kMeasuredRounds);
      (*layers)["churn.build_ns_per_slot" + suffix] = {
          ns_per(profile[Phase::kWorldBuild], slots), "ns"};
      (*layers)["churn.lifecycle_ns_per_slot_round" + suffix] = {
          ns_per(profile[Phase::kLifecycle], slot_rounds), "ns"};
      (*layers)["churn.refresh_ns_per_slot_round" + suffix] = {
          ns_per(profile[Phase::kRefreshRepair], slot_rounds), "ns"};
      (*layers)["churn.commit_ns_per_slot_round" + suffix] = {
          ns_per(profile[Phase::kMembershipCommit], slot_rounds), "ns"};
      (*layers)["churn.route_ns_per_route" + suffix] = {
          ns_per(profile[Phase::kRoute],
                 static_cast<double>(result.overall.attempts)),
          "ns"};
      (*layers)["churn.mean_hops" + suffix] = {result.overall.mean_hops(),
                                               "hops"};
      (*layers)["churn.fail_dead_entry" + suffix] = {
          static_cast<double>(
              result.overall.failures[obs::RouteFailure::kDeadEntry]),
          "count"};
    }
    return {c};
  }

 private:
  std::uint64_t population() const {
    return inflight_ ? kChurnPopulation / 4 : kChurnPopulation;
  }
  churn::SparseChurnGeometry geometry() const {
    return inflight_ ? churn::SparseChurnGeometry::kKademlia
                     : churn::SparseChurnGeometry::kChord;
  }
  churn::TrajectoryOptions trajectory_options() const {
    churn::TrajectoryOptions options;
    options.warmup_rounds = kWarmupRounds;
    options.measured_rounds = kMeasuredRounds;
    options.pairs_per_round = kPairsPerRound;
    options.shards = kShards;
    options.threads = kThreads;
    options.inflight = inflight_;
    return options;
  }

  const bool inflight_;
  const math::Rng root_;
  churn::SparseChurnConfig config_;
  std::uint64_t setup_population_ = 0;
};

const char* const kWorkloads[] = {"static_dense", "sparse_256k", "churn_sync",
                                  "churn_inflight"};

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "static_dense") {
    return std::make_unique<StaticDense>(seed);
  }
  if (name == "sparse_256k") {
    return std::make_unique<Sparse>(seed);
  }
  if (name == "churn_sync" || name == "churn_inflight") {
    return std::make_unique<Churn>(name == "churn_inflight", seed);
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

// ------------------------------------------------------- membership probe --

// Drives two SparseMemberships through identical pd = pr rounds at
// churn_sync's capacity: one commits with a seek-index refresh, the other
// without.  Their order indexes are therefore equal, so every query must
// answer identically on both -- the fresh index is only faster.
struct ProbeConfig {
  static constexpr int kRounds = 6;
  static constexpr std::uint64_t kQueries = std::uint64_t{1} << 20;
  static constexpr int kMinLevel = 8;  // Kademlia bucket levels 8..23

  static std::string json() {
    return JsonObject()
        .text("api", "churn::SparseMembership")
        .count("bits", kChurnBits)
        .count("capacity",
               churn::capacity_for_population(kChurnPopulation, kChurnParams))
        .num("pd", kChurnParams.death_per_round)
        .num("pr", kChurnParams.rebirth_per_round)
        .count("rounds", kRounds)
        .count("queries_per_round", kQueries)
        .text("range_queries", "kademlia_bucket_range, levels 8..23")
        .count("threads", 1)
        .str();
  }
};

struct QueryTotals {
  double successor_s = 0.0;
  double range_s = 0.0;
  std::uint64_t successor_sum = 0;
  std::uint64_t range_sum = 0;
};

void time_queries(const churn::SparseMembership& m,
                  const std::vector<std::uint64_t>& keys, QueryTotals& out) {
  std::uint64_t sum = 0;
  out.successor_s += timed([&] {
    for (const std::uint64_t key : keys) {
      sum += m.successor_of_key(key);
    }
  });
  out.successor_sum += sum;
  sum = 0;
  out.range_s += timed([&] {
    for (const std::uint64_t key : keys) {
      const int level =
          ProbeConfig::kMinLevel + static_cast<int>(key & 15);
      const auto [lo, hi] =
          churn::kademlia_bucket_range(key, level, kChurnBits);
      const auto [first, last] = m.order_range(lo, hi);
      sum += first + 3 * last;
    }
  });
  out.range_sum += sum;
}

int run_probe(std::uint64_t seed, const std::string& trace_out) {
  SpanLog spans("membership", !trace_out.empty());
  Reference reference;
  std::vector<double> reference_s{reference.time()};
  const std::uint64_t capacity =
      churn::capacity_for_population(kChurnPopulation, kChurnParams);
  churn::SparseMembership seek(kChurnBits, capacity);
  churn::SparseMembership noseek(kChurnBits, capacity);
  const math::Rng root(seed);
  math::Rng lifecycle = root.fork(kBuildStream);
  math::Rng seek_ids = root.fork(kBuildStream + 1);
  math::Rng noseek_ids = seek_ids;
  std::vector<std::uint64_t> keys(ProbeConfig::kQueries);
  math::Rng key_rng = root.fork(kEngineStream);
  for (std::uint64_t& key : keys) {
    key = key_rng.uniform_below(std::uint64_t{1} << kChurnBits);
  }

  // Stationary start: each slot present with probability a = 1/2.
  const double a = churn::availability(kChurnParams);
  std::vector<churn::NodeSlot> joiners;
  for (std::uint64_t s = 0; s < capacity; ++s) {
    if (lifecycle.bernoulli(a)) {
      joiners.push_back(static_cast<churn::NodeSlot>(s));
    }
  }
  seek.join(joiners, seek_ids);
  noseek.join(joiners, noseek_ids);
  seek.commit(true);
  noseek.commit(true);

  double join_s = 0.0;
  double seek_commit_s = 0.0;
  double noseek_commit_s = 0.0;
  std::uint64_t joins = 0;
  std::uint64_t committed_nodes = 0;
  QueryTotals fresh;
  QueryTotals stale;
  for (int round = 0; round < ProbeConfig::kRounds; ++round) {
    joiners.clear();
    for (std::uint64_t s = 0; s < capacity; ++s) {
      const auto slot = static_cast<churn::NodeSlot>(s);
      if (seek.present(slot)) {
        if (lifecycle.bernoulli(kChurnParams.death_per_round)) {
          seek.leave(slot);
          noseek.leave(slot);
        }
      } else if (lifecycle.bernoulli(kChurnParams.rebirth_per_round)) {
        joiners.push_back(slot);
      }
    }
    {
      SpanLog::Scope span(spans, "join");
      join_s += timed([&] { seek.join(joiners, seek_ids); });
    }
    noseek.join(joiners, noseek_ids);
    joins += joiners.size();
    {
      SpanLog::Scope span(spans, "commit.seek");
      seek_commit_s += timed([&] { seek.commit(true); });
    }
    {
      SpanLog::Scope span(spans, "commit.noseek");
      noseek_commit_s += timed([&] { noseek.commit(false); });
    }
    committed_nodes += seek.order_size();
    {
      SpanLog::Scope span(spans, "queries.fresh");
      time_queries(seek, keys, fresh);
    }
    {
      SpanLog::Scope span(spans, "queries.stale");
      time_queries(noseek, keys, stale);
    }
    reference_s.push_back(reference.time());
  }
  if (fresh.successor_sum != stale.successor_sum ||
      fresh.range_sum != stale.range_sum ||
      seek.order_size() != noseek.order_size()) {
    throw std::runtime_error(
        "fresh and stale seek indexes answered differently");
  }

  const double queries = static_cast<double>(ProbeConfig::kQueries) *
                         ProbeConfig::kRounds;
  const Layers layers = {
      {"membership.join_ns_per_node",
       {ns_per(join_s, static_cast<double>(joins)), "ns"}},
      {"membership.commit_ns_per_node.seek",
       {ns_per(seek_commit_s, static_cast<double>(committed_nodes)), "ns"}},
      {"membership.commit_ns_per_node.noseek",
       {ns_per(noseek_commit_s, static_cast<double>(committed_nodes)), "ns"}},
      {"membership.successor_ns_per_query.fresh",
       {ns_per(fresh.successor_s, queries), "ns"}},
      {"membership.successor_ns_per_query.stale",
       {ns_per(stale.successor_s, queries), "ns"}},
      {"membership.range_ns_per_query.fresh",
       {ns_per(fresh.range_s, queries), "ns"}},
      {"membership.range_ns_per_query.stale",
       {ns_per(stale.range_s, queries), "ns"}},
  };
  const std::string counters = JsonObject()
                                   .text("name", "membership")
                                   .count("population", seek.population())
                                   .count("joins", joins)
                                   .count("successor_sum", fresh.successor_sum)
                                   .count("range_sum", fresh.range_sum)
                                   .str();
  std::printf(
      "%s\n",
      JsonObject()
          .text("workload", "membership")
          .count("seed", seed)
          .count("threads", 1)
          .flag("traced", true)
          .raw("reference_s", json_array(reference_s, json_number))
          .raw("calls", "[" + counters + "]")
          .raw("layers", "[" + layers_json(layers) + "]")
          .str()
          .c_str());
  if (!trace_out.empty()) {
    spans.write_chrome_trace(trace_out);
  }
  return 0;
}

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;
  bool traced = false;
  bool probe = false;
  bool manifest = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + std::string(flag));
      }
      return argv[++i];
    };
    const auto positive = [&]() -> std::uint64_t {
      const std::string text = value();
      char* end = nullptr;
      const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0' || v == 0 || text[0] == '-') {
        throw std::invalid_argument(std::string(flag) +
                                    " needs a positive integer, got " + text);
      }
      return v;
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = positive();
    } else if (flag == "--seconds") {
      const std::string text = value();
      char* end = nullptr;
      args.seconds = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 3600.0) {
        throw std::invalid_argument(
            "--seconds needs a number in (0, 3600], got " + text);
      }
    } else if (flag == "--traced") {
      args.traced = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--probe") {
      args.probe = true;
    } else if (flag == "--manifest") {
      args.manifest = true;
    } else {
      throw std::invalid_argument("unknown flag: " + std::string(flag));
    }
  }
  return args;
}

int print_manifest() {
  JsonObject configs;
  for (const char* name : kWorkloads) {
    configs.raw(name, make_workload(name, 1)->config_json());
  }
  configs.raw("membership", ProbeConfig::json());
  std::printf("%s\n", JsonObject()
                          .text("compiler", DHTBENCH_COMPILER)
                          .text("build_type", DHTBENCH_BUILD_TYPE)
                          .text("options", DHTBENCH_OPTIONS)
                          .count("threads", kThreads)
                          .num("min_warmup_s", kMinWarmupSeconds)
                          .raw("reference", Reference::json())
                          .raw("workloads", configs.str())
                          .str()
                          .c_str());
  return 0;
}

int run_rep(const Args& args) {
  // A rep makes at least this many passes, whatever its time budget; a
  // traced rep needs two of each kind.
  const int min_passes = args.traced ? 4 : 3;
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed);
  // The basket stays resident for the whole rep; peak_rss_mib leaves it
  // out, so it is the workload's own peak.
  const double resident_before_mib = resident_mib();
  Reference reference;
  const double reference_mib = resident_mib() - resident_before_mib;
  SpanLog spans(args.workload, args.traced);
  const auto start = Clock::now();

  CallTimer setups(reference, reference.time());
  for (int i = 0; i < workload->setups_per_rep(); ++i) {
    setups([&] {
      SpanLog::Scope span(spans, "setup");
      workload->setup(spans);
    });
  }

  // Untraced passes run with a disabled span log, exactly as in an
  // untraced rep.  Every pass, warm-up passes included, must return the
  // first pass's counters.
  SpanLog untraced_spans(args.workload, false);
  std::string calls;
  std::uint64_t routes = 0;
  const auto check = [&](const std::vector<Counters>& counters) {
    const std::string json = calls_json(counters);
    if (calls.empty()) {
      calls = json;
      for (const Counters& c : counters) {
        routes += c.attempts;
      }
    } else if (json != calls) {
      throw std::runtime_error("two passes over the same inputs disagree");
    }
  };

  double warmup_s = 0.0;
  std::uint64_t warmup_passes = 0;
  {
    SpanLog::Scope span(spans, "warmup");
    warmup_s = timed([&] {
      const auto warmup_start = Clock::now();
      do {
        CallTimer untimed;
        check(workload->pass(untimed, untraced_spans, nullptr));
        ++warmup_passes;
      } while (seconds_between(warmup_start, Clock::now()) <
               kMinWarmupSeconds);
    });
  }

  // In a traced rep every second pass is traced.
  std::vector<std::string> passes;
  std::vector<Layers> layers;
  double last_reference_s = reference.time();
  for (int i = 0; i < min_passes ||
                  seconds_between(start, Clock::now()) < args.seconds;
       ++i) {
    const bool traced = args.traced && i % 2 == 1;
    CallTimer call(reference, last_reference_s);
    Layers pass_layers;
    std::vector<Counters> counters;
    {
      SpanLog::Scope span(spans, traced ? "pass.traced" : "pass");
      counters = traced ? workload->pass(call, spans, &pass_layers)
                        : workload->pass(call, untraced_spans, nullptr);
    }
    last_reference_s = call.last_reference_s();
    passes.push_back(JsonObject()
                         .flag("traced", traced)
                         .raw("samples", json_array(call.samples(),
                                                    [](const Sample& s) {
                                                      return s.json();
                                                    }))
                         .str());
    if (traced) {
      layers.push_back(std::move(pass_layers));
    }
    check(counters);
  }

  JsonObject out;
  out.text("workload", args.workload)
      .count("seed", args.seed)
      .count("threads", kThreads)
      .flag("traced", args.traced)
      .raw("setups", json_array(setups.samples(),
                                [](const Sample& s) { return s.json(); }))
      .num("warmup_s", warmup_s)
      .count("warmup_passes", warmup_passes)
      .count("routes", routes)
      .raw("passes", json_array(passes, [](const std::string& p) { return p; }))
      .raw("calls", calls);
  if (args.traced) {
    out.raw("layers", json_array(layers, layers_json));
  }
  out.num("peak_rss_mib", peak_rss_mib() - reference_mib);
  std::printf("%s\n", out.str().c_str());
  if (!args.trace_out.empty()) {
    spans.write_chrome_trace(args.trace_out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.manifest) {
      return print_manifest();
    }
    if (args.probe) {
      return run_probe(args.seed, args.trace_out);
    }
    return run_rep(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dhtbench: %s\n", e.what());
    return 2;
  }
}
