#include "sim/repair.hpp"

#include <optional>
#include <vector>

#include "common/check.hpp"

namespace dht::sim {

namespace {

/// Uniformly samples the member index of an alive member of (node,
/// level)'s prefix class, or returns nullopt when none is alive.  Rejection
/// sampling with a bounded number of tries, then an exact scan (rare: the
/// class is nearly dead).
std::optional<std::uint64_t> sample_alive_in_class(
    NodeId node, int level, int d, const FailureScenario& failures,
    math::Rng& rng) {
  const std::uint64_t count = std::uint64_t{1} << (d - level);
  const auto member_alive = [&](std::uint64_t member) {
    return failures.alive(
        class_member(EntryClass::kPrefix, d, node, level, member));
  };
  constexpr int kRejectionTries = 64;
  for (int attempt = 0; attempt < kRejectionTries; ++attempt) {
    const std::uint64_t candidate = rng.uniform_below(count);
    if (member_alive(candidate)) {
      return candidate;
    }
  }
  // Exact fallback: collect the alive members and pick uniformly.
  std::vector<std::uint64_t> alive;
  for (std::uint64_t member = 0; member < count; ++member) {
    if (member_alive(member)) {
      alive.push_back(member);
    }
  }
  if (alive.empty()) {
    return std::nullopt;
  }
  return alive[rng.uniform_below(alive.size())];
}

}  // namespace

std::shared_ptr<const PrefixTable> repair_prefix_table(
    const PrefixTable& table, const IdSpace& space,
    const FailureScenario& failures, double repair_probability,
    math::Rng& rng) {
  DHT_CHECK(repair_probability >= 0.0 && repair_probability <= 1.0,
            "repair probability must be in [0, 1]");
  DHT_CHECK(table.levels() == space.bits(),
            "table level count must match the id space");
  DHT_CHECK(failures.size() == space.size(),
            "failure scenario must match the id space");

  const int d = space.bits();
  ClassRows rows = table.rows();
  for (NodeId v = 0; v < space.size(); ++v) {
    for (int level = 1; level <= d; ++level) {
      if (failures.alive(rows.entry(v, level))) {
        continue;  // nothing to repair
      }
      if (!rng.bernoulli(repair_probability)) {
        continue;  // repair has not happened yet (static regime)
      }
      const auto replacement =
          sample_alive_in_class(v, level, d, failures, rng);
      if (replacement.has_value()) {
        rows.set_member(v, level, *replacement);
      }
    }
  }
  return std::make_shared<const PrefixTable>(std::move(rows));
}

std::shared_ptr<const PrefixTable> repair_prefix_table(
    const PrefixTable& table, const IdSpace& space,
    const FailureScenario& failures, double repair_probability,
    const math::Rng& rng, std::uint64_t stream_id) {
  math::Rng stream = rng.fork(stream_id);
  return repair_prefix_table(table, space, failures, repair_probability,
                             stream);
}

}  // namespace dht::sim
