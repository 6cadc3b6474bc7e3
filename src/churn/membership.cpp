#include "churn/membership.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "common/memory.hpp"

namespace dht::churn {

SparseMembership::SparseMembership(int bits, std::uint64_t capacity)
    : bits_(bits) {
  DHT_CHECK(bits >= 1 && bits <= 63,
            "sparse membership supports 1 <= bits <= 63");
  DHT_CHECK(capacity >= 2, "membership needs at least two slots");
  DHT_CHECK(bits >= 26 || capacity <= (std::uint64_t{1} << bits),
            "capacity must fit the key space");
  DHT_CHECK(capacity <= (std::uint64_t{1} << 26),
            "capacity must stay <= 2^26 (per-slot state is materialized)");
  ids_.resize(capacity, 0);
  present_.resize(capacity, 0);
  generations_.resize(capacity, 0);
  alive_bits_.resize((capacity + 63) / 64, 0);
  in_pending_.resize(capacity, 0);
  const int bucket_bits = seek_bucket_bits(bits, capacity);
  seek_shift_ = bits_ - bucket_bits;
  seek_.assign((std::uint64_t{1} << bucket_bits) + 1, 0);
}

int SparseMembership::seek_bucket_bits(int bits, std::uint64_t capacity) {
  // Size the seek table to ~capacity/2 buckets: population never exceeds
  // capacity, so mean occupancy stays around 1-2 ids per bucket -- enough
  // to collapse the binary searches -- while commit()'s streaming refresh
  // of the table costs less than the survivor compaction it rides on.
  // Capped at 2^20 buckets (4 MiB) and at the key space itself.
  return std::max(
      0, std::min(bits, std::min(20, static_cast<int>(std::bit_width(
                                         capacity)) - 2)));
}

std::uint64_t SparseMembership::bytes_for(int bits, std::uint64_t capacity) {
  // Per slot: id, presence byte, generation, join flag, plus one order
  // entry (id + slot) at full population; one alive word per 64 slots.
  constexpr std::uint64_t kSlotBytes =
      sizeof(std::uint64_t) + sizeof(std::uint8_t) + sizeof(std::uint32_t) +
      sizeof(std::uint8_t) + sizeof(std::uint64_t) + sizeof(NodeSlot);
  const std::uint64_t seek_bytes =
      ((std::uint64_t{1} << seek_bucket_bits(bits, capacity)) + 1) *
      sizeof(std::uint32_t);
  return common::saturating_add(
      common::saturating_add(common::saturating_mul(capacity, kSlotBytes),
                             capacity / 64 * sizeof(std::uint64_t) +
                                 sizeof(std::uint64_t)),
      seek_bytes);
}

void SparseMembership::leave(NodeSlot slot) {
  DHT_CHECK(present_[slot] != 0, "leave requires a present slot");
  present_[slot] = 0;
  alive_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  --population_;
  stale_ = true;
}

bool SparseMembership::id_occupied(std::uint64_t id) const {
  // Occupied = owned by a still-present node: either an order entry whose
  // slot has not left since the last commit, or a pending joiner.  Ids of
  // departed nodes are free for re-draw immediately.
  const auto [window_lo, window_hi] = seek_window(id >> seek_shift_);
  const auto it = std::lower_bound(order_ids_.begin() + window_lo,
                                   order_ids_.begin() + window_hi, id);
  if (it != order_ids_.end() && *it == id) {
    const NodeSlot slot =
        order_slots_[static_cast<std::uint64_t>(it - order_ids_.begin())];
    // The order entry holds the id iff its slot is still present under its
    // committed identity; a recycled slot's old id is free again (the
    // recycled identity is tracked by the pending list instead).
    if (present_[slot] != 0 && in_pending_[slot] == 0) {
      return true;
    }
  }
  const auto pending = std::lower_bound(
      pending_.begin(), pending_.end(), id,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  return pending != pending_.end() && pending->first == id;
}

void SparseMembership::join(const std::vector<NodeSlot>& slots,
                            math::Rng& rng) {
  if (slots.empty()) {
    return;
  }
  const std::uint64_t k = slots.size();
  DHT_CHECK(population_ + k <= key_space_size(),
            "population would exceed the key space");
  const std::uint64_t keys = key_space_size();
  // Every present slot owns exactly one occupied id (order entries of
  // still-present, non-recycled slots plus the pending joiners), so the
  // free-key count is keys - population.
  const std::uint64_t free_keys = keys - population_;
  std::vector<std::uint64_t> fresh;
  fresh.reserve(k);
  if (free_keys < keys / 8) {  // keys is a power of two; no overflow
    // Dense regime (occupancy > 7/8, e.g. capacity = 2^bits near full
    // availability): uniform rejection degenerates -- each fresh id costs
    // ~keys/free draws, up to ~2^bits draws per id as occupancy -> 1.
    // Enumerate the free keys directly instead: walk the gaps of the
    // sorted occupied stream (surviving order entries merged with the
    // pending joins) in O(keys), then partial-Fisher-Yates k of them.
    std::vector<std::uint64_t> free_ids;
    free_ids.reserve(free_keys);
    std::uint64_t next_key = 0;
    std::uint64_t i = 0;
    std::uint64_t j = 0;
    const auto push_gap = [&free_ids](std::uint64_t from, std::uint64_t to) {
      for (std::uint64_t id = from; id < to; ++id) {
        free_ids.push_back(id);
      }
    };
    while (i < order_ids_.size() || j < pending_.size()) {
      std::uint64_t occupied_id;
      if (j >= pending_.size() ||
          (i < order_ids_.size() && order_ids_[i] <= pending_[j].first)) {
        const NodeSlot slot = order_slots_[i];
        occupied_id = order_ids_[i];
        ++i;
        if (present_[slot] == 0 || in_pending_[slot] != 0) {
          continue;  // departed or recycled: its old id is free
        }
      } else {
        occupied_id = pending_[j].first;
        ++j;
      }
      push_gap(next_key, occupied_id);
      next_key = occupied_id + 1;
    }
    push_gap(next_key, keys);
    DHT_CHECK(free_ids.size() == free_keys,
              "free-key enumeration out of sync with the population");
    for (std::uint64_t pick = 0; pick < k; ++pick) {
      const std::uint64_t other =
          pick + rng.uniform_below(free_ids.size() - pick);
      std::swap(free_ids[pick], free_ids[other]);
      fresh.push_back(free_ids[pick]);
    }
    std::sort(fresh.begin(), fresh.end());
  } else {
    // Sparse regime: batched distinct-fresh-id draw -- top the pool up to
    // k raw draws, sort, dedup against itself and the occupied keys,
    // repeat.  Converges cheaply while free keys dominate.
    while (fresh.size() < k) {
      while (fresh.size() < k) {
        fresh.push_back(rng.uniform_below(keys));
      }
      std::sort(fresh.begin(), fresh.end());
      fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
      fresh.erase(std::remove_if(
                      fresh.begin(), fresh.end(),
                      [this](std::uint64_t id) { return id_occupied(id); }),
                  fresh.end());
    }
  }
  // Ascending fresh ids onto the ascending cohort; slot numbers carry no
  // ring meaning, so the pairing is free to be the convenient one.
  const std::uint64_t before = pending_.size();
  for (std::uint64_t i = 0; i < k; ++i) {
    const NodeSlot slot = slots[i];
    DHT_CHECK(present_[slot] == 0, "join requires an absent slot");
    ids_[slot] = fresh[i];
    present_[slot] = 1;
    alive_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++generations_[slot];
    in_pending_[slot] = 1;
    pending_.emplace_back(fresh[i], slot);
  }
  population_ += k;
  std::inplace_merge(
      pending_.begin(),
      pending_.begin() + static_cast<std::ptrdiff_t>(before), pending_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
}

void SparseMembership::commit(bool refresh_seek) {
  // Incremental maintenance of the sorted parallel arrays.  An old entry
  // survives iff its slot is present AND not recycled this cycle --
  // presence alone is not enough, because a slot that left and re-joined is
  // present under a new identity carried by the pending list (and may even
  // have re-drawn its old identifier).
  if (pending_.empty() && !stale_) {
    return;  // membership unchanged since the last commit
  }
  // Pass 1 (departures): compact the survivors in place, keeping order.
  const std::uint64_t before = order_ids_.size();
  std::uint64_t kept = before;
  if (stale_) {
    std::uint64_t w = 0;
    for (std::uint64_t r = 0; r < order_ids_.size(); ++r) {
      const NodeSlot slot = order_slots_[r];
      if (present_[slot] != 0 && in_pending_[slot] == 0) {
        order_ids_[w] = order_ids_[r];
        order_slots_[w] = order_slots_[r];
        ++w;
      }
    }
    kept = w;
  }
  // Pass 2 (joins): backward shift-merge of the sorted pending cohort into
  // the compacted tail.  A survivor's id is occupied, so the fresh draws
  // never collide with it -- the merge sees no ties.
  if (pending_.empty()) {
    order_ids_.resize(kept);
    order_slots_.resize(kept);
  } else {
    const std::uint64_t joins = pending_.size();
    order_ids_.resize(kept + joins);
    order_slots_.resize(kept + joins);
    std::uint64_t i = kept;
    std::uint64_t j = joins;
    std::uint64_t out = kept + joins;
    while (j > 0) {
      if (i > 0 && order_ids_[i - 1] > pending_[j - 1].first) {
        order_ids_[out - 1] = order_ids_[i - 1];
        order_slots_[out - 1] = order_slots_[i - 1];
        --i;
      } else {
        order_ids_[out - 1] = pending_[j - 1].first;
        order_slots_[out - 1] = pending_[j - 1].second;
        --j;
      }
      --out;
    }
    for (const auto& [id, slot] : pending_) {
      (void)id;
      in_pending_[slot] = 0;
    }
    pending_.clear();
  }
  stale_ = false;
  DHT_CHECK(order_ids_.size() == population_,
            "order index out of sync with the population");
  if (!refresh_seek) {
    // The arrays moved under the seek table: a position shifts down by at
    // most the entries removed before it and up by at most those merged
    // before it, so the cumulative counts bound every bucket's drift.
    seek_removed_ += before - kept;
    seek_added_ += order_ids_.size() - kept;
    return;
  }
  // Refresh the prefix-seek table in one streaming pass: walking the
  // ascending ids, every bucket up to an id's prefix that has not started
  // yet starts at that id's position (empty buckets collapse onto the next
  // occupied one); trailing buckets start at the end.
  const std::uint64_t buckets = seek_.size() - 1;
  std::uint64_t b = 0;
  for (std::uint64_t pos = 0; pos < order_ids_.size(); ++pos) {
    const std::uint64_t prefix = order_ids_[pos] >> seek_shift_;
    while (b <= prefix) {
      seek_[b++] = static_cast<std::uint32_t>(pos);
    }
  }
  while (b <= buckets) {
    seek_[b++] = static_cast<std::uint32_t>(order_ids_.size());
  }
  seek_removed_ = 0;
  seek_added_ = 0;
}

void SparseMembership::bucket_ranges(
    std::uint64_t id,
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const {
  out.resize(static_cast<std::size_t>(bits_));
  const std::uint64_t* ids = order_ids_.data();
  // [lo, hi): the ids sharing `id`'s first `level` bits.  Members share
  // that prefix, so bit level + 1 is sorted within the window and one
  // partition point splits it.
  std::uint64_t lo = 0;
  std::uint64_t hi = order_ids_.size();
  int level = 0;
  for (; level < bits_ && lo < hi; ++level) {
    const std::uint64_t bit = std::uint64_t{1} << (bits_ - level - 1);
    const auto split = static_cast<std::uint64_t>(
        std::partition_point(ids + lo, ids + hi,
                             [bit](std::uint64_t other) {
                               return (other & bit) == 0;
                             }) -
        ids);
    if ((id & bit) != 0) {
      out[static_cast<std::size_t>(level)] = {lo, split};
      lo = split;
    } else {
      out[static_cast<std::size_t>(level)] = {split, hi};
      hi = split;
    }
  }
  // Every deeper bucket lies inside the empty window's key range, so its
  // bounds both collapse onto the window's position.
  for (; level < bits_; ++level) {
    out[static_cast<std::size_t>(level)] = {lo, lo};
  }
}

void SparseMembership::audit() const {
  const std::uint64_t size = order_ids_.size();
  DHT_CHECK(order_slots_.size() == size,
            "order ids and slots differ in length");
  for (std::uint64_t pos = 1; pos < size; ++pos) {
    DHT_CHECK(order_ids_[pos - 1] < order_ids_[pos],
              "order ids must be strictly ascending");
  }
  if (pending_.empty() && !stale_) {
    // Committed: the index is exactly the alive bitmap's present slots,
    // each under its current identifier.
    std::uint64_t present = 0;
    for (std::uint64_t word = 0; word < alive_bits_.size(); ++word) {
      present += static_cast<std::uint64_t>(std::popcount(alive_bits_[word]));
    }
    DHT_CHECK(present == population_ && size == population_,
              "committed index must hold exactly the present slots");
    for (std::uint64_t pos = 0; pos < size; ++pos) {
      const NodeSlot slot = order_slots_[pos];
      DHT_CHECK((alive_bits_[slot >> 6] >> (slot & 63) & 1) != 0,
                "committed index holds an absent slot");
      DHT_CHECK(ids_[slot] == order_ids_[pos],
                "committed index entry disagrees with its slot's id");
    }
  }
  // A bucket's true first position sits within the drift of its recorded
  // one, hence inside the widened window every query searches.
  std::uint64_t pos = 0;
  for (std::uint64_t b = 0; b + 1 < seek_.size(); ++b) {
    while (pos < size && (order_ids_[pos] >> seek_shift_) < b) {
      ++pos;
    }
    DHT_CHECK(pos + seek_removed_ >= seek_[b] && pos <= seek_[b] + seek_added_,
              "seek bucket start drifted past its window");
  }
}

}  // namespace dht::churn
