// Packed routing-table rows for the geometries whose level-i entry is one
// member of a 2^{d-i}-member class: the tree and XOR prefix tables (paper
// Section 3.3: "matching the first i-1 bits ..., flipping the ith bit, and
// choose random bits for the rest"), randomized Chord's dyadic fingers
// (Section 3.4), and the dense churn world's tables.
//
// An entry stores only what is random about it, its member index in the
// class: d - i bits at level i.  class_member() turns the index back into
// a node id:
//   kPrefix  ids sharing node's first i-1 bits with bit i flipped -- a
//            contiguous block once the d-i suffix bits are freed;
//   kDyadic  the finger interval node + [2^{d-i}, 2^{d-i+1}) on the ring.
// A row holds d(d-1)/2 bits, rounded up to whole bytes: 24 bytes at d = 20
// against 80 for a u32 node id per entry.  Fields are stored narrowest
// first, so the width-w field starts at bit w(w-1)/2 whatever d is, and one
// unaligned 64-bit load reads it (w <= 25 bits after a shift of at most 7).
// The store ends in kTailBytes of padding so that load stays inside the
// allocation even for the last row's widest field.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/hugepage.hpp"
#include "sim/node_id.hpp"

namespace dht::sim {

static_assert(std::endian::native == std::endian::little,
              "packed class rows read their fields little-endian");

enum class EntryClass {
  kPrefix,  // tree, xor
  kDyadic,  // randomized chord fingers
};

/// Node id of member `member` of (node, level)'s class in a 2^d space.
inline NodeId class_member(EntryClass cls, int d, NodeId node, int level,
                           std::uint64_t member) {
  const int w = d - level;
  if (cls == EntryClass::kDyadic) {
    return (node + (std::uint64_t{1} << w) + member) &
           ((std::uint64_t{1} << d) - 1);
  }
  return (((node >> w) ^ 1) << w) | member;
}

/// The member index stored in the width-`width` field of the row at `row`.
inline std::uint64_t read_member(const unsigned char* row, int width) {
  const auto bit = static_cast<std::uint64_t>(width * (width - 1) / 2);
  std::uint64_t word;
  std::memcpy(&word, row + (bit >> 3), sizeof word);
  return (word >> (bit & 7)) & ((std::uint64_t{1} << width) - 1);
}

class ClassRows {
 public:
  /// Zero bytes of tail padding the last row's 64-bit field loads may read.
  static constexpr std::uint64_t kTailBytes = 8;
  /// The most levels a row holds (IdSpace's cap on d).
  static constexpr int kMaxLevels = 26;

  /// An empty store: no rows, no bytes.
  ClassRows() = default;

  /// `nodes` rows of d levels, every member index 0.  Precondition:
  /// 1 <= d <= kMaxLevels.
  ClassRows(EntryClass cls, int d, std::uint64_t nodes);

  EntryClass entry_class() const noexcept { return cls_; }
  int levels() const noexcept { return d_; }
  std::uint64_t row_bytes() const noexcept { return row_bytes_; }
  bool empty() const noexcept { return bytes_.empty(); }
  /// Bytes held, tail padding included (0 for an empty store).
  std::uint64_t bytes() const noexcept { return bytes_.size(); }
  /// Node v's row starts at data() + v * row_bytes().
  const unsigned char* data() const noexcept { return bytes_.data(); }

  std::uint64_t member(NodeId node, int level) const {
    return read_member(data() + node * row_bytes_, d_ - level);
  }
  /// The node id entry (node, level) points at.
  NodeId entry(NodeId node, int level) const {
    return class_member(cls_, d_, node, level, member(node, level));
  }
  /// Overwrites one field (read-modify-write of the word holding it).
  /// Precondition: member < 2^{d-level}.
  void set_member(NodeId node, int level, std::uint64_t member);
  /// Writes node's whole row, level i's member from members[i - 1], in one
  /// sequential pass: the table builders' path, which a field-wise
  /// read-modify-write would stall on store forwarding.  Precondition:
  /// every members[i - 1] < 2^{d-i}.
  void set_row(NodeId node, const std::uint64_t* members);

  bool operator==(const ClassRows&) const = default;

 private:
  EntryClass cls_ = EntryClass::kPrefix;
  int d_ = 0;
  std::uint64_t row_bytes_ = 0;
  // resize() leaves new bytes unset: the constructor zeroes them on every
  // core, so a big table's pages are first touched in parallel.
  common::NoInitVector<unsigned char> bytes_;
};

}  // namespace dht::sim
