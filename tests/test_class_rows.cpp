#include "sim/class_rows.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht::sim {
namespace {

std::uint64_t class_size(int d, int level) {
  return std::uint64_t{1} << (d - level);
}

// Writes a random member into every field, then reads every field back:
// a write must land in its own d-level bits and disturb no other field.
TEST(ClassRows, RoundTripsEveryField) {
  for (int d : {1, 2, 3, 8}) {
    const std::uint64_t nodes = std::uint64_t{1} << d;
    ClassRows rows(EntryClass::kPrefix, d, nodes);
    EXPECT_EQ(rows.row_bytes(),
              (static_cast<std::uint64_t>(d) * (d - 1) / 2 + 7) / 8);
    EXPECT_EQ(rows.bytes(), nodes * rows.row_bytes() + ClassRows::kTailBytes);
    math::Rng rng(static_cast<std::uint64_t>(100 + d));
    std::vector<std::uint64_t> expected;
    for (NodeId v = 0; v < nodes; ++v) {
      for (int level = 1; level <= d; ++level) {
        expected.push_back(rng.uniform_below(class_size(d, level)));
        rows.set_member(v, level, expected.back());
      }
    }
    // Rewrite in reverse order with all-ones members, then restore: the
    // read-modify-write of one field must keep its neighbours' bits.
    for (NodeId v = nodes; v-- > 0;) {
      for (int level = d; level >= 1; --level) {
        rows.set_member(v, level, class_size(d, level) - 1);
        ASSERT_EQ(rows.member(v, level), class_size(d, level) - 1);
        rows.set_member(v, level, expected[v * d + (level - 1)]);
      }
    }
    for (NodeId v = 0; v < nodes; ++v) {
      for (int level = 1; level <= d; ++level) {
        ASSERT_EQ(rows.member(v, level), expected[v * d + (level - 1)])
            << "d=" << d << " v=" << v << " level=" << level;
      }
    }
    // The builders' whole-row writer packs the same bits.
    ClassRows by_row(EntryClass::kPrefix, d, nodes);
    for (NodeId v = 0; v < nodes; ++v) {
      by_row.set_row(v, expected.data() + v * d);
    }
    EXPECT_EQ(by_row, rows) << "d=" << d;
  }
}

// At IdSpace's cap every row is 41 bytes, and the last row's widest
// (level 1, 25 bits) and last-level fields are read with a 64-bit load
// that reaches into the tail padding; an ASan build checks it stays
// inside the allocation.
TEST(ClassRows, ReadsTheLastRowAtD26) {
  constexpr int d = 26;
  constexpr std::uint64_t nodes = 3;
  ClassRows rows(EntryClass::kPrefix, d, nodes);
  EXPECT_EQ(rows.row_bytes(), 41u);
  for (NodeId v = 0; v < nodes; ++v) {
    for (int level = 1; level <= d; ++level) {
      rows.set_member(v, level, (class_size(d, level) - 1) >> (v & 1));
    }
  }
  for (NodeId v = 0; v < nodes; ++v) {
    for (int level = 1; level <= d; ++level) {
      ASSERT_EQ(rows.member(v, level),
                (class_size(d, level) - 1) >> (v & 1))
          << "v=" << v << " level=" << level;
    }
  }
  EXPECT_EQ(rows.member(nodes - 1, 1), class_size(d, 1) - 1);
  EXPECT_EQ(rows.member(nodes - 1, d - 1), 1u);
  EXPECT_EQ(rows.member(nodes - 1, d), 0u);
  EXPECT_EQ(rows.entry(nodes - 1, 1),
            ((nodes - 1) ^ (NodeId{1} << (d - 1))) | (class_size(d, 1) - 1));
  ClassRows by_row(EntryClass::kPrefix, d, nodes);
  std::uint64_t members[d];
  for (NodeId v = 0; v < nodes; ++v) {
    for (int level = 1; level <= d; ++level) {
      members[level - 1] = rows.member(v, level);
    }
    by_row.set_row(v, members);
  }
  EXPECT_EQ(by_row, rows);
}

TEST(ClassRows, MembersSpanTheirClass) {
  constexpr int d = 6;
  const NodeId node = 0b101101;
  for (int level = 1; level <= d; ++level) {
    const int w = d - level;
    for (std::uint64_t m = 0; m < class_size(d, level); ++m) {
      const NodeId prefix =
          class_member(EntryClass::kPrefix, d, node, level, m);
      EXPECT_TRUE(shares_prefix(node, prefix, level - 1, d));
      EXPECT_NE(bit_at_level(node, level, d), bit_at_level(prefix, level, d));
      EXPECT_EQ(prefix & (class_size(d, level) - 1), m);
      const NodeId finger =
          class_member(EntryClass::kDyadic, d, node, level, m);
      EXPECT_EQ(ring_distance(node, finger, d), (std::uint64_t{1} << w) + m);
    }
  }
}

TEST(ClassRows, RejectsAMemberOutsideItsClass) {
  ClassRows rows(EntryClass::kDyadic, 5, 4);
  EXPECT_THROW(rows.set_member(1, 2, 8), PreconditionError);
  EXPECT_THROW(rows.set_member(1, 5, 1), PreconditionError);
  const std::uint64_t wide[5] = {0, 8, 0, 0, 0};  // level 2 holds 3 bits
  EXPECT_THROW(rows.set_row(1, wide), PreconditionError);
  EXPECT_THROW(ClassRows(EntryClass::kPrefix, 27, 1), PreconditionError);
  EXPECT_TRUE(ClassRows().empty());
  EXPECT_EQ(ClassRows().bytes(), 0u);
}

std::uint64_t links_hash(const Overlay& overlay) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a
  for (NodeId v = 0; v < overlay.space().size(); ++v) {
    for (const NodeId link : overlay.links(v)) {
      h = (h ^ link) * 1099511628211ull;
    }
  }
  return h;
}

// Every link of the three packed-table overlays at d = 12, pinned to the
// values one u32 node id per entry gave: the build consumes the same
// draws and each entry decodes to the same node.
TEST(ClassRows, PinnedDrawsAtD12) {
  const IdSpace space(12);
  math::Rng tree_rng(1201);
  math::Rng xor_rng(1202);
  math::Rng ring_rng(1203);
  EXPECT_EQ(links_hash(TreeOverlay(space, tree_rng)), 7271951894312060284ull);
  EXPECT_EQ(links_hash(XorOverlay(space, xor_rng)), 12575305110461194435ull);
  EXPECT_EQ(links_hash(ChordOverlay(space, ring_rng,
                                    ChordFingers::kRandomized)),
            16102555032818003733ull);
}

}  // namespace
}  // namespace dht::sim
