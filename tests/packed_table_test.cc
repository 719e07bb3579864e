// Unit + differential tests of the packed motif-code representation and
// the flat open-addressed accumulation table (core/packed_table.h) that
// back the devirtualized counting hot path.

#include "core/packed_table.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/motif_code.h"
#include "gen/generator.h"

namespace tmotif {
namespace {

using internal::PackCode;

TEST(PackedCode, RoundTripsEveryCanonicalCode) {
  // 36 three-event codes and 696 four-event codes (the paper's spectra).
  for (const int k : {1, 2, 3, 4, 5}) {
    for (const MotifCode& code : EnumerateCodes(k, k + 1)) {
      const std::uint64_t packed = PackCode(code);
      ASSERT_NE(packed, 0u) << code;
      EXPECT_EQ(internal::PackedNumEvents(packed), k) << code;
      EXPECT_EQ(internal::PackedCodeToString(packed), code);
      EnumerationOptions o;
      o.num_events = k;
      o.max_nodes = CodeNumNodes(code);
      EXPECT_TRUE(internal::IsCountablePacked(packed, o)) << code;
      o.max_nodes = CodeNumNodes(code) - 1;
      if (o.max_nodes >= 2) {
        EXPECT_FALSE(internal::IsCountablePacked(packed, o)) << code;
      }
    }
  }
  // The longest packable code: 8 events over 9 nodes.
  const MotifCode longest = "0112233445566778";
  ASSERT_NE(PackCode(longest), 0u);
  EXPECT_EQ(internal::PackedCodeToString(PackCode(longest)), longest);
}

TEST(PackedCode, ParserRejectsWhatIsNotACanonicalCode) {
  EXPECT_EQ(PackCode(""), 0u);
  EXPECT_EQ(PackCode("0"), 0u);
  EXPECT_EQ(PackCode("0a"), 0u);
  EXPECT_EQ(PackCode("10"), 0u);       // First event must be 01.
  EXPECT_EQ(PackCode("0100"), 0u);     // Self-loop.
  EXPECT_EQ(PackCode("0123"), 0u);     // Disconnected event.
  EXPECT_EQ(PackCode("011202x"), 0u);  // Trailing garbage.
  // Nine events exceed the one-byte-per-event packing.
  EXPECT_EQ(PackCode("010101010101010101"), 0u);
  // Packed values that are not canonical codes (a zero event byte, a
  // non-digit nibble, a first event other than 01) or not of the counted
  // length are not countable.
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 4;
  EXPECT_FALSE(internal::IsCountablePacked(0, o));
  EXPECT_FALSE(internal::IsCountablePacked(0x010001, o));
  EXPECT_FALSE(internal::IsCountablePacked(0x0A0101, o));
  EXPECT_FALSE(internal::IsCountablePacked(0x010110, o));
  EXPECT_FALSE(internal::IsCountablePacked(0x0101, o));  // Two events.
  EXPECT_TRUE(internal::IsCountablePacked(PackCode("011223"), o));
}

TEST(PackedTable, AccumulatesAndGrowsBeyondInitialCapacity) {
  // All 696 four-event codes overflow the 64-slot initial table several
  // times; counts must survive every rehash.
  const std::vector<MotifCode> codes = EnumerateCodes(4, 4);
  ASSERT_EQ(codes.size(), 696u);
  internal::PackedMotifTable table;
  std::uint64_t expected_total = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::uint64_t n = 1 + (i % 7);
    table.Add(PackCode(codes[i]), n);
    expected_total += n;
  }
  // Second pass: every key hits the existing-slot path.
  for (const MotifCode& code : codes) {
    table.Add(PackCode(code));
    ++expected_total;
  }
  EXPECT_EQ(table.num_codes(), codes.size());
  EXPECT_EQ(table.total(), expected_total);

  std::map<MotifCode, std::uint64_t> decoded;
  table.ForEach([&](std::uint64_t packed, std::uint64_t count) {
    decoded[internal::PackedCodeToString(packed)] = count;
  });
  ASSERT_EQ(decoded.size(), codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(decoded[codes[i]], 2 + (i % 7)) << codes[i];
  }
}

TEST(PackedTable, MergeMatchesSequentialAdds) {
  const std::vector<MotifCode> codes = EnumerateCodes(3, 3);
  internal::PackedMotifTable a;
  internal::PackedMotifTable b;
  internal::PackedMotifTable combined;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::uint64_t packed = PackCode(codes[i]);
    if (i % 2 == 0) a.Add(packed, i + 1);
    if (i % 3 == 0) b.Add(packed, 2 * i + 1);
    if (i % 2 == 0) combined.Add(packed, i + 1);
    if (i % 3 == 0) combined.Add(packed, 2 * i + 1);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.total(), combined.total());
  EXPECT_EQ(a.num_codes(), combined.num_codes());
  std::map<std::uint64_t, std::uint64_t> merged;
  a.ForEach([&](std::uint64_t k, std::uint64_t v) { merged[k] = v; });
  combined.ForEach([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(merged[k], v);
  });
}

// End-to-end: the packed fast path of CountMotifs must agree with the
// visitor-based EnumerateInstances tally code-for-code (the two paths share
// the DFS but diverge at the sink).
TEST(PackedTable, CountMotifsMatchesVisitorTally) {
  GeneratorConfig c;
  c.num_nodes = 30;
  c.num_events = 800;
  c.median_gap_seconds = 15;
  c.prob_reply = 0.3;
  c.seed = 99;
  const TemporalGraph g = GenerateTemporalNetwork(c);
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::Both(90, 200);

  MotifCounts via_visitor;
  EnumerateInstances(g, o, [&](const MotifInstance& instance) {
    via_visitor.Add(instance.code);
  });
  const MotifCounts via_packed = CountMotifs(g, o);
  EXPECT_GT(via_packed.total(), 0u);
  EXPECT_EQ(via_packed.SortedByCode(), via_visitor.SortedByCode());
}

}  // namespace
}  // namespace tmotif
