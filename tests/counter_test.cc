#include "core/counter.h"

#include <gtest/gtest.h>

#include "core/packed_table.h"
#include "graph/temporal_graph.h"

namespace tmotif {
namespace {

TEST(MotifCounts, AddAndQuery) {
  MotifCounts counts;
  counts.Add("010102");
  counts.Add("010102");
  counts.Add("011202", 5);
  EXPECT_EQ(counts.count("010102"), 2u);
  EXPECT_EQ(counts.count("011202"), 5u);
  EXPECT_EQ(counts.count("999999"), 0u);
  EXPECT_EQ(counts.total(), 7u);
  EXPECT_EQ(counts.num_codes(), 2u);
}

TEST(MotifCounts, Proportion) {
  MotifCounts counts;
  EXPECT_DOUBLE_EQ(counts.Proportion("0101"), 0.0);
  counts.Add("0101", 1);
  counts.Add("0110", 3);
  EXPECT_DOUBLE_EQ(counts.Proportion("0101"), 0.25);
  EXPECT_DOUBLE_EQ(counts.Proportion("0110"), 0.75);
}

TEST(MotifCounts, SortedByCountBreaksTiesByCode) {
  MotifCounts counts;
  counts.Add("0110", 5);
  counts.Add("0101", 5);
  counts.Add("0121", 9);
  const auto sorted = counts.SortedByCount();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, "0121");
  EXPECT_EQ(sorted[1].first, "0101");  // Tie: lexicographic.
  EXPECT_EQ(sorted[2].first, "0110");
}

TEST(MotifCounts, SortedByCode) {
  MotifCounts counts;
  counts.Add("0121");
  counts.Add("0101");
  const auto sorted = counts.SortedByCode();
  EXPECT_EQ(sorted[0].first, "0101");
  EXPECT_EQ(sorted[1].first, "0121");
}

TEST(MotifCounts, AddingZeroCreatesNoEntry) {
  MotifCounts counts;
  counts.Add("011202", 0);
  EXPECT_EQ(counts.num_codes(), 0u);
  EXPECT_EQ(counts.total(), 0u);
  EXPECT_TRUE(counts.SortedByCount().empty());
  counts.Add("011202", 2);
  counts.Add("011202", 0);
  counts.Add("010102", 0);
  EXPECT_EQ(counts.num_codes(), 1u);
  EXPECT_EQ(counts.count("011202"), 2u);
}

TEST(MotifCounts, CountOfAnUnpackableCodeIsZero) {
  MotifCounts counts;
  counts.Add("01", 3);
  counts.Add("011202", 4);
  EXPECT_EQ(counts.count(""), 0u);
  EXPECT_EQ(counts.count("0a"), 0u);
  EXPECT_EQ(counts.count("010101010101010101"), 0u);  // Nine events.
  EXPECT_DOUBLE_EQ(counts.Proportion("0a"), 0.0);
  EXPECT_EQ(counts.count("01"), 3u);
}

TEST(MotifCounts, TablesAddAndSubtractByPackedCode) {
  internal::PackedMotifTable table;
  table.Add(internal::PackCode("011202"), 3);
  table.Add(internal::PackCode("0101"));
  MotifCounts counts;
  counts.Add("0101", 2);
  counts.AddTable(table);
  EXPECT_EQ(counts.count("011202"), 3u);
  EXPECT_EQ(counts.count("0101"), 3u);
  EXPECT_EQ(counts.total(), 6u);
  counts.SubtractTable(table);
  // Codes whose count reaches zero are erased.
  EXPECT_EQ(counts.num_codes(), 1u);
  EXPECT_EQ(counts.count("0101"), 2u);
  EXPECT_EQ(counts.raw().count(internal::PackCode("011202")), 0u);
}

TEST(MotifCountsDeathTest, RetractionBeyondTheCountAborts) {
  internal::PackedMotifTable table;
  table.Add(internal::PackCode("0101"), 2);
  MotifCounts counts;
  counts.Add("0101");
  EXPECT_DEATH(counts.SubtractTable(table), "retraction exceeds");
}

TEST(MotifCountsDeathTest, AddingANonCanonicalCodeAborts) {
  MotifCounts counts;
  EXPECT_DEATH(counts.Add("0a"), "canonical");
}

TEST(CountMotifs, TotalsMatchCountInstances) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 1}, {1, 2, 3}, {0, 2, 5}, {2, 1, 7}, {0, 1, 9}});
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(10);
  const MotifCounts counts = CountMotifs(g, o);
  EXPECT_EQ(counts.total(), CountInstances(g, o));
}

TEST(CountMotifs, VanillaKnownTriangle) {
  // Vanilla counting (no inducedness, no order restriction) is the default
  // EnumerationOptions under a timing bound.
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 2, 2}, {0, 2, 3}});
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(10);
  const MotifCounts counts = CountMotifs(g, o);
  EXPECT_EQ(counts.total(), 1u);
  EXPECT_EQ(counts.count("011202"), 1u);
}

}  // namespace
}  // namespace tmotif
