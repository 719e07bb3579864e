#include "analysis/event_pair_analysis.h"

#include <gtest/gtest.h>

#include "graph/temporal_graph.h"

namespace tmotif {
namespace {

EnumerationOptions ThreeEvent(Timestamp delta_w) {
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(delta_w);
  return o;
}

TEST(EventPairStats, Accessors) {
  EventPairStats stats;
  stats.counts[static_cast<int>(EventPairType::kRepetition)] = 5;
  stats.counts[static_cast<int>(EventPairType::kConvey)] = 3;
  stats.disjoint = 2;
  EXPECT_EQ(stats.count(EventPairType::kRepetition), 5u);
  EXPECT_EQ(stats.count(EventPairType::kDisjoint), 2u);
  EXPECT_EQ(stats.rpio(), 5u);
  EXPECT_EQ(stats.cw(), 3u);
  EXPECT_DOUBLE_EQ(stats.Ratio(EventPairType::kRepetition), 5.0 / 8.0);
}

TEST(CollectEventPairStats, PairsPerInstanceIsKMinusOne) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 0}, {0, 1, 1}, {1, 2, 2}, {2, 0, 3}, {0, 2, 4}});
  const EventPairStats stats = CollectEventPairStats(g, ThreeEvent(100));
  EXPECT_EQ(stats.rpio() + stats.cw() + stats.disjoint,
            2 * stats.num_instances);
}

TEST(CollectEventPairStats, ClassifiesKnownChain) {
  // Single instance: (0,1),(0,1),(0,2) -> R then O.
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {0, 1, 1}, {0, 2, 2}});
  const EventPairStats stats = CollectEventPairStats(g, ThreeEvent(100));
  EXPECT_EQ(stats.num_instances, 1u);
  EXPECT_EQ(stats.count(EventPairType::kRepetition), 1u);
  EXPECT_EQ(stats.count(EventPairType::kOutBurst), 1u);
  EXPECT_EQ(stats.count(EventPairType::kPingPong), 0u);
}

TEST(CollectEventPairStats, DisjointPairsInFourNodeMotifs) {
  // (0,1), (0,2), (1,3): the consecutive pair ((0,2),(1,3)) is disjoint.
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {0, 2, 1}, {1, 3, 2}});
  EnumerationOptions o = ThreeEvent(100);
  o.max_nodes = 4;
  const EventPairStats stats = CollectEventPairStats(g, o);
  EXPECT_EQ(stats.num_instances, 1u);
  EXPECT_EQ(stats.disjoint, 1u);
  EXPECT_EQ(stats.count(EventPairType::kOutBurst), 1u);
}

TEST(CollectEventPairStats, RatioExcludesDisjoint) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {0, 2, 1}, {1, 3, 2}});
  EnumerationOptions o = ThreeEvent(100);
  o.max_nodes = 4;
  const EventPairStats stats = CollectEventPairStats(g, o);
  EXPECT_DOUBLE_EQ(stats.Ratio(EventPairType::kOutBurst), 1.0);
}

TEST(PairSequenceMatrix, CellLookupAndTotal) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {0, 1, 1}, {0, 2, 2}});
  const PairSequenceMatrix m = CollectPairSequenceMatrix(g, ThreeEvent(100));
  EXPECT_EQ(m.total, 1u);
  EXPECT_EQ(m.cell(EventPairType::kRepetition, EventPairType::kOutBurst), 1u);
  EXPECT_EQ(m.cell(EventPairType::kOutBurst, EventPairType::kRepetition), 0u);
}

TEST(PairSequenceMatrix, TotalMatchesInstanceCount) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 0}, {1, 0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 0, 4}});
  const EnumerationOptions o = ThreeEvent(100);
  const PairSequenceMatrix m = CollectPairSequenceMatrix(g, o);
  EXPECT_EQ(m.total, CountInstances(g, o));
}

TEST(PairSequenceMatrix, LogIntensityNormalized) {
  PairSequenceMatrix m;
  m.cells[0][0] = 1;     // Min non-zero.
  m.cells[0][1] = 100;   // Max.
  m.cells[1][0] = 10;
  EXPECT_DOUBLE_EQ(
      m.LogIntensity(EventPairType::kRepetition, EventPairType::kRepetition),
      0.0);
  EXPECT_DOUBLE_EQ(
      m.LogIntensity(EventPairType::kRepetition, EventPairType::kPingPong),
      1.0);
  EXPECT_NEAR(
      m.LogIntensity(EventPairType::kPingPong, EventPairType::kRepetition),
      0.5, 1e-9);
  // Zero cells have zero intensity.
  EXPECT_DOUBLE_EQ(
      m.LogIntensity(EventPairType::kConvey, EventPairType::kConvey), 0.0);
}

TEST(PairSequenceMatrix, UniformMatrixIntensityIsOne) {
  PairSequenceMatrix m;
  m.cells[2][3] = 7;
  EXPECT_DOUBLE_EQ(
      m.LogIntensity(EventPairType::kInBurst, EventPairType::kOutBurst), 1.0);
}

}  // namespace
}  // namespace tmotif
