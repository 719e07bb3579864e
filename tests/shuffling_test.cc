#include "nullmodels/shuffling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "gen/generator.h"
#include "graph/graph_stats.h"

namespace tmotif {
namespace {

TemporalGraph TestGraph() {
  GeneratorConfig c;
  c.num_nodes = 50;
  c.num_events = 1000;
  c.median_gap_seconds = 30;
  c.prob_reply = 0.3;
  c.seed = 99;
  return GenerateTemporalNetwork(c);
}

std::multiset<Timestamp> Times(const TemporalGraph& g) {
  std::multiset<Timestamp> out;
  for (const Event& e : g.events()) out.insert(e.time);
  return out;
}

std::multiset<std::pair<NodeId, NodeId>> Endpoints(const TemporalGraph& g) {
  std::multiset<std::pair<NodeId, NodeId>> out;
  for (const Event& e : g.events()) out.insert({e.src, e.dst});
  return out;
}

TEST(ShuffleTimestamps, PreservesTimesAndEndpointsAsMultisets) {
  const TemporalGraph g = TestGraph();
  Rng rng(1);
  const TemporalGraph shuffled = ShuffleTimestamps(g, &rng);
  EXPECT_EQ(Times(shuffled), Times(g));
  EXPECT_EQ(Endpoints(shuffled), Endpoints(g));
  EXPECT_EQ(shuffled.num_static_edges(), g.num_static_edges());
}

TEST(ShuffleTimestamps, DestroysTemporalOrderButNotStructure) {
  const TemporalGraph g = TestGraph();
  Rng rng(2);
  const TemporalGraph shuffled = ShuffleTimestamps(g, &rng);
  // Per-edge event counts identical.
  for (const Event& e : g.events()) {
    EXPECT_EQ(shuffled.edge_occurrences(shuffled.FindEdge(e.src, e.dst)).size(),
              g.edge_occurrences(g.FindEdge(e.src, e.dst)).size());
  }
  // But the (src,dst,time) joint distribution changed for most events.
  int moved = 0;
  for (EventIndex i = 0; i < g.num_events(); ++i) {
    if (!(g.event(i) == shuffled.event(i))) ++moved;
  }
  EXPECT_GT(moved, g.num_events() / 2);
}

TEST(ShuffleInterEventTimes, PreservesGapMultiset) {
  const TemporalGraph g = TestGraph();
  Rng rng(3);
  const TemporalGraph shuffled = ShuffleInterEventTimes(g, &rng);
  ASSERT_EQ(shuffled.num_events(), g.num_events());

  std::multiset<Timestamp> gaps_before;
  std::multiset<Timestamp> gaps_after;
  for (EventIndex i = 1; i < g.num_events(); ++i) {
    gaps_before.insert(g.event(i).time - g.event(i - 1).time);
    gaps_after.insert(shuffled.event(i).time - shuffled.event(i - 1).time);
  }
  EXPECT_EQ(gaps_before, gaps_after);
  EXPECT_EQ(shuffled.min_time(), g.min_time());
  EXPECT_EQ(shuffled.max_time(), g.max_time());
}

TEST(ShuffleLinks, PreservesTimesExactlyAndEndpointMultiset) {
  const TemporalGraph g = TestGraph();
  Rng rng(4);
  const TemporalGraph shuffled = ShuffleLinks(g, &rng);
  // Timestamps sequence is identical (sorted), endpoint multiset preserved.
  for (EventIndex i = 0; i < g.num_events(); ++i) {
    EXPECT_EQ(shuffled.event(i).time, g.event(i).time);
  }
  EXPECT_EQ(Endpoints(shuffled), Endpoints(g));
}

TEST(UniformTimes, StaysInsideOriginalTimespan) {
  const TemporalGraph g = TestGraph();
  Rng rng(5);
  const TemporalGraph shuffled = UniformTimes(g, &rng);
  for (const Event& e : shuffled.events()) {
    EXPECT_GE(e.time, g.min_time());
    EXPECT_LE(e.time, g.max_time());
  }
  EXPECT_EQ(Endpoints(shuffled), Endpoints(g));
}

TEST(UniformTimes, FlattensBurstiness) {
  const TemporalGraph g = TestGraph();
  Rng rng(6);
  const GraphStats before = ComputeStats(g);
  const GraphStats after = ComputeStats(UniformTimes(g, &rng));
  // A bursty log-normal stream has median gap far below the uniform one.
  EXPECT_GT(after.median_inter_event_time,
            before.median_inter_event_time * 0.5);
}

TEST(Shuffles, DeterministicGivenSeed) {
  const TemporalGraph g = TestGraph();
  Rng rng1(7);
  Rng rng2(7);
  const TemporalGraph a = ShuffleTimestamps(g, &rng1);
  const TemporalGraph b = ShuffleTimestamps(g, &rng2);
  for (EventIndex i = 0; i < a.num_events(); ++i) {
    EXPECT_EQ(a.event(i), b.event(i));
  }
}

}  // namespace
}  // namespace tmotif
