#include "graph/temporal_graph.h"

#include <gtest/gtest.h>

#include <vector>

namespace tmotif {
namespace {

template <typename Span>
std::vector<EventIndex> ToVector(const Span& span) {
  return std::vector<EventIndex>(span.begin(), span.end());
}

TEST(TemporalGraphBuilder, SortsEventsChronologically) {
  TemporalGraphBuilder builder;
  builder.AddEvent(0, 1, 30).AddEvent(1, 2, 10).AddEvent(2, 0, 20);
  const TemporalGraph g = builder.Build();
  ASSERT_EQ(g.num_events(), 3);
  EXPECT_EQ(g.event(0).time, 10);
  EXPECT_EQ(g.event(1).time, 20);
  EXPECT_EQ(g.event(2).time, 30);
}

TEST(TemporalGraphBuilder, DeterministicTieOrdering) {
  TemporalGraphBuilder builder;
  builder.AddEvent(5, 6, 10).AddEvent(1, 2, 10).AddEvent(3, 4, 10);
  const TemporalGraph g = builder.Build();
  EXPECT_EQ(g.event(0).src, 1);
  EXPECT_EQ(g.event(1).src, 3);
  EXPECT_EQ(g.event(2).src, 5);
}

TEST(TemporalGraphBuilder, NumNodesFromMaxId) {
  const TemporalGraph g = GraphFromEvents({{0, 9, 1}});
  EXPECT_EQ(g.num_nodes(), 10);
}

TEST(TemporalGraphBuilder, SetMinNumNodesExtends) {
  TemporalGraphBuilder builder;
  builder.AddEvent(0, 1, 5);
  builder.SetMinNumNodes(100);
  const TemporalGraph g = builder.Build();
  EXPECT_EQ(g.num_nodes(), 100);
  EXPECT_TRUE(g.incident(99).empty());
}

TEST(TemporalGraphBuilder, ReusableAfterBuild) {
  TemporalGraphBuilder builder;
  builder.AddEvent(0, 1, 5);
  const TemporalGraph first = builder.Build();
  EXPECT_EQ(first.num_events(), 1);
  builder.AddEvent(2, 3, 7);
  const TemporalGraph second = builder.Build();
  EXPECT_EQ(second.num_events(), 1);
  EXPECT_EQ(second.event(0).src, 2);
}

TEST(TemporalGraphBuilderDeathTest, RejectsSelfLoops) {
  TemporalGraphBuilder builder;
  EXPECT_DEATH(builder.AddEvent(3, 3, 1), "self-loop");
}

TEST(TemporalGraphBuilderDeathTest, RejectsNegativeIds) {
  TemporalGraphBuilder builder;
  EXPECT_DEATH(builder.AddEvent(-1, 2, 1), "negative node id");
}

TEST(TemporalGraph, IncidentListsAreAscendingAndComplete) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 1}, {1, 2, 2}, {0, 2, 3}, {2, 1, 4}});
  EXPECT_EQ(ToVector(g.incident(0)), (std::vector<EventIndex>{0, 2}));
  EXPECT_EQ(ToVector(g.incident(1)), (std::vector<EventIndex>{0, 1, 3}));
  EXPECT_EQ(ToVector(g.incident(2)), (std::vector<EventIndex>{1, 2, 3}));
}

TEST(TemporalGraph, EdgeOccurrencesAreDirected) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 0, 2}, {0, 1, 3}});
  EXPECT_EQ(ToVector(g.edge_occurrences(g.FindEdge(0, 1))),
            (std::vector<EventIndex>{0, 2}));
  EXPECT_EQ(ToVector(g.edge_occurrences(g.FindEdge(1, 0))),
            (std::vector<EventIndex>{1}));
  EXPECT_EQ(g.FindEdge(1, 2), TemporalGraph::kNoEdgeHandle);
}

TEST(TemporalGraph, HasStaticEdgeIsDirected) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}});
  EXPECT_TRUE(g.HasStaticEdge(0, 1));
  EXPECT_FALSE(g.HasStaticEdge(1, 0));
}

TEST(TemporalGraph, NumStaticEdgesCountsDistinctPairs) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 1}, {0, 1, 2}, {1, 0, 3}, {1, 2, 4}});
  EXPECT_EQ(g.num_static_edges(), 3u);
}

TEST(TemporalGraph, FindEdgeResolvesSlotsInNeighborCsrOrder) {
  // Distinct edges sorted by (src, dst): (0,1)=0, (0,2)=1, (1,0)=2, (2,1)=3.
  const TemporalGraph g = GraphFromEvents(
      {{2, 1, 1}, {0, 2, 2}, {0, 1, 3}, {1, 0, 4}, {0, 1, 5}});
  EXPECT_EQ(g.FindEdge(0, 1), 0u);
  EXPECT_EQ(g.FindEdge(0, 2), 1u);
  EXPECT_EQ(g.FindEdge(1, 0), 2u);
  EXPECT_EQ(g.FindEdge(2, 1), 3u);
  EXPECT_EQ(g.FindEdge(1, 2), TemporalGraph::kNoEdgeHandle);
  EXPECT_EQ(g.FindEdge(-1, 0), TemporalGraph::kNoEdgeHandle);
  EXPECT_EQ(g.FindEdge(7, 0), TemporalGraph::kNoEdgeHandle);
  // The slot's occurrence run and timestamp mirror line up.
  const auto run = g.edge_occurrences(g.FindEdge(0, 1));
  EXPECT_EQ(ToVector(run), (std::vector<EventIndex>{2, 4}));
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run.begin().time(), 3);
  EXPECT_EQ((run.begin() + 1).time(), 5);
}

TEST(TemporalGraph, FindEdgeCoversTheStaticProjection) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 1}, {0, 2, 2}, {2, 1, 3}, {0, 1, 4}});
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId src = 0; src < g.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      if (g.FindEdge(src, dst) != TemporalGraph::kNoEdgeHandle) {
        edges.emplace_back(src, dst);
      }
    }
  }
  EXPECT_EQ(edges, (std::vector<std::pair<NodeId, NodeId>>{
                       {0, 1}, {0, 2}, {2, 1}}));
  EXPECT_EQ(edges.size(), g.num_static_edges());
}

TEST(TemporalGraph, EdgeRanksBracketTimestamps) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 10}, {0, 1, 20}, {0, 1, 20}, {0, 1, 30}});
  const TemporalGraph::EdgeHandle e = g.FindEdge(0, 1);
  ASSERT_NE(e, TemporalGraph::kNoEdgeHandle);
  EXPECT_EQ(g.EdgeLowerRank(e, 20), 1u);   // Strictly before 20.
  EXPECT_EQ(g.EdgeUpperRank(e, 20), 3u);   // At or before 20.
  EXPECT_EQ(g.EdgeLowerRank(e, 5), 0u);
  EXPECT_EQ(g.EdgeUpperRank(e, 99), 4u);
  EXPECT_EQ(g.CountEdgeEventsInTimeRange(e, 20, 30), 3);
}

TEST(TemporalGraph, HasAdjacentEdgeEventInRangeChecksRankNeighbors) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 10}, {2, 3, 15}, {0, 1, 20}, {0, 1, 40}});
  // Event 2 = (0,1)@20: same-edge neighbors are @10 (before) and @40.
  EXPECT_TRUE(g.HasAdjacentEdgeEventInRange(2, 10, 20));   // @10 is in.
  EXPECT_FALSE(g.HasAdjacentEdgeEventInRange(2, 11, 39));  // Neither is.
  EXPECT_TRUE(g.HasAdjacentEdgeEventInRange(2, 15, 40));   // @40 is in.
  // Event 1 = (2,3)@15 is its edge's only occurrence.
  EXPECT_FALSE(g.HasAdjacentEdgeEventInRange(1, 0, 100));
}

TEST(TemporalGraph, IncidentIteratorExposesInlinedHotFields) {
  const TemporalGraph g = GraphFromEvents({{3, 1, 7}, {1, 4, 9}});
  auto it = g.incident(1).begin();
  EXPECT_EQ(*it, 0);
  EXPECT_EQ(it.time(), 7);
  EXPECT_EQ(it.src(), 3);
  EXPECT_EQ(it.dst(), 1);
  ++it;
  EXPECT_EQ(*it, 1);
  EXPECT_EQ(it.time(), 9);
  EXPECT_EQ(it.src(), 1);
  EXPECT_EQ(it.dst(), 4);
  EXPECT_EQ(*g.IncidentUpperBound(1, 0), 1);
  EXPECT_EQ(g.IncidentUpperBound(1, 1), g.incident(1).end());
}

TEST(TemporalGraph, CountIncidentInIndexRangeIsExclusive) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {0, 4, 4}});
  EXPECT_EQ(g.CountIncidentInIndexRange(0, 0, 3), 2);  // Events 1 and 2.
  EXPECT_EQ(g.CountIncidentInIndexRange(0, 0, 1), 0);
  EXPECT_EQ(g.CountIncidentInIndexRange(0, 3, 3), 0);
  EXPECT_EQ(g.CountIncidentInIndexRange(1, 0, 3), 0);  // Node 1 only in e0.
}

TEST(TemporalGraph, CountEdgeEventsInTimeRangeInclusive) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 10}, {0, 1, 20}, {0, 1, 30}, {1, 0, 20}});
  EXPECT_EQ(g.CountEdgeEventsInTimeRange(0, 1, 10, 30), 3);
  EXPECT_EQ(g.CountEdgeEventsInTimeRange(0, 1, 11, 29), 1);
  EXPECT_EQ(g.CountEdgeEventsInTimeRange(0, 1, 20, 20), 1);
  EXPECT_EQ(g.CountEdgeEventsInTimeRange(1, 0, 0, 100), 1);
  EXPECT_EQ(g.CountEdgeEventsInTimeRange(2, 0, 0, 100), 0);
  EXPECT_EQ(g.CountEdgeEventsInTimeRange(0, 1, 31, 10), 0);  // Empty range.
}

TEST(TemporalGraph, MinMaxTime) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 7}, {1, 2, 42}});
  EXPECT_EQ(g.min_time(), 7);
  EXPECT_EQ(g.max_time(), 42);
}

TEST(TemporalGraph, EventDurationsPreserved) {
  TemporalGraphBuilder builder;
  builder.AddEvent(0, 1, 10, /*duration=*/55);
  const TemporalGraph g = builder.Build();
  EXPECT_EQ(g.event(0).duration, 55);
}

}  // namespace
}  // namespace tmotif
