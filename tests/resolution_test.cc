#include "graph/resolution.h"

#include <gtest/gtest.h>

#include "graph/graph_stats.h"

namespace tmotif {
namespace {

TEST(DegradeResolution, FloorsTimestampsToBuckets) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 0}, {1, 2, 299}, {2, 0, 300}, {0, 2, 601}});
  const TemporalGraph degraded = DegradeResolution(g, 300);
  ASSERT_EQ(degraded.num_events(), 4);
  EXPECT_EQ(degraded.event(0).time, 0);
  EXPECT_EQ(degraded.event(1).time, 0);
  EXPECT_EQ(degraded.event(2).time, 300);
  EXPECT_EQ(degraded.event(3).time, 600);
}

TEST(DegradeResolution, CreatesTimestampTies) {
  // The paper's Section 5.1.2 setup: degrading to 300s makes events share
  // timestamps, shrinking the unique-timestamp fraction.
  TemporalGraphBuilder builder;
  for (int i = 0; i < 100; ++i) {
    builder.AddEvent(i % 5, (i + 1) % 5, i * 40);  // 40s apart.
  }
  const TemporalGraph g = builder.Build();
  const GraphStats before = ComputeStats(g);
  const GraphStats after = ComputeStats(DegradeResolution(g, 300));
  EXPECT_DOUBLE_EQ(before.frac_events_unique_timestamp, 1.0);
  EXPECT_LT(after.frac_events_unique_timestamp, 0.2);
}

TEST(DegradeResolution, PreservesStructure) {
  const TemporalGraph g = GraphFromEvents({{3, 7, 1234}, {7, 9, 1567}});
  const TemporalGraph degraded = DegradeResolution(g, 300);
  EXPECT_EQ(degraded.event(0).src, 3);
  EXPECT_EQ(degraded.event(0).dst, 7);
  EXPECT_EQ(degraded.num_nodes(), g.num_nodes());
  EXPECT_EQ(degraded.num_static_edges(), g.num_static_edges());
}

TEST(DegradeResolution, NegativeTimesFloorTowardsMinusInfinity) {
  const TemporalGraph g = GraphFromEvents({{0, 1, -1}, {1, 2, -300}});
  const TemporalGraph degraded = DegradeResolution(g, 300);
  EXPECT_EQ(degraded.event(0).time, -300);
  EXPECT_EQ(degraded.event(1).time, -300);
}

TEST(SliceTimeRange, KeepsInclusiveRange) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 10}, {1, 2, 20}, {2, 0, 30}, {0, 2, 40}});
  const TemporalGraph sliced = SliceTimeRange(g, 20, 30);
  ASSERT_EQ(sliced.num_events(), 2);
  EXPECT_EQ(sliced.event(0).time, 20);
  EXPECT_EQ(sliced.event(1).time, 30);
  EXPECT_EQ(sliced.num_nodes(), g.num_nodes());
}

TEST(SliceTimeRange, EmptyResultIsValid) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 10}});
  const TemporalGraph sliced = SliceTimeRange(g, 100, 200);
  EXPECT_EQ(sliced.num_events(), 0);
}

}  // namespace
}  // namespace tmotif
