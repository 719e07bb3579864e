#include "core/models/zhao.h"

#include <gtest/gtest.h>

#include "graph/temporal_graph.h"

namespace tmotif {
namespace {

/// Total communication-motif instances over every static form.
std::uint64_t Total(const TemporalGraph& g, const ZhaoConfig& config) {
  std::uint64_t total = 0;
  for (const auto& [form, count] : CountCommunicationMotifs(g, config)) {
    total += count;
  }
  return total;
}

TEST(CommunicationMotifs, OrderDoesNotSplitCounts) {
  // Two triangles with different temporal orders but the same static shape
  // land in one bucket (the defining property vs Kovanen-style models).
  const TemporalGraph g = GraphFromEvents({
      {0, 1, 0}, {1, 2, 5}, {0, 2, 10},          // Order: 01,12,02.
      {10, 12, 100}, {10, 11, 105}, {11, 12, 110}  // Order: 02,01,12.
  });
  ZhaoConfig config{3, 3, 20};
  const auto counts = CountCommunicationMotifs(g, config);
  const StaticForm triangle = CanonicalStaticForm({{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(counts.at(triangle), 2u);
}

TEST(CommunicationMotifs, PairwiseConstraintIsStricterThanChain) {
  // (0,1)@0, (1,2)@8, (0,3)@20 with dt=12: consecutive gaps are 8 and 12,
  // but the node-sharing pair {(0,1), (0,3)} spans 20 > 12 -> rejected.
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {1, 2, 8}, {0, 3, 20}});
  ZhaoConfig config{3, 4, 12};
  EXPECT_EQ(Total(g, config), 0u);
}

TEST(CommunicationMotifs, NonSharingPairsAreUnconstrained) {
  // A path (0,1)@0, (1,2)@9, (2,3)@18 with dt=10: the first and third
  // events share no node, so the 18s total span is fine.
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {1, 2, 9}, {2, 3, 18}});
  ZhaoConfig config{3, 4, 10};
  EXPECT_EQ(Total(g, config), 1u);
}

TEST(CommunicationMotifs, TimingRejectsSlowPairs) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {1, 2, 50}});
  ZhaoConfig config{2, 3, 20};
  EXPECT_EQ(Total(g, config), 0u);
  config.delta_t = 50;
  EXPECT_EQ(Total(g, config), 1u);
}

TEST(CommunicationMotifs, RepetitionsCollapseStatically) {
  // Three events on one edge: C(3,2) = 3 two-event instances, all mapping
  // to the single-edge static form.
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {0, 1, 5}, {0, 1, 10}});
  ZhaoConfig config{2, 2, 100};
  const auto counts = CountCommunicationMotifs(g, config);
  EXPECT_EQ(counts.at("01"), 3u);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(CommunicationMotifs, SubsetOfVanillaWindowCounts) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 0}, {1, 2, 3}, {0, 2, 6}, {2, 1, 9}, {1, 0, 12}});
  ZhaoConfig config{3, 3, 10};
  EnumerationOptions vanilla;
  vanilla.num_events = 3;
  vanilla.max_nodes = 3;
  vanilla.timing = TimingConstraints::OnlyDeltaW(20);  // (k-1) * dt.
  EXPECT_LE(Total(g, config), CountInstances(g, vanilla));
}

}  // namespace
}  // namespace tmotif
