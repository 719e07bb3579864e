// Kovanen et al. [11], the first temporal motif model: a connected, totally
// ordered event set where every consecutive pair of events is at most dC
// apart and each node's events inside the motif are consecutive among that
// node's events in the whole graph (node-based temporal inducedness). No
// static inducedness, no dW window. The `kKovanen` preset of
// `OptionsForModel` realizes it.

#include <gtest/gtest.h>

#include "core/counter.h"
#include "core/models/model_info.h"
#include "graph/temporal_graph.h"

namespace tmotif {
namespace {

MotifCounts CountKovanen(const TemporalGraph& graph, int num_events,
                         int max_nodes, Timestamp delta_c) {
  return CountMotifs(graph, OptionsForModel(ModelId::kKovanen, num_events,
                                            max_nodes, delta_c, 0));
}

TEST(KovanenPreset, EnablesConsecutiveRestrictionAndDeltaC) {
  const EnumerationOptions o =
      OptionsForModel(ModelId::kKovanen, 3, 3, 1500, 0);
  EXPECT_TRUE(o.consecutive_events_restriction);
  EXPECT_EQ(*o.timing.delta_c, 1500);
  EXPECT_FALSE(o.timing.delta_w.has_value());
  EXPECT_EQ(o.inducedness, Inducedness::kNone);
}

TEST(KovanenCount, AcceptsChainWithinDeltaC) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {1, 2, 3}, {2, 0, 6}});
  EXPECT_EQ(CountKovanen(g, 3, 3, 5).total(), 1u);
}

TEST(KovanenCount, RejectsChainBreakingDeltaC) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {1, 2, 6}, {2, 0, 8}});
  EXPECT_EQ(CountKovanen(g, 3, 3, 5).total(), 0u);
}

TEST(KovanenCount, NodeBasedTemporalInducedness) {
  // Kovanen's own example plus a distractor touching node 0 at t=9:
  // the (0,1,5)(1,2,8)(0,1,12) motif is invalidated.
  const TemporalGraph with_intruder = GraphFromEvents(
      {{0, 1, 5}, {1, 2, 8}, {0, 3, 9}, {0, 1, 12}});
  const TemporalGraph without_intruder = GraphFromEvents(
      {{0, 1, 5}, {1, 2, 8}, {0, 1, 12}});
  EXPECT_EQ(CountKovanen(without_intruder, 3, 3, 10).count("011201"), 1u);
  EXPECT_EQ(CountKovanen(with_intruder, 3, 3, 10).count("011201"), 0u);
}

TEST(KovanenCount, NonInducedStaticallyIsAllowed) {
  // A diagonal edge in the static projection does NOT invalidate a Kovanen
  // motif (no static inducedness in this model): triangle events plus an
  // old diagonal repetition far in the past.
  const TemporalGraph g = GraphFromEvents(
      {{2, 1, -1000}, {0, 1, 0}, {1, 2, 3}, {0, 2, 6}});
  EXPECT_EQ(CountKovanen(g, 3, 3, 5).count("011202"), 1u);
}

TEST(KovanenCount, StarBurstYieldsLinearlyManyMotifs) {
  // Section 4.1: the restriction keeps a star node's motifs linear in its
  // burst length instead of quadratic.
  TemporalGraphBuilder builder;
  for (int i = 0; i < 20; ++i) builder.AddEvent(0, i + 1, i);
  const TemporalGraph g = builder.Build();

  EXPECT_EQ(CountKovanen(g, 2, 3, 100).total(), 19u);  // Only adjacent.

  EnumerationOptions unrestricted =
      OptionsForModel(ModelId::kKovanen, 2, 3, 100, 0);
  unrestricted.consecutive_events_restriction = false;
  EXPECT_EQ(CountInstances(g, unrestricted), 190u);  // C(20,2).
}

TEST(KovanenCount, AmplifiesAskReplyOverStars) {
  // A conversation 0->1, 1->2 (another chat), 1->0 (the reply): the
  // ask-reply motif survives; star-ish alternatives that skip the reply
  // are filtered. This is the mechanism behind the paper's Table 3.
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 0}, {1, 2, 2}, {1, 0, 4}, {1, 3, 6}});
  const MotifCounts counts = CountKovanen(g, 3, 3, 10);
  EXPECT_EQ(counts.count("011210"), 1u);  // Ask-reply with a middle chat.
}

}  // namespace
}  // namespace tmotif
