#include "core/enumerator.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/counter.h"
#include "core/models/model_info.h"
#include "graph/temporal_graph.h"
#include "testing/reference_oracle.h"

namespace tmotif {
namespace {

EnumerationOptions Opts(int k, int max_nodes) {
  EnumerationOptions o;
  o.num_events = k;
  o.max_nodes = max_nodes;
  return o;
}

TEST(Enumerator, SingleEventInstances) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 2, 2}, {0, 1, 3}});
  EnumerationOptions o = Opts(1, 2);
  EXPECT_EQ(CountInstances(g, o), 3u);
}

TEST(Enumerator, CountsAllConnectedPairsWithoutTiming) {
  // Events: (0,1,1), (1,2,2), (3,4,3). The third is disconnected from both.
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 2, 2}, {3, 4, 3}});
  EXPECT_EQ(CountInstances(g, Opts(2, 3)), 1u);
}

TEST(Enumerator, DeltaCBoundsConsecutiveGaps) {
  // Gaps 6 and 4.
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {1, 2, 6}, {0, 2, 10}});
  EnumerationOptions o = Opts(3, 3);
  o.timing = TimingConstraints::OnlyDeltaC(5);
  EXPECT_EQ(CountInstances(g, o), 0u);
  o.timing = TimingConstraints::OnlyDeltaC(6);
  EXPECT_EQ(CountInstances(g, o), 1u);
}

TEST(Enumerator, DeltaCIsInclusive) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {1, 0, 5}});
  EnumerationOptions o = Opts(2, 2);
  o.timing = TimingConstraints::OnlyDeltaC(5);
  EXPECT_EQ(CountInstances(g, o), 1u);
  o.timing = TimingConstraints::OnlyDeltaC(4);
  EXPECT_EQ(CountInstances(g, o), 0u);
}

TEST(Enumerator, DeltaWBoundsTotalSpanInclusive) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {1, 2, 6}, {0, 2, 10}});
  EnumerationOptions o = Opts(3, 3);
  o.timing = TimingConstraints::OnlyDeltaW(10);
  EXPECT_EQ(CountInstances(g, o), 1u);
  o.timing = TimingConstraints::OnlyDeltaW(9);
  EXPECT_EQ(CountInstances(g, o), 0u);
}

// Section 4.5's example: events at 1, 9, 10 are valid under dW=10 but not
// under dC=5 (the first two events are 8 apart).
TEST(Enumerator, Section45Example) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 2, 9}, {2, 0, 10}});
  EnumerationOptions o = Opts(3, 3);
  o.timing = TimingConstraints::OnlyDeltaW(10);
  EXPECT_EQ(CountInstances(g, o), 1u);
  o.timing = TimingConstraints::OnlyDeltaC(5);
  EXPECT_EQ(CountInstances(g, o), 0u);
}

TEST(Enumerator, EqualTimestampsNeverCoOccur) {
  // The paper assumes a total ordering: events sharing a timestamp cannot
  // be part of one motif.
  const TemporalGraph g = GraphFromEvents({{0, 1, 10}, {1, 2, 10}, {0, 2, 20}});
  EXPECT_EQ(CountInstances(g, Opts(3, 3)), 0u);
  EXPECT_EQ(CountInstances(g, Opts(2, 3)), 2u);  // {e0,e2} and {e1,e2}.
}

TEST(Enumerator, MaxNodesCapExcludesWideStars) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {0, 2, 2}, {0, 3, 3}});
  EXPECT_EQ(CountInstances(g, Opts(3, 3)), 0u);   // 4 nodes needed.
  EXPECT_EQ(CountInstances(g, Opts(3, 4)), 1u);   // 010203.
}

TEST(Enumerator, GrowthMayAttachToAnyEarlierEvent) {
  // Third event shares a node with the first event only.
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 2, 2}, {0, 3, 3}});
  EXPECT_EQ(CountInstances(g, Opts(3, 4)), 1u);
}

TEST(Enumerator, EmitsCanonicalCodes) {
  const TemporalGraph g = GraphFromEvents({{5, 9, 1}, {9, 7, 2}, {5, 7, 3}});
  std::vector<std::string> codes;
  EnumerateInstances(g, Opts(3, 3), [&](const MotifInstance& m) {
    codes.emplace_back(m.code);
  });
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], "011202");
}

TEST(Enumerator, VisitorSeesSortedEventIndices) {
  const TemporalGraph g =
      GraphFromEvents({{0, 1, 1}, {0, 1, 2}, {0, 1, 3}, {0, 1, 4}});
  EnumerateInstances(g, Opts(3, 2), [&](const MotifInstance& m) {
    ASSERT_EQ(m.num_events, 3);
    EXPECT_LT(m.event_indices[0], m.event_indices[1]);
    EXPECT_LT(m.event_indices[1], m.event_indices[2]);
  });
  EXPECT_EQ(CountInstances(g, Opts(3, 2)), 4u);  // C(4,3).
}

// Paper Section 4.1 Kovanen example: motif (u,v,5), (v,w,8), (u,v,12);
// no event containing u may occur in [5,12], none containing v in (8,12).
TEST(ConsecutiveRestriction, PaperExampleValidWithoutIntruder) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 5}, {1, 2, 8}, {0, 1, 12}});
  EnumerationOptions o = Opts(3, 3);
  o.timing = TimingConstraints::OnlyDeltaC(10);
  o.consecutive_events_restriction = true;
  EXPECT_EQ(CountInstances(g, o), 1u);
}

TEST(ConsecutiveRestriction, IntruderOnUInvalidatesMotif) {
  // (0,3,9) touches u=0 between its motif events at 5 and 12.
  const TemporalGraph g =
      GraphFromEvents({{0, 1, 5}, {1, 2, 8}, {0, 3, 9}, {0, 1, 12}});
  EnumerationOptions o = Opts(3, 4);
  o.timing = TimingConstraints::OnlyDeltaC(10);

  MotifCounts unrestricted = CountMotifs(g, o);
  o.consecutive_events_restriction = true;
  MotifCounts restricted = CountMotifs(g, o);

  // Unrestricted: {e0,e1,e3}, {e0,e1,e2}, {e0,e2,e3} are connected
  // ({e1,e2,e3} is not: (0,3) shares no node with (1,2)).
  EXPECT_EQ(unrestricted.total(), 3u);
  // Restricted: only {e0,e1,e2} survives; {e0,e1,e3} has the intruder on
  // node 0, {e0,e2,e3} has e1 intruding on node 1.
  EXPECT_EQ(restricted.total(), 1u);
  EXPECT_EQ(restricted.count("011203"), 1u);  // (0,1),(1,2),(0,3).
  EXPECT_EQ(restricted.count("011201"), 0u);  // The ask-reply was removed.
}

TEST(ConsecutiveRestriction, StarNodeKeepsOnlyConsecutiveRuns) {
  // A star 0->1, 0->2, 0->3, 0->4: without the restriction every pair of
  // events forms a 2-event motif (C(4,2) = 6); with it, only consecutive
  // runs survive (3).
  const TemporalGraph g =
      GraphFromEvents({{0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {0, 4, 4}});
  EnumerationOptions o = Opts(2, 3);
  EXPECT_EQ(CountInstances(g, o), 6u);
  o.consecutive_events_restriction = true;
  EXPECT_EQ(CountInstances(g, o), 3u);
}

// Paper Section 5.1.2 / 4.1 CDG example: events (a,b,2),(b,c,4),(c,a,5),
// (c,a,6). The triangle {1st, 2nd, 4th} skips the (c,a,5) event; the
// constrained-dynamic-graphlet restriction rejects it because edge (c,a)
// occurred between (b,c,4) and (c,a,6).
TEST(CdgRestriction, PaperTriangleExample) {
  const TemporalGraph g =
      GraphFromEvents({{0, 1, 2}, {1, 2, 4}, {2, 0, 5}, {2, 0, 6}});
  EnumerationOptions o = Opts(3, 3);

  // Without CDG both triangles exist ({e0,e1,e2} and {e0,e1,e3}).
  std::vector<std::vector<EventIndex>> instances;
  EnumerateInstances(g, o, [&](const MotifInstance& m) {
    instances.emplace_back(m.event_indices, m.event_indices + m.num_events);
  });
  int triangles = 0;
  for (const auto& inst : instances) {
    if (inst == std::vector<EventIndex>{0, 1, 2} ||
        inst == std::vector<EventIndex>{0, 1, 3}) {
      ++triangles;
    }
  }
  EXPECT_EQ(triangles, 2);

  // With CDG the skipping triangle disappears.
  o.cdg_restriction = true;
  instances.clear();
  EnumerateInstances(g, o, [&](const MotifInstance& m) {
    instances.emplace_back(m.event_indices, m.event_indices + m.num_events);
  });
  bool has_skipping = false;
  bool has_tight = false;
  for (const auto& inst : instances) {
    if (inst == std::vector<EventIndex>{0, 1, 3}) has_skipping = true;
    if (inst == std::vector<EventIndex>{0, 1, 2}) has_tight = true;
  }
  EXPECT_TRUE(has_tight);
  EXPECT_FALSE(has_skipping);
}

TEST(CdgRestriction, RepetitionsAreExempt) {
  // Consecutive motif events on the SAME edge are not constrained.
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {0, 1, 2}, {0, 1, 3}});
  EnumerationOptions o = Opts(2, 2);
  o.cdg_restriction = true;
  // All three pairs valid: {e0,e1}, {e1,e2}, {e0,e2} (same edge).
  EXPECT_EQ(CountInstances(g, o), 3u);
}

TEST(CdgRestriction, NoRepeatedEdgesMeansNoOp) {
  // Bitcoin-like: every edge occurs once -> CDG equals vanilla (Table 4).
  const TemporalGraph g =
      GraphFromEvents({{0, 1, 1}, {1, 2, 2}, {2, 0, 3}, {0, 2, 4}});
  EnumerationOptions o = Opts(3, 3);
  const std::uint64_t vanilla = CountInstances(g, o);
  o.cdg_restriction = true;
  EXPECT_EQ(CountInstances(g, o), vanilla);
}

TEST(StaticInducedness, DiagonalEdgeBreaksSquare) {
  // Square 0->1->2->3->0 over time; the diagonal 0->2 exists in the static
  // projection, so the square is not induced (Section 4.1's example).
  const std::vector<Event> square = {
      {0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 0, 4}};
  EnumerationOptions o = Opts(4, 4);
  o.inducedness = Inducedness::kStatic;

  EXPECT_EQ(CountInstances(GraphFromEvents(square), o), 1u);

  std::vector<Event> with_diagonal = square;
  with_diagonal.push_back({0, 2, 100});
  EXPECT_EQ(CountInstances(GraphFromEvents(with_diagonal), o), 0u);
}

TEST(StaticInducedness, HulovatyyTriangleCanSkipEvents) {
  // (a,b,2),(b,c,4),(c,a,5),(c,a,6): the triangle using the 4th event is a
  // valid static-induced motif; only temporal-window inducedness or CDG
  // reject it.
  const TemporalGraph g =
      GraphFromEvents({{0, 1, 2}, {1, 2, 4}, {2, 0, 5}, {2, 0, 6}});
  EnumerationOptions o = Opts(3, 3);
  o.inducedness = Inducedness::kStatic;
  std::uint64_t skipping = 0;
  EnumerateInstances(g, o, [&](const MotifInstance& m) {
    const std::vector<EventIndex> inst(m.event_indices,
                                       m.event_indices + m.num_events);
    if (inst == std::vector<EventIndex>{0, 1, 3}) ++skipping;
  });
  EXPECT_EQ(skipping, 1u);
}

TEST(TemporalWindowInducedness, RejectsSkippedInteriorEvents) {
  const TemporalGraph g =
      GraphFromEvents({{0, 1, 2}, {1, 2, 4}, {2, 0, 5}, {2, 0, 6}});
  EnumerationOptions o = Opts(3, 3);
  o.inducedness = Inducedness::kTemporalWindow;
  std::vector<std::vector<EventIndex>> instances;
  EnumerateInstances(g, o, [&](const MotifInstance& m) {
    instances.emplace_back(m.event_indices, m.event_indices + m.num_events);
  });
  // {0,1,2} is exactly the induced window; {0,1,3} skips event 2; {1,2,3}
  // is also exactly induced on nodes {1,2,0}... it includes all events in
  // [4,6] among {0,1,2}, which are events 1,2,3.
  EXPECT_EQ(instances.size(), 2u);
}

TEST(DurationAwareGaps, MeasuresFromEventEnd) {
  // Event 0 lasts 10s; the 8s start gap becomes negative end-to-start.
  const TemporalGraph g = GraphFromEvents({{0, 1, 0, 10}, {1, 2, 8}});
  EnumerationOptions o = Opts(2, 3);
  o.timing = TimingConstraints::OnlyDeltaC(5);
  EXPECT_EQ(CountInstances(g, o), 0u);  // Start-to-start gap 8 > 5.
  o.duration_aware_gaps = true;
  EXPECT_EQ(CountInstances(g, o), 1u);  // End-to-start gap -2 <= 5.
}

TEST(Enumerator, TimeBoundsSaturateNearMaxTimestamp) {
  // A temporal triangle plus a repeat, once at t = 1000..1003 and once
  // shifted to just below the largest Timestamp: t0 + dW, t_prev + dC and
  // the duration-aware t_prev + duration + dC overflow there, and must
  // clamp instead — in the engine and in the reference predicate alike.
  const auto triangle = [](Timestamp base) {
    return GraphFromEvents({{0, 1, base, 1000},
                            {1, 2, base + 1, 1000},
                            {2, 0, base + 2, 1000},
                            {0, 1, base + 3, 1000}});
  };
  const TemporalGraph low = triangle(1000);
  const TemporalGraph high =
      triangle(std::numeric_limits<Timestamp>::max() - 807);
  EnumerationOptions window = Opts(3, 3);
  window.timing = TimingConstraints::OnlyDeltaW(3000);
  window.inducedness = Inducedness::kTemporalWindow;
  EnumerationOptions dc_dw = Opts(3, 3);
  dc_dw.timing = TimingConstraints::Both(1500, 3000);
  // dC = 0 admits a gap only through the previous event's duration.
  EnumerationOptions durations = Opts(3, 3);
  durations.timing = TimingConstraints::OnlyDeltaC(0);
  durations.duration_aware_gaps = true;
  const struct {
    const char* name;
    EnumerationOptions options;
    std::uint64_t expected;
  } configs[] = {
      {"paranjape", OptionsForModel(ModelId::kParanjape, 3, 3, 0, 3000), 2},
      {"window", window, 2},
      {"dc_dw", dc_dw, 4},
      {"durations", durations, 4},
  };
  for (const auto& config : configs) {
    const MotifCounts at_low = CountMotifs(low, config.options);
    const MotifCounts at_high = CountMotifs(high, config.options);
    EXPECT_EQ(at_low.total(), config.expected) << config.name;
    EXPECT_EQ(at_high.raw(), at_low.raw()) << config.name;
    EXPECT_EQ(testing::ReferenceCountMotifs(high, config.options).raw(),
              at_low.raw())
        << config.name;
  }
}

TEST(IsValidInstance, AgreesWithHandExamples) {
  const TemporalGraph g =
      GraphFromEvents({{0, 1, 5}, {1, 2, 8}, {0, 3, 9}, {0, 1, 12}});
  EnumerationOptions o = Opts(3, 4);
  o.timing = TimingConstraints::OnlyDeltaC(10);
  EXPECT_TRUE(IsValidInstance(g, {0, 1, 3}, o));
  o.consecutive_events_restriction = true;
  EXPECT_FALSE(IsValidInstance(g, {0, 1, 3}, o));
  EXPECT_TRUE(IsValidInstance(g, {0, 1, 2}, o));
}

TEST(IsValidInstance, RejectsStructurallyBroken) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {2, 3, 2}, {0, 1, 3}});
  EnumerationOptions o = Opts(2, 3);
  EXPECT_FALSE(IsValidInstance(g, {0, 1}, o));   // Disconnected.
  EXPECT_FALSE(IsValidInstance(g, {2, 0}, o));   // Not ascending.
  EXPECT_FALSE(IsValidInstance(g, {0, 0}, o));   // Duplicate.
  EXPECT_TRUE(IsValidInstance(g, {0, 2}, o));
}

}  // namespace
}  // namespace tmotif
