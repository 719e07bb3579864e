// Tests of the testing/ support library itself: the seeded random-graph
// fixtures must be deterministic and honor their spec, and the differential
// harness must actually flag discrepancies (a broken oracle harness would
// silently pass everything).

#include <gtest/gtest.h>

#include <set>

#include "testing/differential.h"
#include "testing/random_graphs.h"
#include "testing/reference_oracle.h"

namespace tmotif {
namespace {

using testing::RandomGraph;
using testing::RandomGraphSpec;

TEST(RandomGraphFixture, DeterministicInSeed) {
  RandomGraphSpec spec;
  const TemporalGraph a = RandomGraph(7, spec);
  const TemporalGraph b = RandomGraph(7, spec);
  ASSERT_EQ(a.num_events(), b.num_events());
  for (EventIndex i = 0; i < a.num_events(); ++i) {
    EXPECT_EQ(a.event(i), b.event(i)) << "event " << i;
  }
  const TemporalGraph c = RandomGraph(8, spec);
  bool any_diff = a.num_events() != c.num_events();
  for (EventIndex i = 0; !any_diff && i < a.num_events(); ++i) {
    any_diff = !(a.event(i) == c.event(i));
  }
  EXPECT_TRUE(any_diff) << "different seeds should give different graphs";
}

TEST(RandomGraphFixture, HonorsSpec) {
  RandomGraphSpec spec;
  spec.num_nodes = 5;
  spec.num_events = 40;
  spec.max_time = 30;
  spec.max_duration = 9;
  const TemporalGraph g = RandomGraph(123, spec);
  EXPECT_EQ(g.num_nodes(), 5);
  ASSERT_EQ(g.num_events(), 40);
  for (const Event& e : g.events()) {
    EXPECT_GE(e.src, 0);
    EXPECT_LT(e.src, 5);
    EXPECT_GE(e.dst, 0);
    EXPECT_LT(e.dst, 5);
    EXPECT_NE(e.src, e.dst);
    EXPECT_GE(e.time, 0);
    EXPECT_LE(e.time, 30);
    EXPECT_GE(e.duration, 0);
    EXPECT_LE(e.duration, 9);
  }
}

TEST(RandomGraphFixture, DuplicateTimesActuallyOccur) {
  RandomGraphSpec spec;
  spec.num_events = 30;
  spec.prob_duplicate_time = 0.5;
  const TemporalGraph g = RandomGraph(99, spec);
  std::set<Timestamp> distinct;
  for (const Event& e : g.events()) distinct.insert(e.time);
  EXPECT_LT(distinct.size(), g.events().size())
      << "spec asked for timestamp collisions but none were generated";
}

TEST(RandomGraphFixture, ForEachRandomGraphCoversSeedRange) {
  std::vector<std::uint64_t> seeds;
  testing::ForEachRandomGraph(100, 5, RandomGraphSpec{},
                              [&](std::uint64_t seed, const TemporalGraph&) {
                                seeds.push_back(seed);
                              });
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{100, 101, 102, 103, 104}));
}

TEST(DifferentialHarness, TimingActuallyPrunes) {
  // Guard against a vacuous grid: a tight dW must remove instances relative
  // to the unbounded run on a typical fixture graph, i.e. the option knobs
  // under differential test really bite on these graphs.
  const TemporalGraph g = RandomGraph(5, RandomGraphSpec{});
  EnumerationOptions loose;
  loose.num_events = 2;
  loose.max_nodes = 3;
  EnumerationOptions tight = loose;
  tight.timing = TimingConstraints::OnlyDeltaW(2);
  EXPECT_LT(testing::ReferenceCount(g, tight),
            testing::ReferenceCount(g, loose));
  EXPECT_GT(testing::ReferenceCount(g, tight), 0u);
}

TEST(DifferentialHarness, ReportSummarizesMismatches) {
  testing::DifferentialReport report;
  report.fast_count = 3;
  report.oracle_count = 4;
  EXPECT_TRUE(report.ok());
  report.mismatches.push_back("missing instance (oracle only): [#2: 1->3 @5]");
  EXPECT_FALSE(report.ok());
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("fast=3 oracle=4"), std::string::npos) << summary;
  EXPECT_NE(summary.find("missing instance"), std::string::npos) << summary;
}

TEST(DifferentialHarness, DescribeInstanceIsReadable) {
  const TemporalGraph g = GraphFromEvents({{1, 2, 3}, {2, 4, 7, 5}});
  EXPECT_EQ(testing::DescribeEvent(g, 0), "#0: 1->2 @3");
  EXPECT_EQ(testing::DescribeEvent(g, 1), "#1: 2->4 @7 (+5)");
  EXPECT_EQ(testing::DescribeInstance(g, {0, 1}),
            "[#0: 1->2 @3, #1: 2->4 @7 (+5)]");
}

}  // namespace
}  // namespace tmotif
