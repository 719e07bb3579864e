#include "algorithms/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/models/model_info.h"
#include "gen/generator.h"
#include "gen/presets.h"
#include "testing/random_graphs.h"

namespace tmotif {
namespace {

TemporalGraph TestGraph(std::uint64_t seed) {
  GeneratorConfig c;
  c.num_nodes = 120;
  c.num_events = 6000;
  c.median_gap_seconds = 25;
  c.prob_reply = 0.3;
  c.prob_repeat = 0.2;
  c.prob_session = 0.2;
  c.seed = seed;
  return GenerateTemporalNetwork(c);
}

struct ParallelCase {
  const char* name;
  int num_events;
  int threads;
  bool consecutive;
  bool cdg;
  Inducedness inducedness;
};

std::ostream& operator<<(std::ostream& os, const ParallelCase& c) {
  return os << c.name;
}

class ParallelCountTest : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelCountTest, MatchesSerialExactly) {
  const ParallelCase& c = GetParam();
  const TemporalGraph g = TestGraph(11);
  EnumerationOptions o;
  o.num_events = c.num_events;
  o.max_nodes = c.num_events;
  o.timing = TimingConstraints::Both(600, 1200);
  o.consecutive_events_restriction = c.consecutive;
  o.cdg_restriction = c.cdg;
  o.inducedness = c.inducedness;

  const MotifCounts serial = CountMotifs(g, o);
  const MotifCounts parallel = CountMotifsParallel(g, o, c.threads);
  EXPECT_EQ(parallel.total(), serial.total());
  EXPECT_EQ(parallel.num_codes(), serial.num_codes());
  for (const auto& [code, count] : serial.SortedByCode()) {
    EXPECT_EQ(parallel.count(code), count) << code;
  }
  EXPECT_EQ(CountInstancesParallel(g, o, c.threads), serial.total());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelCountTest,
    ::testing::Values(
        ParallelCase{"k3_t2", 3, 2, false, false, Inducedness::kNone},
        ParallelCase{"k3_t4", 3, 4, false, false, Inducedness::kNone},
        ParallelCase{"k3_t8", 3, 8, false, false, Inducedness::kNone},
        ParallelCase{"k3_t4_consecutive", 3, 4, true, false,
                     Inducedness::kNone},
        ParallelCase{"k3_t4_cdg", 3, 4, false, true, Inducedness::kNone},
        ParallelCase{"k3_t4_induced", 3, 4, false, false,
                     Inducedness::kStatic},
        ParallelCase{"k4_t4", 4, 4, false, false, Inducedness::kNone},
        ParallelCase{"k2_t3", 2, 3, false, false, Inducedness::kNone}),
    [](const ::testing::TestParamInfo<ParallelCase>& info) {
      return std::string(info.param.name);
    });

TEST(ParallelCount, OneThreadFallsBackToSerial) {
  const TemporalGraph g = TestGraph(5);
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(800);
  EXPECT_EQ(CountMotifsParallel(g, o, 1).total(), CountMotifs(g, o).total());
}

TEST(ParallelCount, EmptyGraph) {
  TemporalGraphBuilder builder;
  builder.SetMinNumNodes(4);
  const TemporalGraph g = builder.Build();
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  EXPECT_EQ(CountInstancesParallel(g, o, 4), 0u);
}

TEST(ParallelCount, MoreThreadsThanEvents) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 2, 2}, {0, 2, 3}});
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(10);
  EXPECT_EQ(CountInstancesParallel(g, o, 16), 1u);
}

TEST(ParallelCountDeathTest, RejectsMaxInstances) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 2, 2}});
  EnumerationOptions o;
  o.num_events = 2;
  o.max_nodes = 3;
  o.max_instances = 5;
  EXPECT_DEATH(CountMotifsParallel(g, o, 2), "max_instances");
}

// Property test: for every thread count — including counts exceeding the
// number of events, which makes MakeShards produce single-event shards and
// fewer shards than threads — the parallel count must equal the serial
// count exactly, table entry by table entry.
TEST(ParallelCount, AnyThreadCountMatchesSerialProperty) {
  const int kThreadCounts[] = {1, 2, 3, 7, 16};
  const int kEventCounts[] = {0, 1, 2, 5, 11, 60};
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::Both(6, 10);
  for (const int num_events : kEventCounts) {
    tmotif::testing::RandomGraphSpec spec;
    spec.num_nodes = 5;
    spec.num_events = num_events;
    spec.max_time = std::max(1, 2 * num_events);
    tmotif::testing::ForEachRandomGraph(
        0x9a7a11e1, 6, spec,
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const MotifCounts serial = CountMotifs(g, o);
          for (const int threads : kThreadCounts) {
            SCOPED_TRACE(::testing::Message()
                         << "events=" << num_events << " threads=" << threads
                         << " seed=" << seed);
            const MotifCounts parallel = CountMotifsParallel(g, o, threads);
            EXPECT_EQ(parallel.total(), serial.total());
            EXPECT_EQ(parallel.num_codes(), serial.num_codes());
            for (const auto& [code, count] : serial.SortedByCode()) {
              EXPECT_EQ(parallel.count(code), count) << code;
            }
            EXPECT_EQ(CountInstancesParallel(g, o, threads), serial.total());
          }
        });
  }
}

// Guard of the devirtualized sharded path: on a larger generated preset
// dataset, every published model preset must produce byte-identical count
// tables under every thread count, including more threads than cores.
TEST(ParallelCount, AllModelPresetsMatchSerialOnPresetGraph) {
  const TemporalGraph g =
      GenerateDataset(DatasetId::kCollegeMsg, /*scale=*/0.2, /*seed=*/1234);
  ASSERT_GT(g.num_events(), 5000);
  const ModelId kModels[] = {ModelId::kKovanen, ModelId::kSong,
                             ModelId::kHulovatyy, ModelId::kParanjape};
  const int kThreadCounts[] = {1, 4, 16};
  for (const ModelId model : kModels) {
    const EnumerationOptions o =
        OptionsForModel(model, /*num_events=*/3, /*max_nodes=*/3,
                        /*delta_c=*/900, /*delta_w=*/1800);
    const MotifCounts serial = CountMotifs(g, o);
    EXPECT_GT(serial.total(), 0u) << GetModelAspects(model).name;
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message() << GetModelAspects(model).name
                                        << " threads=" << threads);
      const MotifCounts parallel = CountMotifsParallel(g, o, threads);
      EXPECT_EQ(parallel.total(), serial.total());
      EXPECT_EQ(parallel.num_codes(), serial.num_codes());
      for (const auto& [code, count] : serial.SortedByCode()) {
        EXPECT_EQ(parallel.count(code), count) << code;
      }
      EXPECT_EQ(CountInstancesParallel(g, o, threads), serial.total());
    }
  }
}

TEST(RangeEnumeration, DisjointRangesPartitionInstances) {
  const TemporalGraph g = TestGraph(21);
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(900);
  const std::uint64_t whole = CountInstances(g, o);
  const EventIndex mid = g.num_events() / 2;
  std::uint64_t left = 0;
  std::uint64_t right = 0;
  EnumerateInstancesInRange(g, o, 0, mid,
                            [&](const MotifInstance&) { ++left; });
  EnumerateInstancesInRange(g, o, mid, g.num_events(),
                            [&](const MotifInstance&) { ++right; });
  EXPECT_EQ(left + right, whole);
  EXPECT_GT(left, 0u);
  EXPECT_GT(right, 0u);
}

}  // namespace
}  // namespace tmotif
