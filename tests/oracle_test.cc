// Differential tests: the fast DFS enumerator stack (EnumerateInstances,
// CountInstances, CountMotifs) and the four model presets are cross-checked
// against the brute-force reference oracle (testing/reference_oracle.h) on
// hundreds of small seeded random graphs, across the full option grid of
// Section 4: k, max_nodes, dC/dW timing, consecutive-events, CDG, all three
// inducedness modes, and duration-aware gaps.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/models/model_info.h"
#include "testing/differential.h"
#include "testing/random_graphs.h"
#include "testing/reference_oracle.h"

namespace tmotif {
namespace {

using testing::DiffAgainstOracle;
using testing::ForEachRandomGraph;
using testing::RandomGraph;
using testing::RandomGraphSpec;
using testing::ReferenceEnumerate;

struct OracleCase {
  const char* name;
  EnumerationOptions options;
  RandomGraphSpec spec;
  int num_graphs = 24;
};

std::ostream& operator<<(std::ostream& os, const OracleCase& c) {
  return os << c.name;
}

EnumerationOptions Opts(int k, int max_nodes, TimingConstraints timing = {},
                        bool consecutive = false, bool cdg = false,
                        Inducedness inducedness = Inducedness::kNone,
                        bool duration_aware = false) {
  EnumerationOptions o;
  o.num_events = k;
  o.max_nodes = max_nodes;
  o.timing = timing;
  o.consecutive_events_restriction = consecutive;
  o.cdg_restriction = cdg;
  o.inducedness = inducedness;
  o.duration_aware_gaps = duration_aware;
  return o;
}

RandomGraphSpec SmallSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 6;
  spec.num_events = 16;
  spec.max_time = 48;
  spec.prob_duplicate_time = 0.25;
  return spec;
}

RandomGraphSpec DurationSpec() {
  RandomGraphSpec spec = SmallSpec();
  spec.max_duration = 12;
  return spec;
}

RandomGraphSpec DenseSpec() {
  // Few nodes + tight time range: lots of repeated edges and ties, the
  // worst case for CDG / inducedness bookkeeping.
  RandomGraphSpec spec;
  spec.num_nodes = 4;
  spec.num_events = 14;
  spec.max_time = 20;
  spec.prob_duplicate_time = 0.4;
  return spec;
}

RandomGraphSpec SaturatedSpec() {
  // 18 events with ties on 6 nodes: scopes reach max_nodes early, so the
  // temporal-window final depth walks the scope's edge runs.
  RandomGraphSpec spec;
  spec.num_nodes = 6;
  spec.num_events = 18;
  spec.max_time = 36;
  spec.prob_duplicate_time = 0.3;
  return spec;
}

class OracleDifferentialTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleDifferentialTest, FastStackMatchesBruteForce) {
  const OracleCase& c = GetParam();
  int checked = 0;
  // Distinct seed stream per case so the grid covers distinct graphs.
  std::uint64_t base_seed = 0x5eed;
  for (const char* p = c.name; *p != '\0'; ++p) {
    base_seed = base_seed * 131 + static_cast<std::uint64_t>(*p);
  }
  ForEachRandomGraph(
      base_seed, c.num_graphs, c.spec,
      [&](std::uint64_t seed, const TemporalGraph& g) {
        const auto report = DiffAgainstOracle(g, c.options);
        EXPECT_TRUE(report.ok())
            << c.name << " seed=" << seed << " spec=" << c.spec.ToString()
            << "\n" << report.Summary();
        ++checked;
      });
  EXPECT_EQ(checked, c.num_graphs);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OracleDifferentialTest,
    ::testing::Values(
        // Event counts k in {1, 2, 3} and node caps.
        OracleCase{"k1", Opts(1, 2), SmallSpec()},
        OracleCase{"k2", Opts(2, 3), SmallSpec()},
        OracleCase{"k2_two_nodes", Opts(2, 2), SmallSpec()},
        OracleCase{"k3", Opts(3, 4), SmallSpec()},
        OracleCase{"k3_three_nodes", Opts(3, 3), SmallSpec()},
        OracleCase{"k3_two_nodes", Opts(3, 2), SmallSpec()},
        // Timing: dC only, dW only, both, and both on a dense graph.
        OracleCase{"k3_dc", Opts(3, 3, TimingConstraints::OnlyDeltaC(8)),
                   SmallSpec()},
        OracleCase{"k3_dw", Opts(3, 3, TimingConstraints::OnlyDeltaW(15)),
                   SmallSpec()},
        OracleCase{"k3_dc_dw", Opts(3, 3, TimingConstraints::Both(8, 12)),
                   SmallSpec()},
        OracleCase{"k3_dc_dw_dense", Opts(3, 4, TimingConstraints::Both(5, 9)),
                   DenseSpec()},
        // Duration-aware dC gaps need events with durations.
        OracleCase{"k3_dc_duration_aware",
                   Opts(3, 3, TimingConstraints::OnlyDeltaC(10), false, false,
                        Inducedness::kNone, true),
                   DurationSpec()},
        // Kovanen consecutive-events restriction, alone and with dC.
        OracleCase{"k3_consecutive", Opts(3, 3, {}, true), SmallSpec()},
        OracleCase{"k3_consecutive_dc",
                   Opts(3, 3, TimingConstraints::OnlyDeltaC(10), true),
                   DenseSpec()},
        // Hulovatyy constrained-dynamic-graphlet restriction.
        OracleCase{"k3_cdg", Opts(3, 3, {}, false, true), DenseSpec()},
        OracleCase{"k3_cdg_dc",
                   Opts(3, 3, TimingConstraints::OnlyDeltaC(10), false, true),
                   DenseSpec()},
        // All three inducedness modes.
        OracleCase{"k3_induced_static",
                   Opts(3, 3, {}, false, false, Inducedness::kStatic),
                   SmallSpec()},
        OracleCase{"k3_induced_static_dense",
                   Opts(3, 4, TimingConstraints::OnlyDeltaW(12), false, false,
                        Inducedness::kStatic),
                   DenseSpec()},
        OracleCase{"k3_induced_temporal",
                   Opts(3, 3, {}, false, false, Inducedness::kTemporalWindow),
                   DenseSpec()},
        OracleCase{"k3_induced_temporal_dw",
                   Opts(3, 3, TimingConstraints::OnlyDeltaW(14), false, false,
                        Inducedness::kTemporalWindow),
                   SmallSpec()},
        // Temporal-window inducedness is checked at every prefix: a
        // two-node pair saturates its scope at the root (only the root
        // check sees another event on the pair at t0), and the CDG and
        // consecutive-events cases combine the prune with the order
        // predicates that can reject an in-scope candidate.
        OracleCase{"k2_pair_induced_temporal",
                   Opts(2, 2, {}, false, false, Inducedness::kTemporalWindow),
                   DenseSpec()},
        OracleCase{"k3_induced_temporal_cdg",
                   Opts(3, 3, TimingConstraints::OnlyDeltaW(14), false, true,
                        Inducedness::kTemporalWindow),
                   DenseSpec()},
        OracleCase{"k3_induced_temporal_consecutive",
                   Opts(3, 3, TimingConstraints::OnlyDeltaC(10), true, false,
                        Inducedness::kTemporalWindow),
                   DenseSpec()},
        // The scope-saturated temporal-window final depth (edge runs of
        // the scope, first scope event after t_prev): a two-node scope
        // for three events, the order predicates with no timing bound,
        // and four events on three nodes.
        OracleCase{"k3_two_nodes_induced_temporal",
                   Opts(3, 2, {}, false, false, Inducedness::kTemporalWindow),
                   SaturatedSpec(), 12},
        OracleCase{"k3_induced_temporal_cdg_untimed",
                   Opts(3, 3, {}, false, true, Inducedness::kTemporalWindow),
                   SaturatedSpec(), 12},
        OracleCase{"k3_induced_temporal_consecutive_untimed",
                   Opts(3, 3, {}, true, false, Inducedness::kTemporalWindow),
                   SaturatedSpec(), 12},
        OracleCase{"k4_three_nodes_induced_temporal_dw",
                   Opts(4, 3, TimingConstraints::OnlyDeltaW(18), false, false,
                        Inducedness::kTemporalWindow),
                   SaturatedSpec(), 12},
        // Temporal-window inducedness x duration-aware gaps (the ROADMAP's
        // uncovered combination): durations shift the dC gap base while the
        // inducedness check spans [t_first, t_last] — the two must compose.
        OracleCase{"k3_induced_temporal_duration_aware",
                   Opts(3, 3, TimingConstraints::OnlyDeltaC(10), false, false,
                        Inducedness::kTemporalWindow, true),
                   DurationSpec()},
        OracleCase{"k3_induced_temporal_dc_dw_duration_aware",
                   Opts(3, 4, TimingConstraints::Both(8, 14), false, false,
                        Inducedness::kTemporalWindow, true),
                   DurationSpec()},
        OracleCase{"k4_induced_temporal_duration_aware",
                   Opts(4, 4, TimingConstraints::OnlyDeltaC(9), false, false,
                        Inducedness::kTemporalWindow, true),
                   DurationSpec(), 8},
        // Everything at once, and one four-event sanity case.
        OracleCase{"k3_kitchen_sink",
                   Opts(3, 3, TimingConstraints::Both(9, 14), true, true,
                        Inducedness::kStatic),
                   DenseSpec()},
        OracleCase{"k4", Opts(4, 4, TimingConstraints::OnlyDeltaW(16)),
                   SmallSpec(), 12}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.name);
    });

// The four published model presets, run through the same differential
// harness: OptionsForModel must produce option sets the oracle agrees with.
class ModelPresetOracleTest : public ::testing::TestWithParam<ModelId> {};

TEST_P(ModelPresetOracleTest, PresetMatchesBruteForce) {
  const ModelId model = GetParam();
  const RandomGraphSpec spec = DenseSpec();
  const EnumerationOptions options =
      OptionsForModel(model, /*num_events=*/3, /*max_nodes=*/3,
                      /*delta_c=*/10, /*delta_w=*/15);
  ForEachRandomGraph(0xab5eed, 24, spec,
                     [&](std::uint64_t seed, const TemporalGraph& g) {
                       const auto report = DiffAgainstOracle(g, options);
                       EXPECT_TRUE(report.ok())
                           << GetModelAspects(model).name << " seed=" << seed
                           << "\n" << report.Summary();
                     });
}

TEST_P(ModelPresetOracleTest, IsValidUnderModelMatchesPresetPredicate) {
  // Figure 1's validity check must agree with IsValidInstance under the
  // preset options on every 3-subset of events. IsValidUnderModel imposes
  // no node cap beyond the structural k + 1 maximum, so mirror that here.
  const ModelId model = GetParam();
  const EnumerationOptions options =
      OptionsForModel(model, 3, /*max_nodes=*/4, /*delta_c=*/10,
                      /*delta_w=*/15);
  RandomGraphSpec spec = DenseSpec();
  spec.num_events = 10;
  ForEachRandomGraph(0xf161, 12, spec, [&](std::uint64_t seed,
                                           const TemporalGraph& g) {
    for (EventIndex a = 0; a < g.num_events(); ++a) {
      for (EventIndex b = a + 1; b < g.num_events(); ++b) {
        for (EventIndex c = b + 1; c < g.num_events(); ++c) {
          const std::vector<EventIndex> candidate = {a, b, c};
          EXPECT_EQ(IsValidUnderModel(g, candidate, model, 10, 15),
                    IsValidInstance(g, candidate, options))
              << GetModelAspects(model).name << " seed=" << seed
              << " candidate=" << testing::DescribeInstance(g, candidate);
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelPresetOracleTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const ::testing::TestParamInfo<ModelId>& info) {
                           switch (info.param) {
                             case ModelId::kKovanen: return "Kovanen";
                             case ModelId::kSong: return "Song";
                             case ModelId::kHulovatyy: return "Hulovatyy";
                             case ModelId::kParanjape: return "Paranjape";
                           }
                           return "Unknown";
                         });

// Pinned micro-case: the oracle itself on a hand-checkable graph. Events:
// 0->1@1, 1->2@2, 0->2@3; with dW=10 and k=3 the only instance is the
// temporal triangle {0,1,2} with code 011202.
TEST(ReferenceOracle, HandCheckedTriangle) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 2, 2}, {0, 2, 3}});
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(10);
  const auto instances = ReferenceEnumerate(g, o);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].event_indices, (std::vector<EventIndex>{0, 1, 2}));
  EXPECT_EQ(instances[0].code, "011202");
}

// Simultaneous events can never share an instance (strictly increasing
// timestamps); the oracle and the enumerator must agree on that exclusion.
TEST(ReferenceOracle, SimultaneousEventsExcluded) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 5}, {1, 2, 5}, {2, 3, 5}, {0, 2, 9}});
  EnumerationOptions o;
  o.num_events = 2;
  o.max_nodes = 3;
  const auto report = DiffAgainstOracle(g, o);
  EXPECT_TRUE(report.ok()) << report.Summary();
  for (const auto& instance : ReferenceEnumerate(g, o)) {
    EXPECT_LT(g.event(instance.event_indices[0]).time,
              g.event(instance.event_indices[1]).time);
  }
}

// Temporal-window inducedness on a saturated four-node scope under the
// consecutive-events restriction: the first scope event after the prefix
// (0->1 @5) is rejected because node 0 met node 4 at 4, yet it still lies
// in the window of every later scope event, such as the disjoint 2->3 @6.
// The saturated final depth must end its merge at 0->1 @5.
TEST(ReferenceOracle, RejectedScopeEventStillIntrudes) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 4, 4}, {0, 1, 5}, {2, 3, 6}});
  EnumerationOptions o;
  o.num_events = 4;
  o.max_nodes = 4;
  o.consecutive_events_restriction = true;
  o.inducedness = Inducedness::kTemporalWindow;
  const auto report = DiffAgainstOracle(g, o);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ReferenceOracle, EmptyAndUndersizedGraphs) {
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  TemporalGraphBuilder builder;
  builder.SetMinNumNodes(3);
  EXPECT_EQ(testing::ReferenceCount(builder.Build(), o), 0u);
  const TemporalGraph two = GraphFromEvents({{0, 1, 1}, {1, 2, 2}});
  EXPECT_EQ(testing::ReferenceCount(two, o), 0u);
  EXPECT_TRUE(DiffAgainstOracle(two, o).ok());
}

}  // namespace
}  // namespace tmotif
