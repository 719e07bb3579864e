// Preset-shaped differential for the k == 3 fast paths: Song et al.'s
// preset (the plain timespan star sweep), Paranjape et al.'s (static
// inducedness), Hulovatyy et al.'s (static + dC) and the vanilla
// dC = dW / 2 config on the CollegeMsg-shaped graph that the pipeline
// benchmark counts (gen/presets.h), dispatched through
// CountMotifs / CountMotifsInRange against the DFS forced through
// internal::EnumerateCore. The benchmark's own reference tables come from
// the same fast path, so this is the check that sees a bug in it on
// realistic data: hubs, heavy pair reuse, timestamp ties, and static
// triangles whose third pair lies outside a counted range.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/counter.h"
#include "core/enumerate_core.h"
#include "core/fast_paths/fast_path.h"
#include "core/models/model_info.h"
#include "core/packed_table.h"
#include "gen/presets.h"
#include "graph/temporal_graph.h"

namespace tmotif {
namespace {

MotifCounts ForcedGenericCount(const TemporalGraph& graph,
                               const EnumerationOptions& options,
                               EventIndex first_begin, EventIndex first_end) {
  internal::PackedMotifTable table;
  internal::PackedTableSink sink{&table};
  internal::EnumerateCore(graph, options, first_begin, first_end, sink);
  MotifCounts counts;
  counts.AddTable(table);
  return counts;
}

/// Events [begin, begin + size) of `graph` as a graph of their own: the
/// shape of one streaming window.
TemporalGraph Slice(const TemporalGraph& graph, EventIndex begin,
                    EventIndex size) {
  TemporalGraphBuilder builder;
  for (EventIndex i = begin; i < begin + size; ++i) {
    builder.AddEvent(graph.event(i));
  }
  return builder.Build();
}

EnumerationOptions Paranjape(Timestamp delta_w) {
  return OptionsForModel(ModelId::kParanjape, /*num_events=*/3,
                         /*max_nodes=*/3, /*delta_c=*/0, delta_w);
}

EnumerationOptions Song(Timestamp delta_w) {
  return OptionsForModel(ModelId::kSong, /*num_events=*/3, /*max_nodes=*/3,
                         /*delta_c=*/0, delta_w);
}

EnumerationOptions Hulovatyy(Timestamp delta_c) {
  return OptionsForModel(ModelId::kHulovatyy, /*num_events=*/3,
                         /*max_nodes=*/3, delta_c, /*delta_w=*/0);
}

EnumerationOptions Vanilla(TimingConstraints timing) {
  EnumerationOptions options;
  options.num_events = 3;
  options.max_nodes = 3;
  options.timing = timing;
  return options;
}

struct PresetCase {
  const char* name;
  const TemporalGraph* graph;
  EnumerationOptions options;
};

constexpr EventIndex kWindow = 2048;

TemporalGraph CollegeMsg() {
  return GenerateDataset(DatasetId::kCollegeMsg, 0.1, /*seed=*/3);
}

/// The middle kWindow events of `graph`.
TemporalGraph WindowSlice(const TemporalGraph& graph) {
  return Slice(graph, (graph.num_events() - kWindow) / 2, kWindow);
}

/// Whole-graph and range counts of `c`, fast path against the DFS.
void ExpectFastPathMatchesDfs(const PresetCase& c) {
  ASSERT_TRUE(internal::fast_paths::FastPathSupported(c.options)) << c.name;
  const EventIndex events = c.graph->num_events();
  const MotifCounts fast = CountMotifs(*c.graph, c.options);
  EXPECT_GT(fast.total(), 0u) << c.name;
  EXPECT_EQ(fast.SortedByCode(),
            ForcedGenericCount(*c.graph, c.options, 0, events).SortedByCode())
      << c.name;
  // Ranges: suffix differences whose later suffix leaves some static
  // triangles with a third pair outside it.
  const std::vector<std::pair<EventIndex, EventIndex>> ranges = {
      {events / 4, events / 2}, {events / 2, events - events / 8}};
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(
        CountMotifsInRange(*c.graph, c.options, begin, end).SortedByCode(),
        ForcedGenericCount(*c.graph, c.options, begin, end).SortedByCode())
        << c.name << " range=[" << begin << "," << end << ")";
  }
}

// The batch benchmark's dW on the whole graph, the streaming one on a
// window-sized slice.
TEST(ParanjapeFastPath, MatchesDfsOnCollegeMsgPreset) {
  const TemporalGraph graph = CollegeMsg();
  ASSERT_GT(graph.num_events(), kWindow);
  const TemporalGraph window = WindowSlice(graph);
  for (const PresetCase& c :
       {PresetCase{"graph_dw3000", &graph, Paranjape(3000)},
        PresetCase{"window_dw1800", &window, Paranjape(1800)}}) {
    ExpectFastPathMatchesDfs(c);
  }
}

// Song et al.'s preset, whose hub centres' stars dominate its count: the
// batch benchmark's dW on the whole graph, the streaming one on the slice.
TEST(SongFastPath, MatchesDfsOnCollegeMsgPreset) {
  const TemporalGraph graph = CollegeMsg();
  ASSERT_GT(graph.num_events(), kWindow);
  const TemporalGraph window = WindowSlice(graph);
  for (const PresetCase& c :
       {PresetCase{"graph_dw3000", &graph, Song(3000)},
        PresetCase{"window_dw1800", &window, Song(1800)}}) {
    ExpectFastPathMatchesDfs(c);
  }
}

// The batch benchmark's dC configs on the whole graph — Hulovatyy et al.'s
// preset and the vanilla dC = dW / 2 one, where only dC binds — and the
// streaming dC on the slice.
TEST(DeltaCFastPath, MatchesDfsOnCollegeMsgPreset) {
  const TemporalGraph graph = CollegeMsg();
  ASSERT_GT(graph.num_events(), kWindow);
  const TemporalGraph window = WindowSlice(graph);
  for (const PresetCase& c :
       {PresetCase{"graph_hulovatyy_dc1500", &graph, Hulovatyy(1500)},
        PresetCase{"graph_vanilla_dc1500_dw3000", &graph,
                   Vanilla(TimingConstraints::Both(1500, 3000))},
        PresetCase{"window_hulovatyy_dc900", &window, Hulovatyy(900)},
        PresetCase{"window_vanilla_dc900", &window,
                   Vanilla(TimingConstraints::OnlyDeltaC(900))}}) {
    ExpectFastPathMatchesDfs(c);
  }
}

}  // namespace
}  // namespace tmotif
