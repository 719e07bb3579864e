// Preset-shaped differential for the static-inducedness fast path:
// Paranjape et al.'s preset on the CollegeMsg-shaped graph that the
// pipeline benchmark counts (gen/presets.h), dispatched through
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

TEST(ParanjapeFastPath, MatchesDfsOnCollegeMsgPreset) {
  const TemporalGraph graph =
      GenerateDataset(DatasetId::kCollegeMsg, 0.1, /*seed=*/3);
  const EventIndex n = graph.num_events();
  constexpr EventIndex kWindow = 2048;
  ASSERT_GT(n, kWindow);
  const TemporalGraph window = Slice(graph, (n - kWindow) / 2, kWindow);
  // The batch benchmark's dW on the whole graph, the streaming one on a
  // window-sized slice.
  const struct {
    const char* name;
    const TemporalGraph* graph;
    EnumerationOptions options;
  } cases[] = {
      {"graph_dw3000", &graph, Paranjape(3000)},
      {"window_dw1800", &window, Paranjape(1800)},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(internal::fast_paths::FastPathSupported(c.options));
    const EventIndex events = c.graph->num_events();
    const MotifCounts fast = CountMotifs(*c.graph, c.options);
    EXPECT_GT(fast.total(), 0u) << c.name;
    EXPECT_EQ(fast.SortedByCode(),
              ForcedGenericCount(*c.graph, c.options, 0, events)
                  .SortedByCode())
        << c.name;
    // Ranges: suffix differences whose later suffix leaves some static
    // triangles with a third pair outside it.
    const std::vector<std::pair<EventIndex, EventIndex>> ranges = {
        {events / 4, events / 2}, {events / 2, events - events / 8}};
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(CountMotifsInRange(*c.graph, c.options, begin, end)
                    .SortedByCode(),
                ForcedGenericCount(*c.graph, c.options, begin, end)
                    .SortedByCode())
          << c.name << " range=[" << begin << "," << end << ")";
    }
  }
}

}  // namespace
}  // namespace tmotif
