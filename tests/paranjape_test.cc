// Paranjape et al. [14], the practical window model: a totally ordered,
// connected k-event sequence whose whole timespan fits in a dW window,
// induced in the static projection. The consecutive-events restriction is
// deliberately dropped so motifs occurring in short bursts are kept. The
// `kParanjape` preset of `OptionsForModel` realizes it.

#include <gtest/gtest.h>

#include <vector>

#include "core/counter.h"
#include "core/models/model_info.h"
#include "graph/temporal_graph.h"

namespace tmotif {
namespace {

MotifCounts CountParanjape(const TemporalGraph& graph, int num_events,
                           int max_nodes, Timestamp delta_w) {
  return CountMotifs(graph, OptionsForModel(ModelId::kParanjape, num_events,
                                            max_nodes, 0, delta_w));
}

TEST(ParanjapePreset, WindowWithStaticInducedness) {
  const EnumerationOptions o =
      OptionsForModel(ModelId::kParanjape, 3, 3, 0, 3000);
  EXPECT_EQ(*o.timing.delta_w, 3000);
  EXPECT_FALSE(o.timing.delta_c.has_value());
  EXPECT_EQ(o.inducedness, Inducedness::kStatic);
  EXPECT_FALSE(o.consecutive_events_restriction);
}

TEST(ParanjapeCount, WindowBoundsWholeMotif) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 0}, {1, 2, 9}, {2, 0, 10}});
  EXPECT_EQ(CountParanjape(g, 3, 3, 10).total(), 1u);
  EXPECT_EQ(CountParanjape(g, 3, 3, 9).total(), 0u);
}

TEST(ParanjapeCount, CatchesBurstsKovanenWouldDrop) {
  // Section 4.1: Paranjape et al. relax the consecutive-events restriction
  // to catch motifs occurring in short bursts. Node 0 bursts to 1, 2, 3;
  // the (0->1, 0->2) pair co-occurs with the 0->3 event in between.
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 0}, {0, 3, 1}, {0, 2, 2}});
  // All three pairs are valid 2-event motifs despite interleaving.
  EXPECT_EQ(CountParanjape(g, 2, 3, 10).total(), 3u);
}

TEST(ParanjapeCount, RequiresStaticInducedness) {
  // Figure 1's second motif is rejected "since it is not an induced
  // subgraph": a diagonal in the static projection kills the square.
  const std::vector<Event> square = {
      {0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 0, 4}};
  EXPECT_EQ(CountParanjape(GraphFromEvents(square), 4, 4, 10).total(), 1u);

  std::vector<Event> with_diagonal = square;
  with_diagonal.push_back({0, 2, 8});
  // The diagonal event creates other motifs, but the pure square is gone.
  const MotifCounts counts =
      CountParanjape(GraphFromEvents(with_diagonal), 4, 4, 10);
  EXPECT_EQ(counts.count("01122330"), 0u);
}

TEST(ParanjapeCount, TwoNodeMotifsUnaffectedByInducedness) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 0}, {1, 0, 1}, {0, 1, 2}});
  EXPECT_EQ(CountParanjape(g, 3, 2, 10).count("011001"), 1u);
}

}  // namespace
}  // namespace tmotif
