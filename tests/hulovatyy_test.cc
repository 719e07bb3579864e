// Hulovatyy et al. [13], dynamic graphlets. Relative to Kovanen et al.,
// motifs must be induced in the static projection and the
// consecutive-events restriction is dropped. The `kHulovatyy` preset of
// `OptionsForModel` realizes it; two optional variants are set on the
// preset's options:
//   * `cdg_restriction` (constrained dynamic graphlets): consecutive motif
//     events on different static edges require that the second edge did
//     not occur in between;
//   * `duration_aware_gaps`: dC is measured from the end of the previous
//     event to the start of the next (the only published model that
//     incorporates event durations, Section 4.2).

#include <gtest/gtest.h>

#include "core/counter.h"
#include "core/models/model_info.h"
#include "graph/temporal_graph.h"

namespace tmotif {
namespace {

EnumerationOptions Hulovatyy(int num_events, int max_nodes,
                             Timestamp delta_c) {
  return OptionsForModel(ModelId::kHulovatyy, num_events, max_nodes, delta_c,
                         0);
}

EnumerationOptions ConstrainedHulovatyy(int num_events, int max_nodes,
                                        Timestamp delta_c) {
  EnumerationOptions options = Hulovatyy(num_events, max_nodes, delta_c);
  options.cdg_restriction = true;
  return options;
}

TEST(HulovatyyPreset, StaticInducednessWithoutConsecutiveRestriction) {
  const EnumerationOptions o = Hulovatyy(3, 3, 1000);
  EXPECT_EQ(o.inducedness, Inducedness::kStatic);
  EXPECT_FALSE(o.consecutive_events_restriction);
  EXPECT_FALSE(o.cdg_restriction);
  EXPECT_EQ(*o.timing.delta_c, 1000);
}

TEST(HulovatyyCount, PaperTriangleSkipsStaleEvent) {
  // Section 4.1: given (a,b,2),(b,c,4),(c,a,5),(c,a,6), the triangle of the
  // 1st, 2nd and 4th events is valid in Hulovatyy's model.
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 2}, {1, 2, 4}, {2, 0, 5}, {2, 0, 6}});
  const MotifCounts counts = CountMotifs(g, Hulovatyy(3, 3, 10));
  EXPECT_EQ(counts.count("011220"), 2u);  // Both triangles.
}

TEST(HulovatyyCount, ConstrainedRejectsStaleRepeat) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 2}, {1, 2, 4}, {2, 0, 5}, {2, 0, 6}});
  const MotifCounts counts = CountMotifs(g, ConstrainedHulovatyy(3, 3, 10));
  // Only the tight triangle (events 1,2,3rd) remains; the one skipping
  // (c,a,5) is filtered because edge (c,a) occurred in between.
  EXPECT_EQ(counts.count("011220"), 1u);
}

TEST(HulovatyyCount, RequiresStaticInducedness) {
  // A temporal triangle whose node set also carries a diagonal edge in the
  // static projection is rejected.
  const TemporalGraph induced = GraphFromEvents(
      {{0, 1, 0}, {1, 2, 2}, {0, 2, 4}});
  const TemporalGraph non_induced = GraphFromEvents(
      {{0, 1, 0}, {1, 2, 2}, {0, 2, 4}, {2, 1, 1000}});
  EXPECT_EQ(CountMotifs(induced, Hulovatyy(3, 3, 10)).count("011202"), 1u);
  EXPECT_EQ(CountMotifs(non_induced, Hulovatyy(3, 3, 10)).count("011202"),
            0u);
}

TEST(HulovatyyCount, DurationAwareGapsExtendReach) {
  // A 50s call followed 55s later by a callback: start-to-start gap 55
  // breaks dC=10, end-to-start gap 5 does not (Section 4.2).
  const TemporalGraph g = GraphFromEvents({{0, 1, 0, 50}, {1, 0, 55}});
  EnumerationOptions options = Hulovatyy(2, 2, 10);
  EXPECT_EQ(CountMotifs(g, options).total(), 0u);
  options.duration_aware_gaps = true;
  EXPECT_EQ(CountMotifs(g, options).total(), 1u);
}

TEST(HulovatyyCount, ConstrainedIsNoOpWithoutRepeatedEdges) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, 0}, {1, 2, 2}, {2, 0, 4}, {1, 0, 6}});
  EXPECT_EQ(CountMotifs(g, Hulovatyy(3, 3, 10)).total(),
            CountMotifs(g, ConstrainedHulovatyy(3, 3, 10)).total());
}

}  // namespace
}  // namespace tmotif
