#include "core/static_form.h"

#include <gtest/gtest.h>

#include <set>

#include "core/motif_code.h"

namespace tmotif {
namespace {

/// Static form of a temporal motif code: its digit pairs as edges.
StaticForm FormOfCode(const MotifCode& code) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i + 1 < code.size(); i += 2) {
    edges.emplace_back(code[i] - '0', code[i + 1] - '0');
  }
  return CanonicalStaticForm(edges);
}

TEST(CanonicalStaticForm, SingleEdge) {
  EXPECT_EQ(CanonicalStaticForm({{7, 3}}), "01");
}

TEST(CanonicalStaticForm, CollapsesRepeatedEdges) {
  EXPECT_EQ(CanonicalStaticForm({{0, 1}, {0, 1}, {0, 1}}), "01");
}

TEST(CanonicalStaticForm, InvariantUnderRelabeling) {
  const StaticForm a = CanonicalStaticForm({{0, 1}, {1, 2}, {0, 2}});
  const StaticForm b = CanonicalStaticForm({{9, 4}, {4, 7}, {9, 7}});
  EXPECT_EQ(a, b);
}

TEST(CanonicalStaticForm, DistinguishesOrientation) {
  // A feed-forward triangle vs a directed cycle.
  const StaticForm ffl = CanonicalStaticForm({{0, 1}, {1, 2}, {0, 2}});
  const StaticForm cycle = CanonicalStaticForm({{0, 1}, {1, 2}, {2, 0}});
  EXPECT_NE(ffl, cycle);
}

TEST(CanonicalStaticForm, ReciprocalPairVsTwoStars) {
  const StaticForm pingpong = CanonicalStaticForm({{0, 1}, {1, 0}});
  const StaticForm outburst = CanonicalStaticForm({{0, 1}, {0, 2}});
  EXPECT_NE(pingpong, outburst);
}

TEST(StaticForm, TemporalOrderIsErased) {
  // All temporal orderings of the same triangle share one static form.
  const StaticForm reference = FormOfCode("011202");
  EXPECT_EQ(FormOfCode("010212"), reference);  // Different order.
  // Repetition variants collapse onto smaller forms.
  EXPECT_EQ(FormOfCode("010101"), FormOfCode("0101"));
}

TEST(StaticForm, ThreeEventSpectrumCollapses) {
  // The 36 temporal 3-event codes project onto far fewer static forms:
  // temporal order is what multiplies the spectrum (the paper's Section 1:
  // "the spectrum of motifs is significantly larger" with time).
  std::set<StaticForm> forms;
  for (const MotifCode& code : EnumerateCodes(3, 3)) {
    forms.insert(FormOfCode(code));
  }
  EXPECT_LT(forms.size(), 20u);
  EXPECT_GT(forms.size(), 5u);
}

TEST(StaticForm, CanonicalIsIdempotent) {
  for (const MotifCode& code : EnumerateCodes(3, 3)) {
    const StaticForm form = FormOfCode(code);
    // Re-canonicalizing the form's own edges is a fixed point.
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (std::size_t i = 0; i + 1 < form.size(); i += 2) {
      edges.emplace_back(form[i] - '0', form[i + 1] - '0');
    }
    EXPECT_EQ(CanonicalStaticForm(edges), form) << code;
  }
}

}  // namespace
}  // namespace tmotif
