#include "core/motif_code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/temporal_graph.h"

namespace tmotif {
namespace {

TEST(EncodeMotif, FirstEventIsAlways01) {
  EXPECT_EQ(EncodeMotif({{7, 3}}), "01");
  EXPECT_EQ(EncodeMotif({{100, 42}}), "01");
}

TEST(EncodeMotif, PaperTriangleExample) {
  // Figure 2 top-left: 0->1, 1->2, 0->2 is written 011202.
  EXPECT_EQ(EncodeMotif({{0, 1}, {1, 2}, {0, 2}}), "011202");
}

TEST(EncodeMotif, PaperFourEventExample) {
  // Figure 2 bottom-left: 01023132.
  EXPECT_EQ(EncodeMotif({{0, 1}, {0, 2}, {3, 1}, {3, 2}}), "01023132");
}

TEST(EncodeMotif, RelabelsArbitraryNodeIds) {
  EXPECT_EQ(EncodeMotif({{42, 17}, {17, 99}, {42, 99}}), "011202");
}

TEST(EncodeMotif, RepetitionAndPingPong) {
  EXPECT_EQ(EncodeMotif({{5, 9}, {5, 9}, {9, 5}}), "010110");
}

TEST(EncodeInstance, MatchesEncodeMotif) {
  const TemporalGraph graph = GraphFromEvents({
      {3, 7, 10}, {7, 9, 20}, {3, 9, 30}});
  const EventIndex indices[] = {0, 1, 2};
  EXPECT_EQ(EncodeInstance(graph, indices, 3), "011202");
}

TEST(IsValidCode, AcceptsPaperCodes) {
  for (const char* code :
       {"01", "0101", "011202", "010210", "011210", "012010", "012110",
        "01023132", "01212303", "01022123", "010102", "011012"}) {
    EXPECT_TRUE(IsValidCode(code)) << code;
  }
}

TEST(IsValidCode, RejectsMalformedCodes) {
  EXPECT_FALSE(IsValidCode(""));            // Empty.
  EXPECT_FALSE(IsValidCode("0"));           // Odd length.
  EXPECT_FALSE(IsValidCode("10"));          // First event must be 01.
  EXPECT_FALSE(IsValidCode("0112a2"));      // Non-digit.
  EXPECT_FALSE(IsValidCode("0100"));        // Self-loop.
  EXPECT_FALSE(IsValidCode("0113"));        // Skips node 2.
  EXPECT_FALSE(IsValidCode("0123"));        // Two new nodes: disconnected.
}

TEST(IsValidCode, RejectsEventDisconnectedFromPrefix) {
  // 01 02 34: the third event introduces two unseen nodes.
  EXPECT_FALSE(IsValidCode("010234"));
}

TEST(EncodeMotif, ReencodesEveryCanonicalCode) {
  for (const MotifCode& code : EnumerateCodes(3, 3)) {
    std::vector<std::pair<NodeId, NodeId>> events;
    for (std::size_t i = 0; i + 1 < code.size(); i += 2) {
      events.emplace_back(code[i] - '0', code[i + 1] - '0');
    }
    EXPECT_EQ(EncodeMotif(events), code);
  }
}

TEST(CodeNumEvents, CountsPairs) {
  EXPECT_EQ(CodeNumEvents("01"), 1);
  EXPECT_EQ(CodeNumEvents("011202"), 3);
  EXPECT_EQ(CodeNumEvents("01023132"), 4);
}

TEST(CodeNumNodes, CountsDistinctDigits) {
  EXPECT_EQ(CodeNumNodes("0101"), 2);
  EXPECT_EQ(CodeNumNodes("011202"), 3);
  EXPECT_EQ(CodeNumNodes("01023132"), 4);
}

// The paper's spectrum sizes (Section 5, "Motif notation" and "event
// pairs"): 36 three-event motifs with <= 3 nodes (4 of them on 2 nodes),
// and 696 four-event motifs with <= 4 nodes (8 + 208 + 480).
TEST(EnumerateCodes, ThreeEventSpectrumSizes) {
  const auto all3 = EnumerateCodes(3, 3);
  EXPECT_EQ(all3.size(), 36u);
  int two_node = 0;
  int three_node = 0;
  for (const MotifCode& code : all3) {
    if (CodeNumNodes(code) == 2) ++two_node;
    if (CodeNumNodes(code) == 3) ++three_node;
  }
  EXPECT_EQ(two_node, 4);
  EXPECT_EQ(three_node, 32);
}

TEST(EnumerateCodes, FourEventSpectrumSizes) {
  const auto all4 = EnumerateCodes(4, 4);
  EXPECT_EQ(all4.size(), 696u);
  int by_nodes[5] = {0, 0, 0, 0, 0};
  for (const MotifCode& code : all4) {
    ++by_nodes[CodeNumNodes(code)];
  }
  EXPECT_EQ(by_nodes[2], 8);
  EXPECT_EQ(by_nodes[3], 208);
  EXPECT_EQ(by_nodes[4], 480);
}

TEST(EnumerateCodes, TwoEventSpectrum) {
  // Two events sharing a node: exactly the 6 event-pair types.
  EXPECT_EQ(EnumerateCodes(2, 3).size(), 6u);
}

TEST(EnumerateCodes, AllCodesAreValidAndUnique) {
  const auto codes = EnumerateCodes(4, 4);
  const std::set<MotifCode> unique(codes.begin(), codes.end());
  EXPECT_EQ(unique.size(), codes.size());
  for (const MotifCode& code : codes) {
    EXPECT_TRUE(IsValidCode(code)) << code;
    EXPECT_LE(CodeNumNodes(code), 4);
    EXPECT_EQ(CodeNumEvents(code), 4);
  }
}

TEST(EnumerateCodes, SortedOutput) {
  const auto codes = EnumerateCodes(3, 3);
  EXPECT_TRUE(std::is_sorted(codes.begin(), codes.end()));
}

TEST(EnumerateCodes, MaxNodesCapRestrictsSpectrum) {
  // With only 2 nodes allowed, each extra event has 2 choices (01 or 10).
  EXPECT_EQ(EnumerateCodes(3, 2).size(), 4u);
  EXPECT_EQ(EnumerateCodes(4, 2).size(), 8u);
}

}  // namespace
}  // namespace tmotif
