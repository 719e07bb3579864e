#include "core/event_pair.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/motif_code.h"

namespace tmotif {
namespace {

TEST(ClassifyEventPair, AllSixTypesFromFigure2) {
  // Figure 2 right: the six event-pair types.
  EXPECT_EQ(ClassifyEventPair(1, 2, 1, 2), EventPairType::kRepetition);
  EXPECT_EQ(ClassifyEventPair(1, 2, 2, 1), EventPairType::kPingPong);
  EXPECT_EQ(ClassifyEventPair(1, 2, 3, 2), EventPairType::kInBurst);
  EXPECT_EQ(ClassifyEventPair(1, 2, 1, 3), EventPairType::kOutBurst);
  EXPECT_EQ(ClassifyEventPair(1, 2, 2, 3), EventPairType::kConvey);
  EXPECT_EQ(ClassifyEventPair(1, 2, 3, 1), EventPairType::kWeaklyConnected);
}

TEST(ClassifyEventPair, DisjointPairs) {
  EXPECT_EQ(ClassifyEventPair(1, 2, 3, 4), EventPairType::kDisjoint);
}

TEST(ClassifyEventPair, OrderMatters) {
  // (1->2, 2->3) is a convey; reversed in time it is weakly-connected.
  EXPECT_EQ(ClassifyEventPair(1, 2, 2, 3), EventPairType::kConvey);
  EXPECT_EQ(ClassifyEventPair(2, 3, 1, 2), EventPairType::kWeaklyConnected);
}

TEST(EventPairLetter, MatchesPaperAlphabet) {
  EXPECT_EQ(EventPairLetter(EventPairType::kRepetition), 'R');
  EXPECT_EQ(EventPairLetter(EventPairType::kPingPong), 'P');
  EXPECT_EQ(EventPairLetter(EventPairType::kInBurst), 'I');
  EXPECT_EQ(EventPairLetter(EventPairType::kOutBurst), 'O');
  EXPECT_EQ(EventPairLetter(EventPairType::kConvey), 'C');
  EXPECT_EQ(EventPairLetter(EventPairType::kWeaklyConnected), 'W');
}

// The letters of a code's consecutive event pairs, '-' for a disjoint one
// ("RO" for 010102).
std::string PairLetters(const MotifCode& code) {
  std::string out;
  for (std::size_t i = 2; i + 1 < code.size(); i += 2) {
    out.push_back(EventPairLetter(ClassifyEventPair(
        code[i - 2] - '0', code[i - 1] - '0', code[i] - '0',
        code[i + 1] - '0')));
  }
  return out;
}

TEST(PairLetters, PaperFigure2Examples) {
  // Figure 2 bottom: 3n3e motif as (repetition, out-burst) and a 4-event
  // motif as (repetition, convey, ping-pong).
  EXPECT_EQ(PairLetters("010102"), "RO");
  EXPECT_EQ(PairLetters("01011221"), "RCP");
  EXPECT_EQ(PairLetters("010112"), "RC");
  EXPECT_EQ(PairLetters("011202"), "CI");
}

// The paper: the 6-letter alphabet "can exactly represent all 2n3e or 3n3e
// motifs (36 in total, 6^2)": the 36 codes spell 36 distinct sequences.
TEST(PairSequence, BijectionOnThreeEventSpectrum) {
  std::set<std::string> sequences;
  for (const MotifCode& code : EnumerateCodes(3, 3)) {
    const std::string seq = PairLetters(code);
    ASSERT_EQ(seq.size(), 2u);
    EXPECT_EQ(seq.find('-'), std::string::npos) << code;
    sequences.insert(seq);
  }
  EXPECT_EQ(sequences.size(), 36u);  // 6^2 distinct sequences.
}

// "It also gives 216 (6^3) broad descriptions" for 4-event motifs: the
// <=3-node 4-event spectrum is exactly the 216 sequences.
TEST(PairSequence, BijectionOnFourEventThreeNodeSpectrum) {
  std::set<std::string> sequences;
  int count = 0;
  for (const MotifCode& code : EnumerateCodes(4, 3)) {
    ++count;
    const std::string seq = PairLetters(code);
    EXPECT_EQ(seq.find('-'), std::string::npos) << code;
    sequences.insert(seq);
  }
  EXPECT_EQ(count, 216);
  EXPECT_EQ(sequences.size(), 216u);
}

// 4n4e motifs map onto the same 216 sequences non-uniquely, and some contain
// disjoint consecutive pairs the alphabet cannot express.
TEST(PairSequence, FourNodeMotifsAreBroadDescriptions) {
  std::map<std::string, int> by_sequence;
  int with_disjoint = 0;
  for (const MotifCode& code : EnumerateCodes(4, 4)) {
    if (CodeNumNodes(code) != 4) continue;
    const std::string seq = PairLetters(code);
    if (seq.find('-') != std::string::npos) {
      ++with_disjoint;
    } else {
      ++by_sequence[seq];
    }
  }
  // Some sequences describe multiple 4n4e motifs (broad, not exact).
  int ambiguous = 0;
  for (const auto& [seq, n] : by_sequence) {
    if (n > 1) ++ambiguous;
  }
  EXPECT_GT(ambiguous, 0);
  // And some 4n4e motifs escape the alphabet entirely (e.g. 01021323's
  // middle pair 02/13 shares no node).
  EXPECT_GT(with_disjoint, 0);
}

}  // namespace
}  // namespace tmotif
