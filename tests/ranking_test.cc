#include "analysis/ranking.h"

#include <gtest/gtest.h>

namespace tmotif {
namespace {

TEST(RankCodes, RanksByDescendingCount) {
  MotifCounts counts;
  counts.Add("0101", 10);
  counts.Add("0110", 30);
  counts.Add("0121", 20);
  const auto ranks = RankCodes(counts, {"0101", "0110", "0121"});
  EXPECT_EQ(ranks.at("0110"), 1);
  EXPECT_EQ(ranks.at("0121"), 2);
  EXPECT_EQ(ranks.at("0101"), 3);
}

TEST(RankCodes, AbsentCodesRankLast) {
  MotifCounts counts;
  counts.Add("0101", 5);
  const auto ranks = RankCodes(counts, {"0101", "0110"});
  EXPECT_EQ(ranks.at("0101"), 1);
  EXPECT_EQ(ranks.at("0110"), 2);
}

TEST(RankCodes, TiesBrokenLexicographically) {
  MotifCounts counts;
  counts.Add("0110", 5);
  counts.Add("0101", 5);
  const auto ranks = RankCodes(counts, {"0101", "0110"});
  EXPECT_EQ(ranks.at("0101"), 1);
  EXPECT_EQ(ranks.at("0110"), 2);
}

TEST(RankChanges, PositiveMeansAscended) {
  MotifCounts before;
  before.Add("0101", 100);
  before.Add("0110", 50);
  before.Add("0121", 10);
  MotifCounts after;  // 0121 jumps to the top.
  after.Add("0121", 100);
  after.Add("0101", 50);
  after.Add("0110", 10);
  const auto changes =
      RankChanges(before, after, {"0101", "0110", "0121"});
  EXPECT_EQ(changes.at("0121"), +2);
  EXPECT_EQ(changes.at("0101"), -1);
  EXPECT_EQ(changes.at("0110"), -1);
}

TEST(RankChanges, NoChangeIsZero) {
  MotifCounts counts;
  counts.Add("0101", 2);
  counts.Add("0110", 1);
  const auto changes = RankChanges(counts, counts, {"0101", "0110"});
  EXPECT_EQ(changes.at("0101"), 0);
  EXPECT_EQ(changes.at("0110"), 0);
}

}  // namespace
}  // namespace tmotif
