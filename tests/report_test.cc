#include "analysis/report.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include "graph/temporal_graph.h"

namespace tmotif {
namespace {

TEST(RenderMotifCounts, ShowsRankedRows) {
  MotifCounts counts;
  counts.Add("010102", 10);
  counts.Add("011202", 30);
  const std::string out = RenderMotifCounts(counts);
  EXPECT_NE(out.find("011202"), std::string::npos);
  EXPECT_NE(out.find("010102"), std::string::npos);
  // The more frequent motif is ranked first.
  EXPECT_LT(out.find("011202"), out.find("010102"));
  EXPECT_NE(out.find("75.0%"), std::string::npos);
}

TEST(RenderMotifCounts, LimitTruncates) {
  MotifCounts counts;
  counts.Add("010102", 3);
  counts.Add("011202", 2);
  counts.Add("010110", 1);
  const std::string out = RenderMotifCounts(counts, 1);
  EXPECT_NE(out.find("010102"), std::string::npos);
  EXPECT_EQ(out.find("010110"), std::string::npos);
}

TEST(RenderPairRatios, AllSixLetters) {
  EventPairStats stats;
  stats.counts[0] = 4;  // R.
  stats.counts[4] = 1;  // C.
  const std::string out = RenderPairRatios(stats);
  for (const char c : {'R', 'P', 'I', 'O', 'C', 'W'}) {
    EXPECT_NE(out.find(c), std::string::npos) << c;
  }
  EXPECT_NE(out.find("80.0%"), std::string::npos);  // R's share.
}

TEST(RenderPairSequenceHeatMap, ContainsCountsAndShades) {
  PairSequenceMatrix matrix;
  matrix.cells[0][0] = 1000;
  matrix.cells[0][1] = 1;
  matrix.total = 1001;
  const std::string out = RenderPairSequenceHeatMap(matrix);
  EXPECT_NE(out.find("1000"), std::string::npos);
  EXPECT_NE(out.find('@'), std::string::npos);  // Max intensity shade.
  EXPECT_NE(out.find('.'), std::string::npos);  // Zero cells.
}

TEST(BenchOutputPath, CreatesDirectoryAndJoins) {
  const std::string dir = std::string(::testing::TempDir()) + "/bo_test";
  const std::string path = BenchOutputPath(dir, "x.csv");
  EXPECT_EQ(path, dir + "/x.csv");
  struct stat st{};
  EXPECT_EQ(::stat(dir.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace tmotif
