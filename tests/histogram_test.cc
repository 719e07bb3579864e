#include "common/histogram.h"

#include <gtest/gtest.h>

namespace tmotif {
namespace {

TEST(Histogram, BinsValuesByRange) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.5);   // Bin 0.
  h.Add(3.0);   // Bin 1.
  h.Add(9.9);   // Bin 4.
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.bin_count(2), 0u);
}

TEST(Histogram, ClampsOutOfRangeValues) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-100.0);
  h.Add(+100.0);
  h.Add(10.0);  // Exactly the upper edge goes to the last bin.
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, AddCountAggregates) {
  Histogram h(0.0, 1.0, 2);
  h.AddCount(0.25, 10);
  EXPECT_EQ(h.bin_count(0), 10u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(Histogram, BinGeometry) {
  Histogram h(0.0, 100.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(9), 90.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 95.0);
}

TEST(Histogram, MassCentroidDetectsSkew) {
  // Skew towards the low end -> centroid < 0.5 (the paper's Figure 4
  // "skewed to the first event" reading).
  Histogram low(0.0, 100.0, 20);
  for (int i = 0; i < 100; ++i) low.Add(5.0);
  for (int i = 0; i < 5; ++i) low.Add(95.0);
  EXPECT_LT(low.MassCentroid(), 0.3);

  Histogram high(0.0, 100.0, 20);
  for (int i = 0; i < 100; ++i) high.Add(95.0);
  EXPECT_GT(high.MassCentroid(), 0.7);

  Histogram empty(0.0, 100.0, 20);
  EXPECT_DOUBLE_EQ(empty.MassCentroid(), 0.5);
}

TEST(Histogram, ApproxMeanUsesBinCenters) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.2);  // Center 0.5.
  h.Add(9.8);  // Center 9.5.
  EXPECT_DOUBLE_EQ(h.ApproxMean(), 5.0);
}

TEST(Histogram, RenderShowsBars) {
  Histogram h(0.0, 2.0, 2);
  h.Add(0.5);
  h.Add(0.6);
  h.Add(1.5);
  const std::string art = h.Render(10);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace tmotif
