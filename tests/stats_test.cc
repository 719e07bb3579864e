#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace tmotif {
namespace {

TEST(Mean, BasicAndEmpty) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Variance, PopulationVariance) {
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({2.0, 4.0}), 1.0);
  EXPECT_DOUBLE_EQ(Variance({1.0, 1.0, 1.0}), 0.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(MedianInt, MatchesDoubleMedian) {
  EXPECT_DOUBLE_EQ(MedianInt({10, 30, 20}), 20.0);
  EXPECT_DOUBLE_EQ(MedianInt({10, 20}), 15.0);
  EXPECT_DOUBLE_EQ(MedianInt({}), 0.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {0.0, 10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.125), 5.0);
}

TEST(Quantile, SingleElement) {
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, -3.0), 7.0);
}

TEST(Quantile, EdgeBehaviorIsClampedNotChecked) {
  const std::vector<double> v = {0.0, 10.0, 20.0};
  // Out-of-range q clamps to the extremes instead of aborting.
  EXPECT_DOUBLE_EQ(Quantile(v, -0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.5), 20.0);
  // NaN compares false against everything, so it behaves as q = 0.
  EXPECT_DOUBLE_EQ(Quantile(v, std::numeric_limits<double>::quiet_NaN()),
                   0.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(HistogramQuantile, InterpolatesInsideBuckets) {
  // 4 observations in [0, 10), 4 in [10, 20): position q*(n-1) walks the
  // combined distribution with linear interpolation inside each bucket.
  const std::vector<std::uint64_t> counts = {4, 4};
  const std::vector<double> edges = {0.0, 10.0, 20.0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, 0.5), 10.0 * 3.5 / 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, 1.0),
                   10.0 + 10.0 * 3.0 / 4.0);
}

TEST(HistogramQuantile, SkipsEmptyBucketsAndClampsQ) {
  const std::vector<std::uint64_t> counts = {0, 2, 0, 2};
  const std::vector<double> edges = {0.0, 1.0, 2.0, 4.0, 8.0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, -2.0), 1.0);
  // Rank 3 (q = 1) is the last observation of the [4, 8) bucket.
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, 1.0), 4.0 + 4.0 / 2.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, 9.0),
                   HistogramQuantile(counts, edges, 1.0));
  EXPECT_DOUBLE_EQ(
      HistogramQuantile(counts, edges,
                        std::numeric_limits<double>::quiet_NaN()),
      1.0);
}

TEST(HistogramQuantile, AllBucketsEmptyIsZero) {
  EXPECT_DOUBLE_EQ(
      HistogramQuantile({0, 0, 0}, {0.0, 1.0, 2.0, 3.0}, 0.5), 0.0);
}

TEST(HistogramQuantile, SingleObservationReturnedForAnyQ) {
  const std::vector<std::uint64_t> counts = {0, 1};
  const std::vector<double> edges = {0.0, 4.0, 8.0};
  // Mirrors Quantile's single-element rule: with one observation every q
  // lands at the bucket's lower edge (frac = 0).
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(counts, edges, 1.0), 4.0);
}

}  // namespace
}  // namespace tmotif
