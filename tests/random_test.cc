#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace tmotif {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformU64StaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.UniformU64(17), 17u);
}

TEST(Rng, UniformU64HitsEveryResidue) {
  Rng rng(11);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 5000; ++i) ++seen[rng.UniformU64(10)];
  for (int count : seen) EXPECT_GT(count, 300);  // ~500 expected.
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInHalfOpenUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformReal();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(17);
  double total = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += rng.Exponential(40.0);
  EXPECT_NEAR(total / n, 40.0, 1.5);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  const int n = 50000;
  double sum = 0;
  double sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, LogNormalMedian) {
  // Median of exp(N(mu, sigma^2)) is exp(mu).
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 20001; ++i) values.push_back(rng.LogNormal(std::log(30.0), 1.0));
  std::nth_element(values.begin(), values.begin() + 10000, values.end());
  EXPECT_NEAR(values[10000], 30.0, 2.0);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(37);
  std::vector<int> values(50);
  std::iota(values.begin(), values.end(), 0);
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  EXPECT_NE(shuffled, values);  // Astronomically unlikely to be identity.
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(ZipfTable, SkewsTowardsSmallIndices) {
  Rng rng(41);
  ZipfTable zipf(100, 1.5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 10);
}

TEST(ZipfTable, AlphaZeroIsUniform) {
  Rng rng(43);
  ZipfTable zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 250);
}

TEST(DynamicWeightedPicker, RespectsWeights) {
  Rng rng(47);
  DynamicWeightedPicker picker;
  EXPECT_EQ(picker.Add(1.0), 0);
  EXPECT_EQ(picker.Add(3.0), 1);
  std::vector<int> counts(2, 0);
  for (int i = 0; i < 20000; ++i) ++counts[picker.Sample(&rng)];
  EXPECT_NEAR(counts[1] / 20000.0, 0.75, 0.02);
}

TEST(DynamicWeightedPicker, ReinforcementShiftsMass) {
  Rng rng(53);
  DynamicWeightedPicker picker;
  picker.Add(1.0);
  picker.Add(1.0);
  picker.Reinforce(0, 8.0);  // Weights now 9 : 1.
  std::vector<int> counts(2, 0);
  for (int i = 0; i < 20000; ++i) ++counts[picker.Sample(&rng)];
  EXPECT_NEAR(counts[0] / 20000.0, 0.9, 0.02);
}

TEST(DynamicWeightedPicker, ManyElements) {
  Rng rng(59);
  DynamicWeightedPicker picker;
  for (int i = 0; i < 100; ++i) picker.Add(i == 42 ? 100.0 : 1.0);
  EXPECT_DOUBLE_EQ(picker.total_weight(), 199.0);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += picker.Sample(&rng) == 42 ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 100.0 / 199.0, 0.03);
}

TEST(DynamicWeightedPicker, ZeroWeightElementNeverSampled) {
  Rng rng(61);
  DynamicWeightedPicker picker;
  picker.Add(0.0);
  picker.Add(5.0);
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(picker.Sample(&rng), 1);
}

}  // namespace
}  // namespace tmotif
