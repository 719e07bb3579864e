#include "core/timing.h"

#include <gtest/gtest.h>

#include <limits>

namespace tmotif {
namespace {

TEST(TimingConstraints, Factories) {
  const TimingConstraints only_c = TimingConstraints::OnlyDeltaC(1500);
  EXPECT_TRUE(only_c.delta_c.has_value());
  EXPECT_FALSE(only_c.delta_w.has_value());

  const TimingConstraints only_w = TimingConstraints::OnlyDeltaW(3000);
  EXPECT_FALSE(only_w.delta_c.has_value());
  EXPECT_TRUE(only_w.delta_w.has_value());

  const TimingConstraints both = TimingConstraints::Both(2000, 3000);
  EXPECT_EQ(*both.delta_c, 2000);
  EXPECT_EQ(*both.delta_w, 3000);

  const TimingConstraints none;
  EXPECT_FALSE(none.delta_c.has_value());
  EXPECT_FALSE(none.delta_w.has_value());
}

TEST(TimingConstraints, ToString) {
  EXPECT_EQ(TimingConstraints::Both(2000, 3000).ToString(),
            "dC=2000s, dW=3000s");
  EXPECT_EQ(TimingConstraints::OnlyDeltaC(1500).ToString(), "dC=1500s");
  EXPECT_EQ(TimingConstraints::OnlyDeltaW(3000).ToString(), "dW=3000s");
  EXPECT_EQ(TimingConstraints{}.ToString(), "unbounded");
}

// The Section 4.5 case analysis for three-event motifs (m = 3, so the
// meaningful band is 1/2 < dC/dW < 1). These are exactly the paper's
// experimental configurations with dW = 3000s.
TEST(ClassifyTiming, PaperThreeEventConfigurations) {
  // dC/dW = 0.5 -> only dC matters.
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(1500, 3000), 3),
            TimingRegime::kOnlyDeltaC);
  // dC/dW = 0.66 -> both matter.
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(2000, 3000), 3),
            TimingRegime::kBoth);
  // dC/dW = 1.0 -> only dW matters.
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(3000, 3000), 3),
            TimingRegime::kOnlyDeltaW);
}

// Four-event motifs widen the band to 1/3 < dC/dW < 1 (the paper's
// configurations 0.33, 0.5, 0.66, 1.0).
TEST(ClassifyTiming, PaperFourEventConfigurations) {
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(1000, 3000), 4),
            TimingRegime::kOnlyDeltaC);
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(1500, 3000), 4),
            TimingRegime::kBoth);
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(2000, 3000), 4),
            TimingRegime::kBoth);
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(3000, 3000), 4),
            TimingRegime::kOnlyDeltaW);
}

TEST(ClassifyTiming, SingleConstraintRegimes) {
  EXPECT_EQ(ClassifyTiming(TimingConstraints::OnlyDeltaC(10), 3),
            TimingRegime::kOnlyDeltaC);
  EXPECT_EQ(ClassifyTiming(TimingConstraints::OnlyDeltaW(10), 3),
            TimingRegime::kOnlyDeltaW);
  EXPECT_EQ(ClassifyTiming(TimingConstraints{}, 3),
            TimingRegime::kUnbounded);
}

TEST(ClassifyTiming, DeltaCLargerThanDeltaWIsOnlyDeltaW) {
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(5000, 3000), 3),
            TimingRegime::kOnlyDeltaW);
}

// dC * (m - 1) need not fit a Timestamp: the classification compares
// without forming it (the fast-path gate reads it, so a wrapped product
// would drop a binding dW), and the loose bound saturates.
TEST(ClassifyTiming, ExactWhereDeltaCTimesGapsOverflows) {
  constexpr Timestamp k62 = Timestamp{1} << 62;
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(k62, k62 + 1), 3),
            TimingRegime::kBoth);
  // 2 * 2^62 = kMax + 1: dW = kMax still binds.
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(k62, kMax), 3),
            TimingRegime::kBoth);
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(k62 - 1, kMax), 3),
            TimingRegime::kOnlyDeltaC);
  EXPECT_EQ(ClassifyTiming(TimingConstraints::Both(kMax - 1, kMax), 2),
            TimingRegime::kOnlyDeltaC);
}

TEST(LooseWindowBound, MatchesFormula) {
  // (|E'| - 1) * dC.
  EXPECT_EQ(LooseWindowBound(1500, 3), 3000);
  EXPECT_EQ(LooseWindowBound(1000, 4), 3000);
  EXPECT_EQ(LooseWindowBound(500, 1), 0);
}

TEST(LooseWindowBound, SaturatesAtTheLargestTimestamp) {
  constexpr Timestamp k62 = Timestamp{1} << 62;
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  EXPECT_EQ(LooseWindowBound(k62, 3), kMax);
  EXPECT_EQ(LooseWindowBound(kMax, 4), kMax);
  EXPECT_EQ(LooseWindowBound(k62 - 1, 3), kMax - 1);
  EXPECT_EQ(LooseWindowBound(kMax, 2), kMax);
}

TEST(TimingRegimeName, Names) {
  EXPECT_STREQ(TimingRegimeName(TimingRegime::kOnlyDeltaC), "only-dC");
  EXPECT_STREQ(TimingRegimeName(TimingRegime::kBoth), "dW-and-dC");
  EXPECT_STREQ(TimingRegimeName(TimingRegime::kOnlyDeltaW), "only-dW");
}

}  // namespace
}  // namespace tmotif
