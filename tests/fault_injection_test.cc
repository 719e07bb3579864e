// Tests for the seeded fault-injection registry (src/common/fault_points.h)
// and its RAII test harness (src/testing/fault_injection.h): deterministic
// skip/fire semantics, seeded-probability replayability, scope hygiene, and
// an end-to-end probe of the "stream.budget_pressure" product fault point.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/fault_points.h"
#include "core/counter.h"
#include "stream/streaming_counter.h"
#include "testing/fault_injection.h"
#include "testing/random_graphs.h"

namespace tmotif {
namespace {

TEST(FaultInjection, UnarmedPointsNeverFire) {
  EXPECT_FALSE(fault::Consume("never.armed").has_value());
  EXPECT_FALSE(fault::ShouldFail("never.armed"));
  EXPECT_EQ(fault::HitCount("never.armed"), 0u);
}

TEST(FaultInjection, FailOnceFiresExactlyOnceWithPayload) {
  testing::ScopedFault fault("t.once", testing::FailOnce(/*payload=*/42));
  const auto first = fault::Consume("t.once");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 42);
  // Exhausted but still armed: hits keep counting, fires do not.
  EXPECT_FALSE(fault::Consume("t.once").has_value());
  EXPECT_FALSE(fault::Consume("t.once").has_value());
  EXPECT_EQ(fault.hits(), 3u);
  EXPECT_EQ(fault.fires(), 1u);
}

TEST(FaultInjection, FailNthSkipsTheFirstHits) {
  testing::ScopedFault fault("t.nth", testing::FailNth(3, /*payload=*/7));
  EXPECT_FALSE(fault::Consume("t.nth").has_value());
  EXPECT_FALSE(fault::Consume("t.nth").has_value());
  const auto third = fault::Consume("t.nth");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*third, 7);
  EXPECT_FALSE(fault::Consume("t.nth").has_value());
  EXPECT_EQ(fault.fires(), 1u);
}

TEST(FaultInjection, FailAlwaysFiresOnEveryHit) {
  testing::ScopedFault fault("t.always", testing::FailAlways());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fault::ShouldFail("t.always")) << i;
  }
  EXPECT_EQ(fault.hits(), 5u);
  EXPECT_EQ(fault.fires(), 5u);
}

TEST(FaultInjection, SeededProbabilityReplaysIdentically) {
  const auto run = [](std::uint64_t seed) {
    testing::ScopedFault fault(
        "t.prob", testing::FailWithProbability(0.5, seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(fault::ShouldFail("t.prob"));
    }
    return fired;
  };
  const std::vector<bool> a = run(0xabc);
  const std::vector<bool> b = run(0xabc);
  EXPECT_EQ(a, b);  // Same seed: bit-identical schedule.
  int fires = 0;
  for (const bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0);   // p=0.5 over 64 draws: both outcomes occur.
  EXPECT_LT(fires, 64);
  const std::vector<bool> c = run(0xdef);
  EXPECT_NE(a, c);  // Different seed: different schedule.
}

TEST(FaultInjection, ScopedFaultDisarmsOnExit) {
  {
    testing::ScopedFault fault("t.scoped", testing::FailAlways());
    EXPECT_TRUE(fault::ShouldFail("t.scoped"));
  }
  EXPECT_FALSE(fault::ShouldFail("t.scoped"));
  EXPECT_EQ(fault::HitCount("t.scoped"), 0u);  // Counters die with disarm.
}

TEST(FaultInjection, RearmingReplacesSpecAndResetsCounters) {
  testing::FaultInjectionGuard guard;
  fault::Arm("t.rearm", testing::FailAlways(/*payload=*/1));
  EXPECT_TRUE(fault::ShouldFail("t.rearm"));
  EXPECT_EQ(fault::HitCount("t.rearm"), 1u);
  fault::Arm("t.rearm", testing::FailNth(2, /*payload=*/9));
  EXPECT_EQ(fault::HitCount("t.rearm"), 0u);
  EXPECT_FALSE(fault::Consume("t.rearm").has_value());
  const auto fired = fault::Consume("t.rearm");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, 9);
}

TEST(FaultInjection, GuardDisarmsEverything) {
  {
    testing::FaultInjectionGuard guard;
    fault::Arm("t.g1", testing::FailAlways());
    fault::Arm("t.g2", testing::FailAlways());
    EXPECT_TRUE(fault::ShouldFail("t.g1"));
    EXPECT_TRUE(fault::ShouldFail("t.g2"));
  }
  EXPECT_FALSE(fault::ShouldFail("t.g1"));
  EXPECT_FALSE(fault::ShouldFail("t.g2"));
}

// End-to-end product probe: arming "stream.budget_pressure" must trip the
// allocation budget inside the streaming counter, degrade the store, and
// leave the counts exact — the allocation-budget fault path of the
// kill-and-restore story.
TEST(FaultInjection, BudgetPressurePointDegradesTheStore) {
  testing::FaultInjectionGuard guard;
  testing::ForEachRandomGraph(
      0xfa17, 1, testing::RandomGraphSpec{},
      [&](std::uint64_t, const TemporalGraph& g) {
        StreamConfig config;
        config.options.num_events = 3;
        config.options.max_nodes = 3;
        config.options.inducedness = Inducedness::kStatic;
        config.window = WindowPolicy::CountBased(12);
        config.store_budget_bytes = 1u << 20;  // Roomy without the fault.

        testing::ScopedFault fault(
            "stream.budget_pressure",
            testing::FailAlways(/*payload=*/1 << 21));
        StreamingMotifCounter counter(config);
        counter.Ingest(g.events());
        EXPECT_GT(fault.fires(), 0u);
        EXPECT_NE(counter.store_mode(), StoreMode::kFull);
        const MotifCounts expected =
            CountMotifs(counter.window_graph(), config.options);
        EXPECT_EQ(counter.counts().SortedByCode(), expected.SortedByCode());
      });
}

}  // namespace
}  // namespace tmotif
