#include "analysis/significance.h"

#include <gtest/gtest.h>

#include "gen/generator.h"

namespace tmotif {
namespace {

EnumerationOptions ThreeEvent() {
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::Both(600, 1200);
  return o;
}

TemporalGraph ConversationalGraph(std::uint64_t seed) {
  GeneratorConfig c;
  c.num_nodes = 80;
  c.num_events = 3000;
  c.median_gap_seconds = 30;
  c.prob_reply = 0.4;
  c.prob_repeat = 0.3;
  c.seed = seed;
  return GenerateTemporalNetwork(c);
}

TEST(Significance, ObservedCountsMatchDirectCounting) {
  const TemporalGraph g = ConversationalGraph(1);
  Rng rng(9);
  SignificanceConfig config;
  config.num_samples = 3;
  const auto scores =
      ComputeMotifSignificance(g, ThreeEvent(), config, &rng);
  const MotifCounts direct = CountMotifs(g, ThreeEvent());
  for (const auto& [code, sig] : scores) {
    EXPECT_EQ(sig.observed, direct.count(code)) << code;
  }
}

TEST(Significance, TimeShuffleFlagsConversationMotifs) {
  // Ping-pong chains exist only because of temporal correlation; a time
  // shuffle destroys them, so their z-scores are strongly positive.
  const TemporalGraph g = ConversationalGraph(2);
  Rng rng(10);
  SignificanceConfig config;
  config.reference = ReferenceModel::kTimeShuffle;
  config.num_samples = 8;
  const auto scores =
      ComputeMotifSignificance(g, ThreeEvent(), config, &rng);
  const auto it = scores.find("011010");  // Ask-reply-ask chain.
  ASSERT_NE(it, scores.end());
  EXPECT_GT(it->second.z_score, 2.0);
}

TEST(Significance, GapShuffleIsMoreConservative) {
  // The gap shuffle preserves global burstiness, so it reproduces more of
  // the real counts than the time shuffle (the paper: "too restrictive").
  const TemporalGraph g = ConversationalGraph(3);
  Rng rng(11);
  SignificanceConfig time_cfg{ReferenceModel::kTimeShuffle, 6};
  SignificanceConfig gap_cfg{ReferenceModel::kGapShuffle, 6};
  Rng rng2(11);
  const auto time_scores =
      ComputeMotifSignificance(g, ThreeEvent(), time_cfg, &rng);
  const auto gap_scores =
      ComputeMotifSignificance(g, ThreeEvent(), gap_cfg, &rng2);

  // Compare total reference mass: the gap shuffle keeps far more motifs.
  double time_mass = 0.0;
  double gap_mass = 0.0;
  for (const auto& [code, sig] : time_scores) time_mass += sig.reference_mean;
  for (const auto& [code, sig] : gap_scores) gap_mass += sig.reference_mean;
  EXPECT_GT(gap_mass, time_mass);
}

TEST(Significance, DegenerateEnsembleGivesZeroZScore) {
  // A graph whose shuffles are identical to itself (single event).
  const TemporalGraph g = GraphFromEvents({{0, 1, 5}, {1, 2, 6}});
  EnumerationOptions o;
  o.num_events = 2;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(100);
  Rng rng(12);
  SignificanceConfig config;
  config.reference = ReferenceModel::kLinkShuffle;
  config.num_samples = 4;
  const auto scores = ComputeMotifSignificance(g, o, config, &rng);
  for (const auto& [code, sig] : scores) {
    if (sig.reference_stddev == 0.0) {
      EXPECT_DOUBLE_EQ(sig.z_score, 0.0) << code;
    }
  }
}

}  // namespace
}  // namespace tmotif
