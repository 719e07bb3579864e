// Oracle-style differential tests for the null-model shuffles
// (nullmodels/shuffling.*) and their consumer, the significance analysis
// (analysis/significance.cc): every preserved quantity is recomputed
// independently from raw event lists, and the significance ensemble is
// re-derived from the public shuffle functions with an identically seeded
// generator — the same spirit as the enumeration oracle grid.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "analysis/significance.h"
#include "gen/generator.h"
#include "nullmodels/shuffling.h"

namespace tmotif {
namespace {

TemporalGraph TestGraph() {
  GeneratorConfig c;
  c.num_nodes = 40;
  c.num_events = 600;
  c.median_gap_seconds = 20;
  c.prob_reply = 0.35;
  c.prob_repeat = 0.2;
  c.seed = 4242;
  return GenerateTemporalNetwork(c);
}

using ShuffleFn = TemporalGraph (*)(const TemporalGraph&, Rng*);

struct NamedShuffle {
  const char* name;
  ShuffleFn fn;
};

const NamedShuffle kShuffles[] = {
    {"time-shuffle", &ShuffleTimestamps},
    {"gap-shuffle", &ShuffleInterEventTimes},
    {"link-shuffle", &ShuffleLinks},
    {"uniform-times", &UniformTimes},
};

/// Independent per-node in/out/incident degree computation from raw events.
struct Degrees {
  std::map<NodeId, int> out;
  std::map<NodeId, int> in;
  std::map<NodeId, int> incident;

  explicit Degrees(const TemporalGraph& g) {
    for (const Event& e : g.events()) {
      ++out[e.src];
      ++in[e.dst];
      ++incident[e.src];
      ++incident[e.dst];
    }
  }

  friend bool operator==(const Degrees& a, const Degrees& b) {
    return a.out == b.out && a.in == b.in && a.incident == b.incident;
  }
};

// Every reference model permutes either timestamps or endpoint pairs across
// events, so the per-node event-count profile (temporal in/out/incident
// degrees) must survive every shuffle exactly.
TEST(NullModelOracle, EveryShufflePreservesDegreeProfiles) {
  const TemporalGraph g = TestGraph();
  const Degrees before(g);
  std::uint64_t seed = 900;
  for (const NamedShuffle& shuffle : kShuffles) {
    SCOPED_TRACE(shuffle.name);
    Rng rng(seed++);
    const TemporalGraph shuffled = shuffle.fn(g, &rng);
    ASSERT_EQ(shuffled.num_events(), g.num_events());
    EXPECT_TRUE(Degrees(shuffled) == before);
    // The graph-side incident index must agree with the raw recomputation.
    const Degrees after(shuffled);
    for (const auto& [node, count] : after.incident) {
      EXPECT_EQ(shuffled.incident(node).size(),
                static_cast<std::size_t>(count))
          << "node " << node;
    }
  }
}

// Timestamp-permuting shuffles must preserve the timestamp multiset
// exactly; recomputed independently instead of via graph accessors.
TEST(NullModelOracle, TimePermutationsPreserveTimestampMultiset) {
  const TemporalGraph g = TestGraph();
  std::multiset<Timestamp> original;
  for (const Event& e : g.events()) original.insert(e.time);

  for (const NamedShuffle& shuffle :
       {kShuffles[0] /*time*/, kShuffles[2] /*link*/}) {
    SCOPED_TRACE(shuffle.name);
    Rng rng(77);
    const TemporalGraph shuffled = shuffle.fn(g, &rng);
    std::multiset<Timestamp> permuted;
    for (const Event& e : shuffled.events()) permuted.insert(e.time);
    EXPECT_TRUE(permuted == original);
  }
}

/// Reference draw matching significance.cc's dispatch, built only from the
/// public shuffle API.
TemporalGraph DrawLikeSignificance(const TemporalGraph& g,
                                   ReferenceModel model, Rng* rng) {
  switch (model) {
    case ReferenceModel::kTimeShuffle: return ShuffleTimestamps(g, rng);
    case ReferenceModel::kGapShuffle: return ShuffleInterEventTimes(g, rng);
    case ReferenceModel::kLinkShuffle: return ShuffleLinks(g, rng);
    case ReferenceModel::kUniformTimes: return UniformTimes(g, rng);
  }
  return ShuffleTimestamps(g, rng);
}

// The significance z-scores must be exactly reproducible from the public
// pieces: an identically seeded Rng, the same shuffle sequence, and
// CountMotifs over each reference draw. This pins down both determinism
// under a fixed seed and the ensemble arithmetic.
TEST(NullModelOracle, SignificanceMatchesIndependentEnsemble) {
  const TemporalGraph g = TestGraph();
  EnumerationOptions options;
  options.num_events = 3;
  options.max_nodes = 3;
  options.timing = TimingConstraints::Both(120, 240);

  for (const ReferenceModel model :
       {ReferenceModel::kTimeShuffle, ReferenceModel::kGapShuffle,
        ReferenceModel::kLinkShuffle, ReferenceModel::kUniformTimes}) {
    SCOPED_TRACE(static_cast<int>(model));
    SignificanceConfig config;
    config.reference = model;
    config.num_samples = 6;

    Rng rng(0xfeed);
    const auto result = ComputeMotifSignificance(g, options, config, &rng);
    ASSERT_FALSE(result.empty());

    // Independent ensemble with an identically seeded generator.
    Rng oracle_rng(0xfeed);
    const MotifCounts observed = CountMotifs(g, options);
    std::vector<MotifCounts> ensemble;
    for (int s = 0; s < config.num_samples; ++s) {
      ensemble.push_back(
          CountMotifs(DrawLikeSignificance(g, model, &oracle_rng), options));
    }

    std::set<MotifCode> codes;
    for (const auto& [code, count] : observed.SortedByCode()) {
      codes.insert(code);
    }
    for (const MotifCounts& sample : ensemble) {
      for (const auto& [code, count] : sample.SortedByCode()) {
        codes.insert(code);
      }
    }
    ASSERT_EQ(result.size(), codes.size());

    for (const MotifCode& code : codes) {
      SCOPED_TRACE(code);
      const auto it = result.find(code);
      ASSERT_TRUE(it != result.end());
      EXPECT_EQ(it->second.observed, observed.count(code));
      double mean = 0.0;
      for (const MotifCounts& sample : ensemble) {
        mean += static_cast<double>(sample.count(code));
      }
      mean /= config.num_samples;
      double variance = 0.0;
      for (const MotifCounts& sample : ensemble) {
        const double d = static_cast<double>(sample.count(code)) - mean;
        variance += d * d;
      }
      variance /= config.num_samples;
      EXPECT_DOUBLE_EQ(it->second.reference_mean, mean);
      EXPECT_DOUBLE_EQ(it->second.reference_stddev, std::sqrt(variance));
      const double expected_z =
          std::sqrt(variance) > 0.0
              ? (static_cast<double>(observed.count(code)) - mean) /
                    std::sqrt(variance)
              : 0.0;
      EXPECT_DOUBLE_EQ(it->second.z_score, expected_z);
    }
  }
}

// Two runs under the same seed must agree bitwise; a different seed must
// draw a different ensemble (checked via the reference means as a whole, on
// the loosest model where collisions are vanishingly unlikely).
TEST(NullModelOracle, SignificanceDeterministicUnderFixedSeed) {
  const TemporalGraph g = TestGraph();
  EnumerationOptions options;
  options.num_events = 3;
  options.max_nodes = 3;
  options.timing = TimingConstraints::Both(120, 240);
  SignificanceConfig config;
  config.reference = ReferenceModel::kUniformTimes;
  config.num_samples = 5;

  Rng rng_a(31337);
  Rng rng_b(31337);
  const auto a = ComputeMotifSignificance(g, options, config, &rng_a);
  const auto b = ComputeMotifSignificance(g, options, config, &rng_b);
  ASSERT_EQ(a.size(), b.size());
  bool any_spread = false;
  for (const auto& [code, sig] : a) {
    const auto it = b.find(code);
    ASSERT_TRUE(it != b.end()) << code;
    EXPECT_EQ(sig.observed, it->second.observed) << code;
    EXPECT_EQ(sig.reference_mean, it->second.reference_mean) << code;
    EXPECT_EQ(sig.reference_stddev, it->second.reference_stddev) << code;
    EXPECT_EQ(sig.z_score, it->second.z_score) << code;
    if (sig.reference_stddev > 0.0) any_spread = true;
  }
  EXPECT_TRUE(any_spread);

  Rng rng_c(404);
  const auto c = ComputeMotifSignificance(g, options, config, &rng_c);
  bool any_difference = c.size() != a.size();
  for (const auto& [code, sig] : a) {
    const auto it = c.find(code);
    if (it == c.end() || it->second.reference_mean != sig.reference_mean) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace tmotif
