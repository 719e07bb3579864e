// Cross-model property sweeps: invariants that must hold for every model
// on every dataset preset, plus an independent dynamic-programming
// cross-check of the motif-code spectrum sizes.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/counter.h"
#include "core/models/model_info.h"
#include "core/motif_code.h"
#include "gen/presets.h"

namespace tmotif {
namespace {

// ---------------------------------------------------------------------------
// Model invariants across datasets.
// ---------------------------------------------------------------------------

struct ModelCase {
  const char* name;
  ModelId model;
  DatasetId dataset;
  double scale;
};

std::ostream& operator<<(std::ostream& os, const ModelCase& c) {
  return os << c.name;
}

class ModelPropertyTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ModelPropertyTest, InvariantsHoldOnPreset) {
  const ModelCase& c = GetParam();
  const TemporalGraph graph = GenerateDataset(c.dataset, c.scale, 7);
  const EnumerationOptions options =
      OptionsForModel(c.model, 3, 3, /*delta_c=*/1500, /*delta_w=*/3000);

  // 1. Deterministic.
  const MotifCounts first = CountMotifs(graph, options);
  const MotifCounts second = CountMotifs(graph, options);
  EXPECT_EQ(first.total(), second.total());

  // 2. Never exceeds the unrestricted count under the same timing.
  EnumerationOptions vanilla = options;
  vanilla.consecutive_events_restriction = false;
  vanilla.cdg_restriction = false;
  vanilla.inducedness = Inducedness::kNone;
  EXPECT_LE(first.total(), CountInstances(graph, vanilla));

  // 3. Every emitted code is a valid canonical <= 3-node 3-event code.
  for (const auto& [code, count] : first.SortedByCode()) {
    EXPECT_TRUE(IsValidCode(code)) << code;
    EXPECT_EQ(CodeNumEvents(code), 3);
    EXPECT_LE(CodeNumNodes(code), 3);
    EXPECT_GT(count, 0u);
  }

  // 4. Every instance passes the standalone validator.
  std::uint64_t checked = 0;
  EnumerateInstances(graph, options, [&](const MotifInstance& m) {
    if (++checked > 500) return;  // Spot-check a prefix.
    const std::vector<EventIndex> inst(m.event_indices,
                                       m.event_indices + m.num_events);
    EXPECT_TRUE(IsValidInstance(graph, inst, options));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelPropertyTest,
    ::testing::Values(
        ModelCase{"kovanen_sms", ModelId::kKovanen,
                  DatasetId::kSmsCopenhagen, 0.2},
        ModelCase{"kovanen_bitcoin", ModelId::kKovanen,
                  DatasetId::kBitcoinOtc, 0.15},
        ModelCase{"song_sms", ModelId::kSong, DatasetId::kSmsCopenhagen,
                  0.2},
        ModelCase{"song_calls", ModelId::kSong,
                  DatasetId::kCallsCopenhagen, 1.0},
        ModelCase{"hulovatyy_sms", ModelId::kHulovatyy,
                  DatasetId::kSmsCopenhagen, 0.2},
        ModelCase{"hulovatyy_college", ModelId::kHulovatyy,
                  DatasetId::kCollegeMsg, 0.08},
        ModelCase{"paranjape_calls", ModelId::kParanjape,
                  DatasetId::kCallsCopenhagen, 1.0},
        ModelCase{"paranjape_stackoverflow", ModelId::kParanjape,
                  DatasetId::kStackOverflow, 0.002}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Spectrum sizes cross-checked against an independent DP.
// ---------------------------------------------------------------------------

// Counts canonical k-event, <= max_nodes codes by the growth recurrence:
// a state is (events placed, nodes seen); each next event picks an ordered
// pair of distinct endpoints where at most one is the next fresh node.
std::uint64_t SpectrumSizeByDp(int num_events, int max_nodes) {
  // dp[nodes_seen] = number of prefixes with that many nodes.
  std::vector<std::uint64_t> dp(static_cast<std::size_t>(max_nodes) + 2, 0);
  dp[2] = 1;  // The forced first event "01".
  for (int e = 1; e < num_events; ++e) {
    std::vector<std::uint64_t> next(dp.size(), 0);
    for (int n = 2; n <= max_nodes; ++n) {
      if (dp[static_cast<std::size_t>(n)] == 0) continue;
      // Both endpoints among the n seen nodes: n*(n-1) ordered pairs.
      next[static_cast<std::size_t>(n)] +=
          dp[static_cast<std::size_t>(n)] *
          static_cast<std::uint64_t>(n * (n - 1));
      // One endpoint is the fresh node (2 orientations, n partners).
      if (n + 1 <= max_nodes) {
        next[static_cast<std::size_t>(n + 1)] +=
            dp[static_cast<std::size_t>(n)] *
            static_cast<std::uint64_t>(2 * n);
      }
    }
    dp = next;
  }
  std::uint64_t total = 0;
  for (const std::uint64_t v : dp) total += v;
  return total;
}

struct SpectrumCase {
  int num_events;
  int max_nodes;
};

class SpectrumSizeTest
    : public ::testing::TestWithParam<SpectrumCase> {};

TEST_P(SpectrumSizeTest, EnumerationMatchesDp) {
  const auto [k, n] = GetParam();
  EXPECT_EQ(EnumerateCodes(k, n).size(), SpectrumSizeByDp(k, n))
      << "k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpectrumSizeTest,
    ::testing::Values(SpectrumCase{1, 2}, SpectrumCase{2, 2},
                      SpectrumCase{2, 3}, SpectrumCase{3, 2},
                      SpectrumCase{3, 3}, SpectrumCase{3, 4},
                      SpectrumCase{4, 2}, SpectrumCase{4, 3},
                      SpectrumCase{4, 4}, SpectrumCase{4, 5},
                      SpectrumCase{5, 4}, SpectrumCase{5, 6}),
    [](const ::testing::TestParamInfo<SpectrumCase>& info) {
      return "k" + std::to_string(info.param.num_events) + "n" +
             std::to_string(info.param.max_nodes);
    });

TEST(SpectrumSize, PaperTotals) {
  // The two spectrum sizes quoted throughout the paper.
  EXPECT_EQ(SpectrumSizeByDp(3, 3), 36u);
  EXPECT_EQ(SpectrumSizeByDp(4, 4), 696u);
}

}  // namespace
}  // namespace tmotif
