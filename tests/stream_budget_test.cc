// Memory-budget degradation tests: under StreamConfig::store_budget_bytes
// the live-instance store must shed memory by turning itself off, never end
// a batch over budget, stay off once it is off — and through all of it the
// counts must stay bit-identical to from-scratch counting.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_points.h"
#include "core/counter.h"
#include "obs/metrics.h"
#include "stream/instance_store.h"
#include "stream/streaming_counter.h"
#include "testing/fault_injection.h"
#include "testing/random_graphs.h"

namespace tmotif {
namespace {

using testing::ForEachRandomGraph;
using testing::RandomGraphSpec;

RandomGraphSpec BudgetSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 6;
  spec.num_events = 28;
  spec.max_time = 64;
  spec.prob_duplicate_time = 0.3;
  return spec;
}

EnumerationOptions StaticInducedOpts() {
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.inducedness = Inducedness::kStatic;
  return o;
}

/// Replays `all` through `config`, asserting after every batch that the
/// counts are exact and the footprint respects the budget. `out_stats`
/// receives the final stats (ASSERT macros force a void return).
void ReplayExactUnderBudget(const std::vector<Event>& all,
                            const StreamConfig& config,
                            std::size_t batch_size, const std::string& label,
                            IngestStats* out_stats) {
  StreamingMotifCounter counter(config);
  for (std::size_t b = 0; b < all.size(); b += batch_size) {
    const std::size_t e = std::min(all.size(), b + batch_size);
    counter.Ingest(std::vector<Event>(
        all.begin() + static_cast<std::ptrdiff_t>(b),
        all.begin() + static_cast<std::ptrdiff_t>(e)));
    const MotifCounts expected =
        CountMotifs(counter.window_graph(), config.options);
    ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
        << label << " after event " << e << " in mode "
        << static_cast<int>(counter.store_mode());
    if (config.store_budget_bytes > 0) {
      ASSERT_LE(counter.store_approx_bytes(), config.store_budget_bytes)
          << label << " after event " << e << ": batch ended over budget in "
          << "mode " << static_cast<int>(counter.store_mode());
    }
  }
  *out_stats = counter.stats();
}

// Two-pass differential: measure the unbudgeted peak, then cap below it
// and demand (a) demotions happened, (b) the budget held after every
// batch, (c) the counts never changed.
TEST(StreamBudget, DegradesUnderBudgetWithoutChangingCounts) {
  std::uint64_t demotions_seen = 0;
  ForEachRandomGraph(
      0xb0d9e7, 4, BudgetSpec(), [&](std::uint64_t seed, const TemporalGraph& g) {
        StreamConfig config;
        config.options = StaticInducedOpts();
        config.window = WindowPolicy::CountBased(14);

        // Pass 1: unbudgeted peak footprint.
        std::size_t peak = 0;
        {
          StreamingMotifCounter counter(config);
          for (std::size_t b = 0; b < g.events().size(); b += 4) {
            const std::size_t e = std::min(g.events().size(), b + 4);
            counter.Ingest(std::vector<Event>(
                g.events().begin() + static_cast<std::ptrdiff_t>(b),
                g.events().begin() + static_cast<std::ptrdiff_t>(e)));
            peak = std::max(peak, counter.store_approx_bytes());
          }
        }
        ASSERT_GT(peak, 0u) << "seed " << seed;

        // Pass 2: cap at half the peak.
        config.store_budget_bytes = peak / 2;
        IngestStats stats;
        ReplayExactUnderBudget(g.events(), config, 4,
                               "seed " + std::to_string(seed), &stats);
        demotions_seen += stats.store_demotions_recount;
        if (::testing::Test::HasFatalFailure()) return;
      });
  EXPECT_GT(demotions_seen, 0u);
}

// A pressure spike (the stream.budget_pressure fault point) must turn the
// store off, and the store must stay off through the calm batches after
// it: the budget is a one-way switch.
TEST(StreamBudget, StoreStaysOffWhenPressureClears) {
  testing::FaultInjectionGuard guard;
  ForEachRandomGraph(
      0x9e0407e, 2, BudgetSpec(),
      [&](std::uint64_t seed, const TemporalGraph& g) {
        StreamConfig config;
        config.options = StaticInducedOpts();
        config.window = WindowPolicy::CountBased(14);
        config.store_budget_bytes = 1u << 20;  // Roomy; pressure drives it.

        // Spike batches 1 and 2; 28 events / batch 4 = 7 batches, so four
        // calm batches follow. The point is consulted only while the store
        // is on, so the spike's second fire never comes.
        fault::FaultSpec spike;
        spike.skip_hits = 1;
        spike.max_fires = 2;
        spike.payload = 1 << 21;
        testing::ScopedFault pressure("stream.budget_pressure", spike);

        StreamingMotifCounter counter(config);
        std::size_t batch_index = 0;
        for (std::size_t b = 0; b < g.events().size(); b += 4) {
          const std::size_t e = std::min(g.events().size(), b + 4);
          counter.Ingest(std::vector<Event>(
              g.events().begin() + static_cast<std::ptrdiff_t>(b),
              g.events().begin() + static_cast<std::ptrdiff_t>(e)));
          const std::string label =
              "seed " + std::to_string(seed) + " batch " +
              std::to_string(batch_index);
          const MotifCounts expected =
              CountMotifs(counter.window_graph(), config.options);
          ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
              << label;
          const bool off = batch_index >= 1;
          ASSERT_EQ(counter.store_mode(),
                    off ? StoreMode::kRecount : StoreMode::kFull)
              << label;
          ASSERT_EQ(counter.stats().store_demotions_recount, off ? 1u : 0u)
              << label;
          ++batch_index;
        }
        EXPECT_EQ(batch_index, 7u) << "seed " << seed;
        EXPECT_EQ(pressure.fires(), 1u) << "seed " << seed;
      });
}

// An impossible budget turns the store off in the first batch that fills
// it, and the counter keeps counting exactly with the store off. (Static
// inducedness with an order predicate keeps no store at all; see
// StaticOrderConfigsStreamStoreOff in stream_test.cc.)
TEST(StreamBudget, ImpossibleBudgetReachesRecountMode) {
  ForEachRandomGraph(
      0x1adde5, 2, BudgetSpec(),
      [&](std::uint64_t seed, const TemporalGraph& g) {
        const std::string label = "seed " + std::to_string(seed);
        StreamConfig config;
        config.options = StaticInducedOpts();
        config.window = WindowPolicy::CountBased(14);
        config.store_budget_bytes = 1;
        IngestStats stats;
        ReplayExactUnderBudget(g.events(), config, 4, label, &stats);
        if (::testing::Test::HasFatalFailure()) return;
        EXPECT_EQ(stats.store_demotions_recount, 1u) << label;

        StreamingMotifCounter counter(config);
        counter.Ingest(g.events());
        const MotifCounts expected =
            CountMotifs(counter.window_graph(), config.options);
        ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
            << label;
        EXPECT_EQ(counter.store_mode(), StoreMode::kRecount) << label;
        EXPECT_FALSE(counter.store_active()) << label;
        EXPECT_EQ(counter.store_approx_bytes(), 0u) << label;
      });
}

// Every store transition must be visible in the exported metrics. The
// registry is process-global, so assert growth, not absolute values.
TEST(StreamBudget, TransitionsAreExportedAsMetrics) {
  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  const std::uint64_t demotions_before =
      registry.GetCounter("stream.store_demotions_recount")->Value();

  ForEachRandomGraph(
      0x3e71c, 1, BudgetSpec(), [&](std::uint64_t, const TemporalGraph& g) {
        StreamConfig config;
        config.options = StaticInducedOpts();
        config.window = WindowPolicy::CountBased(14);
        config.store_budget_bytes = 1;
        StreamingMotifCounter counter(config);
        counter.Ingest(g.events());
        EXPECT_EQ(counter.store_mode(), StoreMode::kRecount);
      });

  const std::uint64_t demotions_after =
      registry.GetCounter("stream.store_demotions_recount")->Value();
  EXPECT_GT(demotions_after, demotions_before);
  // The mode gauge reports the latest published state (kRecount = 2).
  EXPECT_EQ(registry.GetGauge("stream.store_mode")->Value(), 2);
}

// --- Compaction threshold (LiveInstanceStore::kCompactionSlack). ---

// The store compacts its buckets once the dead bucket refs outnumber the
// live entries by more than kCompactionSlack. One eviction short of that,
// it has never compacted; at it, it has compacted once. Either way the
// buckets surface exactly the surviving entries: compaction is invisible
// to flip processing.
TEST(StreamBudget, CompactionSlackControlsBucketCompaction) {
  constexpr NodeId kNumNodes = 5;
  constexpr std::uint64_t kSurvivors = 4;
  // Each 2-node entry holds one bucket ref, and each eviction strands it
  // while the survivors stay live, so this many evictions push the debt
  // past the slack.
  constexpr std::uint64_t kCompactingEvictions =
      LiveInstanceStore::kCompactionSlack + kSurvivors + 1;
  const auto pair_of = [](std::uint64_t id) {
    return std::array<NodeId, 2>{static_cast<NodeId>(id % kNumNodes),
                                 static_cast<NodeId>((id + 1) % kNumNodes)};
  };
  for (const std::uint64_t evictions :
       {kCompactingEvictions - 1, kCompactingEvictions}) {
    // Insert anchors one by one and evict all but the newest four. The
    // store never reads `packed`, so each entry carries its anchor id
    // there as a tag.
    LiveInstanceStore store;
    const std::uint64_t num_anchors = evictions + kSurvivors;
    for (std::uint64_t id = 0; id < num_anchors; ++id) {
      const std::array<NodeId, 2> nodes = pair_of(id);
      store.Insert(id, /*packed=*/id, nodes.data(), 2, /*distinct=*/1,
                   /*covered=*/true);
      if (id >= kSurvivors) {
        store.EvictFront(1, [](const LiveInstanceStore::Entry&) {});
      }
    }
    EXPECT_EQ(store.compactions(), evictions == kCompactingEvictions ? 1u : 0u)
        << evictions << " evictions";
    ASSERT_EQ(store.size(), kSurvivors);

    // Tags (anchor ids) of the entries visited per node pair, against the
    // survivors that span each pair.
    for (NodeId u = 0; u < kNumNodes; ++u) {
      for (NodeId v = u + 1; v < kNumNodes; ++v) {
        std::vector<std::uint64_t> visited;
        store.ForEachTouching(u, v, [&](LiveInstanceStore::Entry& entry) {
          visited.push_back(entry.packed);
        });
        std::sort(visited.begin(), visited.end());
        std::vector<std::uint64_t> expected;
        for (std::uint64_t id = evictions; id < num_anchors; ++id) {
          const std::array<NodeId, 2> nodes = pair_of(id);
          if (std::min(nodes[0], nodes[1]) == u &&
              std::max(nodes[0], nodes[1]) == v) {
            expected.push_back(id);
          }
        }
        EXPECT_EQ(visited, expected)
            << evictions << " evictions, pair " << u << "-" << v;
      }
    }
  }
}

}  // namespace
}  // namespace tmotif
