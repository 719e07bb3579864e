// Memory-budget degradation tests: under StreamConfig::store_budget_bytes
// the live-instance store must shed memory by turning itself off, never end
// a batch over budget, come back on with hysteresis when pressure clears —
// and through all of it the counts must stay bit-identical to from-scratch
// counting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
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

EnumerationOptions StaticInducedOpts(bool consecutive = false) {
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.inducedness = Inducedness::kStatic;
  o.consecutive_events_restriction = consecutive;
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
// store off, and once it clears the default hysteresis (4 calm batches
// under half the budget) must turn the store back on.
TEST(StreamBudget, RepromotesWhenPressureClears) {
  testing::FaultInjectionGuard guard;
  ForEachRandomGraph(
      0x9e0407e, 2, BudgetSpec(),
      [&](std::uint64_t seed, const TemporalGraph& g) {
        StreamConfig config;
        config.options = StaticInducedOpts();
        config.window = WindowPolicy::CountBased(14);
        config.store_budget_bytes = 1u << 20;  // Roomy; pressure drives it.

        // The point is consulted once per batch: spike batches 1 and 2.
        // 28 events / batch 4 = 7 batches, so four calm batches remain —
        // exactly the hysteresis.
        fault::FaultSpec spike;
        spike.skip_hits = 1;
        spike.max_fires = 2;
        spike.payload = 1 << 21;
        testing::ScopedFault pressure("stream.budget_pressure", spike);

        StreamingMotifCounter counter(config);
        bool saw_degraded = false;
        std::size_t batch_index = 0;
        for (std::size_t b = 0; b < g.events().size(); b += 4) {
          const std::size_t e = std::min(g.events().size(), b + 4);
          counter.Ingest(std::vector<Event>(
              g.events().begin() + static_cast<std::ptrdiff_t>(b),
              g.events().begin() + static_cast<std::ptrdiff_t>(e)));
          const MotifCounts expected =
              CountMotifs(counter.window_graph(), config.options);
          ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
              << "seed " << seed << " batch " << batch_index;
          if (counter.store_mode() != StoreMode::kFull) saw_degraded = true;
          ++batch_index;
        }
        EXPECT_EQ(pressure.fires(), 2u) << "seed " << seed;
        const IngestStats& stats = counter.stats();
        ASSERT_TRUE(saw_degraded) << "seed " << seed;
        ASSERT_EQ(stats.store_demotions_recount, 1u) << "seed " << seed;
        ASSERT_EQ(counter.store_mode(), StoreMode::kFull) << "seed " << seed;
        ASSERT_EQ(stats.store_promotions_full, 1u) << "seed " << seed;
      });
}

// An impossible budget turns the store off in the first batch that fills
// it — with and without an order predicate (tail tracking) — and the
// counter keeps counting exactly with the store off.
TEST(StreamBudget, ImpossibleBudgetReachesRecountMode) {
  for (const bool consecutive : {false, true}) {
    ForEachRandomGraph(
        0x1adde5, 2, BudgetSpec(),
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const std::string label = "seed " + std::to_string(seed) +
                                    (consecutive ? " consecutive" : "");
          StreamConfig config;
          config.options = StaticInducedOpts(consecutive);
          config.window = WindowPolicy::CountBased(14);
          config.store_budget_bytes = 1;
          IngestStats stats;
          ReplayExactUnderBudget(g.events(), config, 4, label, &stats);
          if (::testing::Test::HasFatalFailure()) return;
          EXPECT_EQ(stats.store_demotions_recount, 1u) << label;
          EXPECT_EQ(stats.store_promotions_full, 0u) << label;

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

// --- Compaction threshold (LiveInstanceStore::SetCompactionSlack). ---

// Zero slack compacts as soon as dead bucket refs outnumber live entries;
// a huge slack never compacts. Either way the buckets must surface exactly
// the same live entries: compaction is invisible to flip processing.
TEST(StreamBudget, CompactionSlackControlsBucketCompaction) {
  constexpr NodeId kNumNodes = 5;
  const auto churn = [](LiveInstanceStore* store) {
    // Insert anchors one by one and evict all but the newest four: every
    // eviction strands a bucket ref (the classic compaction driver) while
    // the survivors keep buckets populated.
    for (std::uint64_t id = 0; id < 64; ++id) {
      const std::uint64_t ids[1] = {id};
      const NodeId nodes[2] = {static_cast<NodeId>(id % kNumNodes),
                               static_cast<NodeId>((id + 1) % kNumNodes)};
      store->Insert(ids, 1, /*packed=*/0x01, nodes, 2, /*distinct=*/1,
                    /*covered=*/true, /*order_valid=*/true);
      if (id >= 4) {
        store->EvictFront(1, [](const LiveInstanceStore::Entry&) {});
      }
    }
  };
  // Anchor ids visited per node pair, in pair order.
  const auto touched = [](LiveInstanceStore* store) {
    std::vector<std::vector<std::uint64_t>> visits;
    for (NodeId u = 0; u < kNumNodes; ++u) {
      for (NodeId v = u + 1; v < kNumNodes; ++v) {
        std::vector<std::uint64_t> ids;
        store->ForEachTouching(u, v, [&](LiveInstanceStore::Entry& entry) {
          ids.push_back(entry.event_ids[0]);
        });
        std::sort(ids.begin(), ids.end());
        visits.push_back(ids);
      }
    }
    return visits;
  };

  LiveInstanceStore eager;
  eager.SetCompactionSlack(0);
  churn(&eager);
  EXPECT_GT(eager.compactions(), 0u);

  LiveInstanceStore lazy;
  lazy.SetCompactionSlack(1u << 20);
  churn(&lazy);
  EXPECT_EQ(lazy.compactions(), 0u);

  ASSERT_EQ(eager.size(), 4u);
  ASSERT_EQ(lazy.size(), 4u);
  const auto eager_visits = touched(&eager);
  EXPECT_EQ(eager_visits, touched(&lazy));
  std::size_t visited = 0;
  for (const auto& ids : eager_visits) visited += ids.size();
  EXPECT_EQ(visited, 4u);  // Each survivor spans exactly one pair.
}

}  // namespace
}  // namespace tmotif
