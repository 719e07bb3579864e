// Differential tests for the streaming subsystem: events of seeded oracle
// graphs are replayed through StreamingMotifCounter in batches, and after
// EVERY batch the incrementally maintained counts must exactly equal a
// from-scratch CountMotifs / CountInstances of the window's event set. The
// expected window is computed by an independent reimplementation of the
// policy semantics, so the window bookkeeping is cross-checked too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/timespan_analysis.h"
#include "core/models/model_info.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "stream/streaming_counter.h"
#include "testing/random_graphs.h"

namespace tmotif {
namespace {

using testing::ForEachRandomGraph;
using testing::RandomGraphSpec;

RandomGraphSpec SmallSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 6;
  spec.num_events = 16;
  spec.max_time = 48;
  spec.prob_duplicate_time = 0.25;
  return spec;
}

RandomGraphSpec DenseSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 4;
  spec.num_events = 14;
  spec.max_time = 20;
  spec.prob_duplicate_time = 0.4;
  return spec;
}

RandomGraphSpec DurationSpec() {
  RandomGraphSpec spec = SmallSpec();
  spec.max_duration = 12;
  return spec;
}

/// Independent reimplementation of the window semantics: the policy-kept
/// subset of the first `prefix` canonical events.
std::vector<Event> ExpectedWindow(const std::vector<Event>& all,
                                  std::size_t prefix,
                                  const WindowPolicy& policy) {
  std::vector<Event> seen(all.begin(),
                          all.begin() + static_cast<std::ptrdiff_t>(prefix));
  if (policy.kind == WindowPolicyKind::kCountBased) {
    const std::size_t cap = static_cast<std::size_t>(policy.max_events);
    if (seen.size() > cap) seen.erase(seen.begin(), seen.end() - cap);
    return seen;
  }
  // `all` is canonically ordered, so the clock is the last seen timestamp
  // (do NOT fold in a zero start: streams may live in negative time).
  const Timestamp latest = seen.empty() ? 0 : seen.back().time;
  std::vector<Event> kept;
  for (const Event& e : seen) {
    if (e.time > latest - policy.horizon) kept.push_back(e);
  }
  return kept;
}

std::string DescribeCounts(const MotifCounts& counts) {
  std::string out;
  for (const auto& [code, count] : counts.SortedByCode()) {
    out += code + ":" + std::to_string(count) + " ";
  }
  return out.empty() ? "(empty)" : out;
}

/// Aggregated ingest stats across every differential replay, so the suite
/// can assert at the end that the grid really exercised each maintenance
/// path (tie corrections, static fallbacks, retractions) instead of only
/// agreeing on easy cases.
IngestStats g_grid_stats;

void AccumulateGridStats(const IngestStats& stats) {
  g_grid_stats.instances_added += stats.instances_added;
  g_grid_stats.instances_retracted += stats.instances_retracted;
  g_grid_stats.tie_corrections += stats.tie_corrections;
  g_grid_stats.full_recounts += stats.full_recounts;
  g_grid_stats.static_fallbacks += stats.static_fallbacks;
  g_grid_stats.store_flip_batches += stats.store_flip_batches;
  g_grid_stats.store_admitted += stats.store_admitted;
  g_grid_stats.store_retired += stats.store_retired;
}

/// Replays `graph`'s events through a streaming counter and checks every
/// snapshot against from-scratch counting. `nonzero_snapshots` (optional)
/// accumulates snapshots with nonzero counts so callers can assert the case
/// actually exercised something.
void ReplayAndCheck(const TemporalGraph& graph,
                    const EnumerationOptions& options,
                    const WindowPolicy& policy, std::size_t batch_size,
                    const std::string& label,
                    int* nonzero_snapshots = nullptr,
                    std::size_t store_budget_bytes = 0) {
  StreamConfig config;
  config.options = options;
  config.window = policy;
  config.store_budget_bytes = store_budget_bytes;
  StreamingMotifCounter counter(config);

  const std::vector<Event>& all = graph.events();
  for (std::size_t begin = 0; begin < all.size(); begin += batch_size) {
    const std::size_t end = std::min(all.size(), begin + batch_size);
    counter.Ingest(std::vector<Event>(
        all.begin() + static_cast<std::ptrdiff_t>(begin),
        all.begin() + static_cast<std::ptrdiff_t>(end)));

    const std::vector<Event> window = ExpectedWindow(all, end, policy);
    const TemporalGraph expect_graph = GraphFromEvents(window);
    const MotifCounts expected = CountMotifs(expect_graph, options);

    ASSERT_EQ(counter.window_size(), window.size())
        << label << " after " << end << " events";
    ASSERT_EQ(counter.total(), expected.total())
        << label << " after " << end << " events: streaming="
        << DescribeCounts(counter.counts())
        << " batch=" << DescribeCounts(expected);
    ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
        << label << " after " << end << " events: streaming="
        << DescribeCounts(counter.counts())
        << " batch=" << DescribeCounts(expected);
    ASSERT_EQ(counter.total(), CountInstances(expect_graph, options))
        << label << " after " << end << " events";
    if (counter.total() > 0 && nonzero_snapshots != nullptr) {
      ++*nonzero_snapshots;
    }
  }
  AccumulateGridStats(counter.stats());
}

struct StreamCase {
  const char* name;
  EnumerationOptions options;
  RandomGraphSpec spec;
  int num_graphs = 8;
  /// Store memory budget (0 = unlimited). 1 byte turns the live-instance
  /// store off as soon as it holds anything, so static flips take the
  /// store-off path: a window recount per flip batch.
  std::size_t store_budget_bytes = 0;
};

std::ostream& operator<<(std::ostream& os, const StreamCase& c) {
  return os << c.name;
}

EnumerationOptions Opts(int k, int max_nodes, TimingConstraints timing = {},
                        bool consecutive = false, bool cdg = false,
                        Inducedness inducedness = Inducedness::kNone,
                        bool duration_aware = false) {
  EnumerationOptions o;
  o.num_events = k;
  o.max_nodes = max_nodes;
  o.timing = timing;
  o.consecutive_events_restriction = consecutive;
  o.cdg_restriction = cdg;
  o.inducedness = inducedness;
  o.duration_aware_gaps = duration_aware;
  return o;
}

class StreamDifferentialTest : public ::testing::TestWithParam<StreamCase> {};

// Every option set is replayed under both window policies and two batch
// sizes; batch size 1 exercises per-event maintenance, batch size 3 the
// merge and multi-event deltas.
TEST_P(StreamDifferentialTest, StreamingMatchesBatchOnEverySnapshot) {
  const StreamCase& c = GetParam();
  const std::vector<WindowPolicy> policies = {
      WindowPolicy::CountBased(8), WindowPolicy::CountBased(12),
      WindowPolicy::TimeBased(16), WindowPolicy::TimeBased(30)};
  std::uint64_t base_seed = 0x57ea4;
  for (const char* p = c.name; *p != '\0'; ++p) {
    base_seed = base_seed * 131 + static_cast<std::uint64_t>(*p);
  }
  int nonzero = 0;
  ForEachRandomGraph(
      base_seed, c.num_graphs, c.spec,
      [&](std::uint64_t seed, const TemporalGraph& g) {
        for (const WindowPolicy& policy : policies) {
          for (const std::size_t batch_size : {std::size_t{1}, std::size_t{3}}) {
            ReplayAndCheck(
                g, c.options, policy, batch_size,
                std::string(c.name) + " seed=" + std::to_string(seed) +
                    " window=" + policy.ToString() +
                    " batch=" + std::to_string(batch_size),
                &nonzero, c.store_budget_bytes);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      });
  // The grid must actually count something, not just agree on zero.
  EXPECT_GT(nonzero, 0) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamDifferentialTest,
    ::testing::Values(
        // The four published model presets at two dC/dW settings each.
        StreamCase{"kovanen_tight",
                   OptionsForModel(ModelId::kKovanen, 3, 3, 6, 0), DenseSpec()},
        StreamCase{"kovanen_loose",
                   OptionsForModel(ModelId::kKovanen, 3, 3, 14, 0),
                   SmallSpec()},
        StreamCase{"song_tight", OptionsForModel(ModelId::kSong, 3, 3, 0, 8),
                   DenseSpec()},
        StreamCase{"song_loose", OptionsForModel(ModelId::kSong, 3, 3, 0, 20),
                   SmallSpec()},
        StreamCase{"hulovatyy_tight",
                   OptionsForModel(ModelId::kHulovatyy, 3, 3, 6, 0),
                   DenseSpec()},
        StreamCase{"hulovatyy_loose",
                   OptionsForModel(ModelId::kHulovatyy, 3, 3, 14, 0),
                   SmallSpec()},
        StreamCase{"paranjape_tight",
                   OptionsForModel(ModelId::kParanjape, 3, 3, 0, 8),
                   DenseSpec()},
        StreamCase{"paranjape_loose",
                   OptionsForModel(ModelId::kParanjape, 3, 3, 0, 20),
                   SmallSpec()},
        // Custom configurations covering each non-local predicate and the
        // unbounded-timing path (no first-event range pruning).
        StreamCase{"vanilla_unbounded", Opts(2, 3), SmallSpec()},
        StreamCase{"vanilla_dc_dw", Opts(3, 3, TimingConstraints::Both(8, 12)),
                   SmallSpec()},
        // dC on the fast path: without a store every batch takes its
        // deltas; with dC <= dW / 2 only dC binds.
        StreamCase{"vanilla_dc", Opts(3, 3, TimingConstraints::OnlyDeltaC(8)),
                   DenseSpec()},
        StreamCase{"vanilla_dc_implied_dw",
                   Opts(3, 3, TimingConstraints::Both(6, 12)), SmallSpec()},
        StreamCase{"consecutive_unbounded", Opts(3, 3, {}, true), DenseSpec()},
        StreamCase{"cdg_dc",
                   Opts(3, 3, TimingConstraints::OnlyDeltaC(10), false, true),
                   DenseSpec()},
        StreamCase{"induced_temporal_dw",
                   Opts(3, 3, TimingConstraints::OnlyDeltaW(14), false, false,
                        Inducedness::kTemporalWindow),
                   DenseSpec()},
        StreamCase{"induced_static_unbounded",
                   Opts(3, 3, {}, false, false, Inducedness::kStatic),
                   DenseSpec()},
        // The store-off state a memory budget forces must stay exact —
        // these twin cases keep its flip recounts and its delta path
        // between flips under differential coverage.
        StreamCase{"induced_static_degraded",
                   Opts(3, 3, {}, false, false, Inducedness::kStatic),
                   DenseSpec(), 8, /*store_budget_bytes=*/1},
        StreamCase{"paranjape_tight_degraded",
                   OptionsForModel(ModelId::kParanjape, 3, 3, 0, 8),
                   DenseSpec(), 6, /*store_budget_bytes=*/1},
        StreamCase{"hulovatyy_tight_degraded",
                   OptionsForModel(ModelId::kHulovatyy, 3, 3, 6, 0),
                   DenseSpec(), 6, /*store_budget_bytes=*/1},
        StreamCase{"duration_aware_dc",
                   Opts(3, 3, TimingConstraints::OnlyDeltaC(10), false, false,
                        Inducedness::kNone, true),
                   DurationSpec()},
        StreamCase{"kitchen_sink",
                   Opts(3, 3, TimingConstraints::Both(9, 14), true, true,
                        Inducedness::kStatic),
                   DenseSpec(), 6},
        StreamCase{"k4_dw", Opts(4, 4, TimingConstraints::OnlyDeltaW(16)),
                   SmallSpec(), 4},
        StreamCase{"k1", Opts(1, 2), DenseSpec(), 4},
        // k = 1 static inducedness streams on the store (anchor
        // renumbering within a tie group); static inducedness combined
        // with an order predicate (here and in kitchen_sink) streams
        // store-off: flip batches recount, the rest take the six phases.
        StreamCase{"k1_static",
                   Opts(1, 2, {}, false, false, Inducedness::kStatic),
                   DenseSpec(), 4},
        StreamCase{"static_consecutive",
                   Opts(3, 3, {}, true, false, Inducedness::kStatic),
                   DenseSpec(), 6},
        StreamCase{"static_cdg",
                   Opts(3, 3, TimingConstraints::OnlyDeltaC(10), false, true,
                        Inducedness::kStatic),
                   DenseSpec(), 6}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return std::string(info.param.name);
    });

// The store-off window recount of a config without the k <= 3 fast path
// is the one streaming path split over StreamConfig::num_threads. Full
// window turnovers recount windows above internal::kMinParallelEvents with
// 4 threads, both without a store (Kovanen) and with the store turned off
// by a 1-byte budget (static inducedness where dC and dW both bind); after
// every batch the counts must equal a serial counter's, and every such
// recount must have spawned shards.
TEST(StreamingMotifCounter, ThreadedWindowRecountMatchesSerial) {
  const std::size_t kWindow =
      static_cast<std::size_t>(internal::kMinParallelEvents) + 64;
  RandomGraphSpec spec;
  spec.num_nodes = 16;
  spec.num_events = static_cast<int>(4 * kWindow);
  spec.max_time = static_cast<Timestamp>(8 * kWindow);
  struct Case {
    const char* name;
    EnumerationOptions options;
    std::size_t store_budget_bytes;
  };
  const Case cases[] = {
      {"kovanen", Opts(3, 3, TimingConstraints::OnlyDeltaC(12), true), 0},
      // Static inducedness with dC and dW both binding stays off the fast
      // path, so its store-off recount still spawns shards.
      {"static_both_store_off",
       Opts(3, 3, TimingConstraints::Both(12, 18), false, false,
            Inducedness::kStatic),
       1},
  };
  obs::Histogram* const shard_instances =
      obs::GlobalMetrics().GetHistogram("parallel.shard_instances");
  for (const Case& c : cases) {
    ForEachRandomGraph(0x7d5eed, 2, spec, [&](std::uint64_t seed,
                                              const TemporalGraph& g) {
      StreamConfig serial_config;
      serial_config.options = c.options;
      serial_config.window = WindowPolicy::CountBased(kWindow);
      serial_config.store_budget_bytes = c.store_budget_bytes;
      StreamConfig threaded_config = serial_config;
      threaded_config.num_threads = 4;
      StreamingMotifCounter serial(serial_config);
      StreamingMotifCounter threaded(threaded_config);
      const std::vector<Event>& all = g.events();
      int threaded_recounts = 0;
      for (std::size_t begin = 0; begin < all.size(); begin += kWindow) {
        const std::size_t end = std::min(all.size(), begin + kWindow);
        const std::vector<Event> batch(
            all.begin() + static_cast<std::ptrdiff_t>(begin),
            all.begin() + static_cast<std::ptrdiff_t>(end));
        const std::string label = std::string(c.name) + " seed=" +
                                  std::to_string(seed) + " after " +
                                  std::to_string(end);
        const bool store_was_on = threaded.store_active();
        const std::uint64_t recounts_before = threaded.stats().full_recounts;
        const std::uint64_t shards_before = shard_instances->Snapshot().count;
        serial.Ingest(batch);
        threaded.Ingest(batch);
        ASSERT_EQ(threaded.counts().SortedByCode(),
                  serial.counts().SortedByCode())
            << label << ": serial=" << DescribeCounts(serial.counts())
            << " threaded=" << DescribeCounts(threaded.counts());
        ASSERT_EQ(threaded.stats().full_recounts,
                  serial.stats().full_recounts)
            << label;
        if (threaded.stats().full_recounts == recounts_before ||
            store_was_on || threaded.window_size() < kWindow) {
          continue;
        }
        ++threaded_recounts;
        EXPECT_GT(shard_instances->Snapshot().count, shards_before) << label;
      }
      EXPECT_GT(serial.total(), 0u) << c.name << " seed=" << seed;
      EXPECT_GE(threaded_recounts, 2) << c.name << " seed=" << seed;
    });
  }
}

// The stream.store_mode gauge tells a config without a store (Song et
// al.'s) from one whose store is on (Hulovatyy et al.'s): 1 and 0.
TEST(StreamingMotifCounter, StoreModeGaugeTellsNoStoreFromStoreOn) {
  obs::Gauge* const mode = obs::GlobalMetrics().GetGauge("stream.store_mode");
  const std::vector<Event> events = {{0, 1, 1}, {1, 2, 2}, {2, 0, 3}};
  StreamConfig config;
  config.options = OptionsForModel(ModelId::kSong, 3, 3, 0, 8);
  StreamingMotifCounter song(config);
  ASSERT_FALSE(StreamingMotifCounter::UsesInstanceStore(config.options));
  song.Ingest(events);
  EXPECT_EQ(mode->Value(), kNoStoreModeGauge);
  config.options = OptionsForModel(ModelId::kHulovatyy, 3, 3, 8, 0);
  StreamingMotifCounter hulovatyy(config);
  hulovatyy.Ingest(events);
  EXPECT_EQ(mode->Value(), static_cast<std::int64_t>(StoreMode::kFull));
}

// Paranjape et al.'s model (static inducedness, dW) is a fast-path config:
// its store-off window recount dispatches the k <= 3 counters, records
// counting.dispatch_fastpath, and spawns no shard even with threads on a
// window above the parallel threshold (the grids check its counts).
TEST(StreamingMotifCounter, StoreOffParanjapeRecountDispatchesFastPath) {
  const std::size_t kWindow =
      static_cast<std::size_t>(internal::kMinParallelEvents) + 64;
  RandomGraphSpec spec;
  spec.num_nodes = 16;
  spec.num_events = static_cast<int>(3 * kWindow);
  spec.max_time = static_cast<Timestamp>(8 * kWindow);
  obs::Counter* const fast =
      obs::GlobalMetrics().GetCounter("counting.dispatch_fastpath");
  obs::Counter* const generic =
      obs::GlobalMetrics().GetCounter("counting.dispatch_generic");
  obs::Histogram* const shard_instances =
      obs::GlobalMetrics().GetHistogram("parallel.shard_instances");
  ForEachRandomGraph(0x9a4a, 2, spec, [&](std::uint64_t seed,
                                          const TemporalGraph& g) {
    StreamConfig config;
    config.options = OptionsForModel(ModelId::kParanjape, 3, 3,
                                     /*delta_c=*/0, /*delta_w=*/24);
    config.window = WindowPolicy::CountBased(kWindow);
    config.store_budget_bytes = 1;
    config.num_threads = 4;
    StreamingMotifCounter counter(config);
    const std::vector<Event>& all = g.events();
    int recounts = 0;
    for (std::size_t begin = 0; begin < all.size(); begin += 64) {
      const std::vector<Event> batch(
          all.begin() + static_cast<std::ptrdiff_t>(begin),
          all.begin() + static_cast<std::ptrdiff_t>(
                            std::min(all.size(), begin + 64)));
      const std::uint64_t recounts_before = counter.stats().full_recounts;
      const bool store_was_on = counter.store_active();
      const std::uint64_t fast_before = fast->Value();
      const std::uint64_t generic_before = generic->Value();
      const std::uint64_t shards_before = shard_instances->Snapshot().count;
      counter.Ingest(batch);
      if (store_was_on || counter.stats().full_recounts == recounts_before ||
          counter.window_size() < kWindow) {
        continue;
      }
      ++recounts;
      const std::string label =
          "seed=" + std::to_string(seed) + " batch at " + std::to_string(begin);
      EXPECT_GT(fast->Value(), fast_before) << label;
      EXPECT_EQ(generic->Value(), generic_before) << label;
      EXPECT_EQ(shard_instances->Snapshot().count, shards_before) << label;
    }
    EXPECT_GT(recounts, 0) << "seed=" << seed;
  });
}

// Store off, a batch that flips a static edge recounts the window. A
// 1-byte budget turns the store off once it holds its first candidate; the
// flip batches that follow build a valid induced triangle and then
// invalidate it with the reverse edge (2,0), a flipped pair with
// src > dst. The padding edges REPEAT, so neither their re-entries nor
// their later evictions flip the static edge set: those batches take the
// delta path. Distinct timestamps keep every batch tie-free.
TEST(StreamingMotifCounter, StoreOffFlipBatchesRecount) {
  StreamConfig config;
  config.options.num_events = 3;
  config.options.max_nodes = 3;
  config.options.inducedness = Inducedness::kStatic;
  config.window = WindowPolicy::CountBased(10);
  config.store_budget_bytes = 1;
  StreamingMotifCounter counter(config);

  const std::vector<Event> events = {
      {10, 11, 1}, {12, 13, 2}, {10, 11, 3}, {12, 13, 4},
      {10, 11, 5}, {12, 13, 6},
      {0, 1, 7},   // New edge (0,1): flip with u < v.
      {1, 2, 8},   // New edge (1,2).
      {0, 2, 9},   // New edge (0,2): completes a valid induced triangle.
      {2, 0, 10},  // New edge (2,0), u > v: INVALIDATES the triangle.
      {0, 1, 11},
      {1, 2, 12},
  };
  const auto static_edges = [](const std::vector<Event>& window) {
    std::set<std::pair<NodeId, NodeId>> edges;
    for (const Event& e : window) edges.emplace(e.src, e.dst);
    return edges;
  };
  MotifCounts expected_at_10;  // Snapshot before the invalidating flip.
  std::vector<Event> previous_window;
  int flip_batches = 0;
  int delta_batches = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const bool store_was_off = counter.store_mode() == StoreMode::kRecount;
    const IngestStats before = counter.stats();
    counter.Ingest({events[i]});
    const std::vector<Event> window(
        events.begin() +
            static_cast<std::ptrdiff_t>(i + 1 > 10 ? i + 1 - 10 : 0),
        events.begin() + static_cast<std::ptrdiff_t>(i + 1));
    const MotifCounts expected =
        CountMotifs(GraphFromEvents(window), config.options);
    ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
        << "after event " << i << " (t=" << events[i].time << "): streaming="
        << DescribeCounts(counter.counts())
        << " batch=" << DescribeCounts(expected);
    if (events[i].time == 9) expected_at_10 = expected;
    const IngestStats& after = counter.stats();
    const std::string label = "t=" + std::to_string(events[i].time);
    if (store_was_off && static_edges(window) != static_edges(previous_window)) {
      ++flip_batches;
      EXPECT_EQ(after.static_fallbacks, before.static_fallbacks + 1) << label;
      EXPECT_EQ(after.full_recounts, before.full_recounts + 1) << label;
    } else if (store_was_off) {
      ++delta_batches;
      EXPECT_EQ(after.static_fallbacks, before.static_fallbacks) << label;
      EXPECT_EQ(after.full_recounts, before.full_recounts) << label;
    }
    previous_window = window;
  }
  // The triangle existed at t=9 and the t=10 flip removed it.
  EXPECT_EQ(expected_at_10.count("011202"), 1u);
  EXPECT_EQ(counter.store_mode(), StoreMode::kRecount);
  const IngestStats& stats = counter.stats();
  EXPECT_EQ(stats.store_demotions_recount, 1u);
  // The store turns off after t=5, the first candidate. The four triangle
  // flips (t=7..10) recount; the re-entries at t=6, t=11 and t=12 (the
  // last two evict a padding event whose edge stays) take the delta path.
  EXPECT_EQ(flip_batches, 4);
  EXPECT_EQ(delta_batches, 3);
  EXPECT_EQ(stats.static_fallbacks, 4u);
}

// Store off: under an order predicate the boundary passes run on the
// survivors alone, so a batch whose eviction removes an edge must not run
// them there — even when the batch re-adds the edge and nothing flips.
// Here (0,1) leaves with the evicted prefix and re-enters with the batch;
// the survivor instance 0->2, 2->1 is not induced before or after the
// batch, but would be on the survivors alone. Pure static inducedness runs
// no boundary pass, so it needs no recount here.
TEST(StreamingMotifCounter, StoreOffTieCorrectionsNeverSeeAnEvictedEdgeGone) {
  struct Scenario {
    const char* tie;
    std::vector<Event> events;  // The last one is the second batch.
  };
  const Scenario kScenarios[] = {
      {"evict tie", {{0, 1, 5}, {0, 2, 5}, {2, 1, 6}, {0, 1, 100}}},
      {"append tie", {{0, 1, 5}, {0, 2, 6}, {2, 1, 7}, {0, 1, 7}}},
  };
  struct Variant {
    const char* name;
    bool consecutive;
    bool cdg;
  };
  const Variant kVariants[] = {
      {"static", false, false},
      {"static + consecutive", true, false},
      {"static + CDG", false, true},
  };
  for (const Variant& variant : kVariants) {
    for (const Scenario& scenario : kScenarios) {
      const std::string label =
          std::string(variant.name) + ", " + scenario.tie;
      StreamConfig config;
      config.options.num_events = 2;
      config.options.max_nodes = 3;
      config.options.timing = TimingConstraints::OnlyDeltaW(1000);
      config.options.inducedness = Inducedness::kStatic;
      config.options.consecutive_events_restriction = variant.consecutive;
      config.options.cdg_restriction = variant.cdg;
      config.window = WindowPolicy::CountBased(3);
      config.store_budget_bytes = 1;
      StreamingMotifCounter counter(config);
      const std::vector<Event>& events = scenario.events;
      counter.Ingest({events.begin(), events.end() - 1});
      ASSERT_FALSE(counter.store_active()) << label;
      counter.Ingest({events.back()});
      const MotifCounts expected = CountMotifs(
          GraphFromEvents(ExpectedWindow(GraphFromEvents(events).events(),
                                         events.size(), config.window)),
          config.options);
      EXPECT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
          << label << ": streaming=" << DescribeCounts(counter.counts())
          << " batch=" << DescribeCounts(expected);
    }
  }
}

// The same flip sequence through the live-instance store: every snapshot
// exact, the invalidating flip handled by a store retirement — and no
// recount of any kind after startup.
TEST(StreamingMotifCounter, StoreRetiresFlipAffectedInstances) {
  StreamConfig config;
  config.options.num_events = 3;
  config.options.max_nodes = 3;
  config.options.inducedness = Inducedness::kStatic;
  config.window = WindowPolicy::CountBased(10);
  StreamingMotifCounter counter(config);
  ASSERT_TRUE(counter.store_active());

  const std::vector<Event> events = {
      {10, 11, 1}, {12, 13, 2}, {10, 11, 3}, {12, 13, 4},
      {10, 11, 5}, {12, 13, 6},
      {0, 1, 7},   {1, 2, 8},   {0, 2, 9},   // Valid induced triangle.
      {2, 0, 10},                             // Edge (2,0): invalidates it.
      {0, 1, 11},  {1, 2, 12},
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    counter.Ingest({events[i]});
    const TemporalGraph expect_graph = GraphFromEvents(std::vector<Event>(
        events.begin() + static_cast<std::ptrdiff_t>(
                             i + 1 > 10 ? i + 1 - 10 : 0),
        events.begin() + static_cast<std::ptrdiff_t>(i + 1)));
    const MotifCounts expected = CountMotifs(expect_graph, config.options);
    ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
        << "after event " << i << " (t=" << events[i].time << "): streaming="
        << DescribeCounts(counter.counts())
        << " batch=" << DescribeCounts(expected);
  }
  const IngestStats& stats = counter.stats();
  EXPECT_GE(stats.store_retired, 1u);  // The t=10 flip retired the triangle.
  EXPECT_GT(stats.store_flip_batches, 0u);
  EXPECT_EQ(stats.static_fallbacks, 0u);
  EXPECT_EQ(stats.full_recounts, 1u);  // Startup only.
  EXPECT_GT(counter.store_size(), 0u);
}

// Store admission: a static edge whose last occurrence EVICTS shrinks the
// scopes spanning it, and candidates that were one covered edge short
// become valid — the store must admit them without any enumeration.
TEST(StreamingMotifCounter, StoreAdmitsInstancesWhenEdgeEvicts) {
  StreamConfig config;
  config.options.num_events = 3;
  config.options.max_nodes = 3;
  config.options.inducedness = Inducedness::kStatic;
  config.window = WindowPolicy::CountBased(4);
  StreamingMotifCounter counter(config);

  // (2,0) precedes the triangle, so the window holds all four; the triangle
  // {t=2,3,4} is NOT induced (scope has the extra (2,0) edge) until the
  // t=5 pad evicts (2,0,1) and the edge disappears.
  const std::vector<Event> events = {
      {2, 0, 1}, {0, 1, 2}, {1, 2, 3}, {0, 2, 4}, {5, 6, 5},
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    counter.Ingest({events[i]});
    const TemporalGraph expect_graph = GraphFromEvents(std::vector<Event>(
        events.begin() + static_cast<std::ptrdiff_t>(
                             i + 1 > 4 ? i + 1 - 4 : 0),
        events.begin() + static_cast<std::ptrdiff_t>(i + 1)));
    const MotifCounts expected = CountMotifs(expect_graph, config.options);
    ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
        << "after event " << i << ": streaming="
        << DescribeCounts(counter.counts())
        << " batch=" << DescribeCounts(expected);
  }
  EXPECT_EQ(counter.counts().count("011202"), 1u);  // Admitted triangle.
  EXPECT_GE(counter.stats().store_admitted, 1u);
  EXPECT_EQ(counter.stats().static_fallbacks, 0u);
}

// The acceptance bar of the live-instance store: static-induced presets
// (Paranjape and Hulovatyy) stream at ANY batch size with zero full-window
// recount fallbacks — the single full recount is startup. Batch counting of
// the final window cross-checks exactness at every size.
TEST(StreamingMotifCounter, StaticPresetsStreamWithoutRecountFallbacks) {
  RandomGraphSpec spec;
  spec.num_nodes = 24;
  spec.num_events = 600;
  spec.max_time = 1200;
  spec.prob_duplicate_time = 0.2;

  const std::vector<std::pair<const char*, EnumerationOptions>> presets = {
      {"paranjape", OptionsForModel(ModelId::kParanjape, 3, 3, 0, 60)},
      {"hulovatyy", OptionsForModel(ModelId::kHulovatyy, 3, 3, 40, 0)},
  };
  ForEachRandomGraph(
      0x5707e, 2, spec, [&](std::uint64_t seed, const TemporalGraph& g) {
        for (const auto& [name, options] : presets) {
          for (const std::size_t batch_size :
               {std::size_t{1}, std::size_t{16}, std::size_t{64},
                std::size_t{256}}) {
            StreamConfig config;
            config.options = options;
            // Strictly larger than the largest batch: a batch the size of
            // the window is a full turnover, which legitimately recounts.
            config.window = WindowPolicy::CountBased(400);
            StreamingMotifCounter counter(config);
            ASSERT_TRUE(counter.store_active());
            const std::vector<Event>& all = g.events();
            for (std::size_t begin = 0; begin < all.size();
                 begin += batch_size) {
              const std::size_t end =
                  std::min(all.size(), begin + batch_size);
              counter.Ingest(std::vector<Event>(
                  all.begin() + static_cast<std::ptrdiff_t>(begin),
                  all.begin() + static_cast<std::ptrdiff_t>(end)));
            }
            const std::string label = std::string(name) + " seed=" +
                                      std::to_string(seed) + " batch=" +
                                      std::to_string(batch_size);
            const IngestStats& stats = counter.stats();
            // Startup fills the empty window; nothing after it recounts.
            EXPECT_LE(stats.full_recounts, 1u) << label;
            EXPECT_EQ(stats.static_fallbacks, 0u) << label;
            EXPECT_GT(stats.store_flip_batches, 0u) << label;
            const MotifCounts expected =
                CountMotifs(counter.window_graph(), options);
            ASSERT_EQ(counter.counts().SortedByCode(),
                      expected.SortedByCode())
                << label;
          }
        }
      });
}

// k = 1 static inducedness (whose tie-group anchor renumbering used to keep
// it off the store) streams store-active with ZERO recount fallbacks of
// any kind after startup, while staying exact on every snapshot.
TEST(StreamingMotifCounter, K1StaticStreamsOnTheStoreWithoutFallbacks) {
  const EnumerationOptions options =
      Opts(1, 2, {}, false, false, Inducedness::kStatic);
  std::uint64_t store_flip_batches = 0;
  ForEachRandomGraph(
      0x11f7ed, 6, DenseSpec(),
      [&](std::uint64_t seed, const TemporalGraph& g) {
        for (const std::size_t batch_size : {std::size_t{1}, std::size_t{3}}) {
          StreamConfig config;
          config.options = options;
          config.window = WindowPolicy::CountBased(10);
          StreamingMotifCounter counter(config);
          ASSERT_TRUE(counter.store_active());
          const std::vector<Event>& all = g.events();
          for (std::size_t begin = 0; begin < all.size();
               begin += batch_size) {
            const std::size_t end = std::min(all.size(), begin + batch_size);
            counter.Ingest(std::vector<Event>(
                all.begin() + static_cast<std::ptrdiff_t>(begin),
                all.begin() + static_cast<std::ptrdiff_t>(end)));
            const MotifCounts expected =
                CountMotifs(counter.window_graph(), options);
            ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
                << "seed=" << seed << " after " << end
                << " events: streaming=" << DescribeCounts(counter.counts())
                << " batch=" << DescribeCounts(expected);
          }
          const std::string label = "seed=" + std::to_string(seed) +
                                    " batch=" + std::to_string(batch_size);
          const IngestStats& stats = counter.stats();
          EXPECT_LE(stats.full_recounts, 1u) << label;  // Startup only.
          EXPECT_EQ(stats.static_fallbacks, 0u) << label;
          store_flip_batches += stats.store_flip_batches;
        }
      });
  EXPECT_GT(store_flip_batches, 0u);
}

// Static inducedness combined with an order predicate (consecutive-events
// or CDG) keeps no live-instance store: from the first batch the counter
// is store-off, a store budget (even 1 byte) has nothing to demote, flip
// batches recount the window and every other batch takes the six delta
// phases — exact after every batch.
TEST(StreamingMotifCounter, StaticOrderConfigsStreamStoreOff) {
  EXPECT_TRUE(StreamingMotifCounter::UsesInstanceStore(
      OptionsForModel(ModelId::kParanjape, 3, 3, 0, 10)));
  EXPECT_TRUE(StreamingMotifCounter::UsesInstanceStore(
      OptionsForModel(ModelId::kHulovatyy, 3, 3, 5, 0)));
  EXPECT_FALSE(StreamingMotifCounter::UsesInstanceStore(
      OptionsForModel(ModelId::kKovanen, 3, 3, 5, 0)));
  EXPECT_FALSE(StreamingMotifCounter::UsesInstanceStore(
      OptionsForModel(ModelId::kSong, 3, 3, 0, 10)));
  const std::vector<std::pair<const char*, EnumerationOptions>> cases = {
      {"static_consecutive", Opts(3, 3, {}, true, false, Inducedness::kStatic)},
      {"static_cdg",
       Opts(3, 3, TimingConstraints::OnlyDeltaC(12), false, true,
            Inducedness::kStatic)},
  };
  for (const auto& [name, options] : cases) {
    EXPECT_FALSE(StreamingMotifCounter::UsesInstanceStore(options)) << name;
    std::uint64_t static_fallbacks = 0;
    ForEachRandomGraph(
        0x11f7ed, 6, DenseSpec(),
        [&](std::uint64_t seed, const TemporalGraph& g) {
          for (const std::size_t batch_size :
               {std::size_t{1}, std::size_t{3}}) {
            for (const std::size_t budget : {std::size_t{0}, std::size_t{1}}) {
              StreamConfig config;
              config.options = options;
              config.window = WindowPolicy::CountBased(10);
              config.store_budget_bytes = budget;
              StreamingMotifCounter counter(config);
              const std::string label =
                  std::string(name) + " seed=" + std::to_string(seed) +
                  " batch=" + std::to_string(batch_size) +
                  " budget=" + std::to_string(budget);
              const std::vector<Event>& all = g.events();
              for (std::size_t begin = 0; begin < all.size();
                   begin += batch_size) {
                const std::size_t end =
                    std::min(all.size(), begin + batch_size);
                counter.Ingest(std::vector<Event>(
                    all.begin() + static_cast<std::ptrdiff_t>(begin),
                    all.begin() + static_cast<std::ptrdiff_t>(end)));
                ASSERT_FALSE(counter.store_active()) << label;
                ASSERT_EQ(counter.store_approx_bytes(), 0u) << label;
                const MotifCounts expected =
                    CountMotifs(counter.window_graph(), options);
                ASSERT_EQ(counter.counts().SortedByCode(),
                          expected.SortedByCode())
                    << label << " after " << end << " events: streaming="
                    << DescribeCounts(counter.counts())
                    << " batch=" << DescribeCounts(expected);
              }
              const IngestStats& stats = counter.stats();
              EXPECT_EQ(stats.store_demotions_recount, 0u) << label;
              EXPECT_EQ(stats.store_flip_batches, 0u) << label;
              static_fallbacks += stats.static_fallbacks;
            }
          }
        });
    EXPECT_GT(static_fallbacks, 0u) << name;
  }
}

// The two static-flip handlers are differential twins: an unbudgeted
// counter (store on throughout) and a 1-byte-budget one (store off after
// its first candidate) hold identical counts after every batch, whatever
// path each takes internally. Paranjape et al.'s preset recounts on the
// k <= 3 fast path, Hulovatyy et al.'s (static + dC) on the DFS.
TEST(StreamingMotifCounter, StoreOnAndStoreOffAgree) {
  const std::vector<std::pair<const char*, EnumerationOptions>> presets = {
      {"paranjape", OptionsForModel(ModelId::kParanjape, 3, 3, 0, 10)},
      {"hulovatyy", OptionsForModel(ModelId::kHulovatyy, 3, 3, 5, 0)},
  };
  for (const auto& [name, options] : presets) {
    ForEachRandomGraph(
        0xa9bee, 6, DenseSpec(),
        [&](std::uint64_t seed, const TemporalGraph& g) {
          for (const std::size_t batch_size : {std::size_t{1}, std::size_t{3}}) {
            StreamConfig store_config;
            store_config.options = options;
            store_config.window = WindowPolicy::CountBased(10);
            StreamConfig degraded_config = store_config;
            degraded_config.store_budget_bytes = 1;
            StreamingMotifCounter with_store(store_config);
            StreamingMotifCounter degraded(degraded_config);
            const std::string label = std::string(name) + " seed=" +
                                      std::to_string(seed) + " batch=" +
                                      std::to_string(batch_size);
            const std::vector<Event>& all = g.events();
            for (std::size_t begin = 0; begin < all.size();
                 begin += batch_size) {
              const std::vector<Event> batch(
                  all.begin() + static_cast<std::ptrdiff_t>(begin),
                  all.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(all.size(), begin + batch_size)));
              with_store.Ingest(batch);
              degraded.Ingest(batch);
              ASSERT_EQ(with_store.counts().SortedByCode(),
                        degraded.counts().SortedByCode())
                  << label << " t=" << batch.back().time;
            }
            EXPECT_TRUE(with_store.store_active()) << label;
            EXPECT_FALSE(degraded.store_active()) << label;
          }
        });
  }
}

// A batch larger than a count-based window forces the full-turnover path:
// only the batch's most recent events enter.
TEST(StreamingMotifCounter, OversizedBatchResetsWindow) {
  StreamConfig config;
  config.options = Opts(2, 3);
  config.window = WindowPolicy::CountBased(3);
  StreamingMotifCounter counter(config);
  counter.Ingest({{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 0, 4}, {0, 2, 5}});
  EXPECT_EQ(counter.window_size(), 3u);
  EXPECT_EQ(counter.window_min_time(), 3);
  EXPECT_EQ(counter.window_max_time(), 5);
  const TemporalGraph expect =
      GraphFromEvents({{2, 3, 3}, {3, 0, 4}, {0, 2, 5}});
  EXPECT_EQ(counter.total(), CountInstances(expect, config.options));
  EXPECT_GE(counter.stats().full_recounts, 1u);
  EXPECT_EQ(counter.stats().events_dropped, 2u);
}

// A time jump beyond the horizon empties the window entirely.
TEST(StreamingMotifCounter, TimeJumpEvictsEverything) {
  StreamConfig config;
  config.options = Opts(2, 3);
  config.window = WindowPolicy::TimeBased(10);
  StreamingMotifCounter counter(config);
  counter.Ingest({{0, 1, 1}, {1, 2, 3}});
  EXPECT_EQ(counter.window_size(), 2u);
  EXPECT_GT(counter.total(), 0u);
  counter.Ingest({{2, 3, 100}});
  EXPECT_EQ(counter.window_size(), 1u);
  EXPECT_EQ(counter.total(), 0u);
  EXPECT_EQ(counter.stats().events_evicted, 2u);
}

TEST(StreamingMotifCounter, EmptyBatchIsANoOp) {
  StreamConfig config;
  config.options = Opts(2, 3);
  config.window = WindowPolicy::CountBased(8);
  StreamingMotifCounter counter(config);
  counter.Ingest({{0, 1, 1}, {1, 2, 2}});
  const std::uint64_t before = counter.total();
  counter.Ingest({});
  EXPECT_EQ(counter.total(), before);
  EXPECT_EQ(counter.window_size(), 2u);
}

TEST(StreamingMotifCounter, TopMotifsAndTimespansSnapshot) {
  StreamConfig config;
  config.options = Opts(3, 3, TimingConstraints::OnlyDeltaW(10));
  config.window = WindowPolicy::CountBased(8);
  StreamingMotifCounter counter(config);
  // A temporal triangle: exactly one 3-event instance with code 011202.
  counter.Ingest({{0, 1, 1}, {1, 2, 2}, {0, 2, 3}});
  const auto top = counter.TopMotifs(5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, "011202");
  EXPECT_EQ(top[0].second, 1u);
  const TimespanProfile profile =
      CollectTimespans(counter.window_graph(), config.options, "011202");
  EXPECT_EQ(profile.num_instances, 1u);
  EXPECT_DOUBLE_EQ(profile.mean_span, 2.0);
}

TEST(StreamingMotifCounter, StatsAccumulate) {
  StreamConfig config;
  config.options = Opts(2, 3, TimingConstraints::OnlyDeltaW(10));
  config.window = WindowPolicy::CountBased(4);
  StreamingMotifCounter counter(config);
  for (Timestamp t = 0; t < 12; ++t) {
    counter.Ingest({{static_cast<NodeId>(t % 3),
                     static_cast<NodeId>((t + 1) % 3), t}});
  }
  const IngestStats& stats = counter.stats();
  EXPECT_EQ(stats.batches, 12u);
  EXPECT_EQ(stats.events_ingested, 12u);
  EXPECT_EQ(stats.events_evicted, 8u);
  EXPECT_GT(stats.instances_added, 0u);
  EXPECT_GT(stats.instances_retracted, 0u);
}

TEST(WindowGraph, CountPlanAndMerge) {
  WindowGraph window(WindowPolicy::CountBased(4));
  std::vector<Event> first = {{0, 1, 5}, {1, 2, 5}};
  window.Apply(window.PlanIngest(first), first);
  ASSERT_EQ(window.size(), 2u);

  // A tied arrival that canonically sorts between the existing time-5
  // events must merge into position, not append.
  std::vector<Event> second = {{0, 2, 5}};
  std::vector<std::size_t> positions;
  const IngestPlan plan = window.PlanIngest(second);
  EXPECT_EQ(plan.num_evict, 0u);
  window.Apply(plan, second, &positions);
  ASSERT_EQ(window.size(), 3u);
  ASSERT_EQ(positions.size(), 1u);
  EXPECT_EQ(positions[0], 1u);  // After (0,1,5), before (1,2,5).
  EXPECT_EQ(window.event(1).dst, 2);

  // Capacity overflow evicts the canonical front. (WindowGraph takes
  // batches already in canonical order; the counter sorts before planning.)
  std::vector<Event> third = {{0, 1, 9}, {3, 0, 9}};
  const IngestPlan plan3 = window.PlanIngest(third);
  EXPECT_EQ(plan3.num_evict, 1u);
  window.Apply(plan3, third);
  EXPECT_EQ(window.size(), 4u);
  EXPECT_EQ(window.event(0).time, 5);
  EXPECT_EQ(window.event(0).dst, 2);  // (0,2,5) survived, (0,1,5) evicted.
  EXPECT_EQ(window.event(2).src, 0);  // (0,1,9) sorts before (3,0,9).
  EXPECT_EQ(window.max_time_seen(), 9);
}

// Timestamps are signed: a stream living entirely in negative time must
// behave exactly like its shifted-positive twin (regression: the stream
// clock used to start at 0 and eat the first batches under both policies).
TEST(StreamingMotifCounter, NegativeTimestampsWork) {
  const TemporalGraph g = GraphFromEvents(
      {{0, 1, -100}, {1, 2, -90}, {0, 2, -80}, {2, 3, -75}, {3, 0, -60}});
  const EnumerationOptions options =
      Opts(3, 3, TimingConstraints::OnlyDeltaW(25));
  for (const WindowPolicy& policy :
       {WindowPolicy::CountBased(3), WindowPolicy::TimeBased(20)}) {
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{2}}) {
      ReplayAndCheck(g, options, policy, batch_size,
                     "negative times window=" + policy.ToString());
    }
  }
  // Explicit time-based spot check: nothing before the first batch may be
  // treated as expired.
  StreamConfig config;
  config.options = Opts(2, 3);
  config.window = WindowPolicy::TimeBased(15);
  StreamingMotifCounter counter(config);
  counter.Ingest({{0, 1, -100}, {1, 2, -90}});
  EXPECT_EQ(counter.window_size(), 2u);
  EXPECT_GT(counter.total(), 0u);
  EXPECT_EQ(counter.max_time_seen(), -90);
}

// A tied event that arrives in a later batch but canonically precedes
// resident events must lose the capacity fight: the window is the suffix
// of the canonically sorted history, not of the arrival order.
TEST(WindowGraph, CountEvictionKeepsCanonicalSuffixUnderTies) {
  WindowGraph window(WindowPolicy::CountBased(2));
  std::vector<Event> first = {{1, 2, 5}, {2, 3, 5}};
  window.Apply(window.PlanIngest(first), first);

  std::vector<Event> second = {{0, 1, 5}};  // Sorts before both residents.
  const IngestPlan plan = window.PlanIngest(second);
  EXPECT_EQ(plan.num_evict, 0u);
  EXPECT_EQ(plan.batch_begin, 1u);  // The arrival itself is the overflow.
  window.Apply(plan, second);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window.event(0).src, 1);
  EXPECT_EQ(window.event(1).src, 2);

  // Mixed case: one tie loses to a resident, one later event survives.
  std::vector<Event> third = {{0, 2, 5}, {3, 0, 6}};
  const IngestPlan plan3 = window.PlanIngest(third);
  EXPECT_EQ(plan3.num_evict, 1u);   // (1,2,5) is the merged prefix...
  EXPECT_EQ(plan3.batch_begin, 1u);  // ...after (0,2,5) is dropped first.
  window.Apply(plan3, third);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window.event(0).src, 2);
  EXPECT_EQ(window.event(1).time, 6);
}

TEST(WindowGraph, TimePlanDropsStaleBatchEvents) {
  WindowGraph window(WindowPolicy::TimeBased(5));
  std::vector<Event> first = {{0, 1, 10}, {1, 2, 12}};
  window.Apply(window.PlanIngest(first), first);
  // Batch spans more than the horizon: its own oldest event is already
  // outside (20-5, 20] and must never enter.
  std::vector<Event> second = {{2, 3, 14}, {3, 0, 20}};
  const IngestPlan plan = window.PlanIngest(second);
  EXPECT_EQ(plan.num_evict, 2u);
  EXPECT_EQ(plan.batch_begin, 1u);
  window.Apply(plan, second);
  EXPECT_EQ(window.size(), 1u);
  EXPECT_EQ(window.event(0).time, 20);
  EXPECT_EQ(window.max_time_seen(), 20);
}

// Checked after the whole binary has run (parameterized suites execute
// last, so a plain TEST cannot see the grid's totals): the differential
// agreement above is only meaningful if the hard maintenance paths —
// boundary-tie corrections, static-edge fallbacks, retractions — actually
// fired during the replays.
class GridCoverageEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    // A filtered or sharded run may skip part (or all) of the grid; only a
    // full run is expected to hit every maintenance path.
    if (::testing::GTEST_FLAG(filter) != "*" ||
        std::getenv("GTEST_TOTAL_SHARDS") != nullptr) {
      return;
    }
    EXPECT_GT(g_grid_stats.instances_added, 0u);
    EXPECT_GT(g_grid_stats.instances_retracted, 0u);
    EXPECT_GT(g_grid_stats.tie_corrections, 0u);
    EXPECT_GT(g_grid_stats.full_recounts, 0u);
    // Static-edge flips must exercise every handling path: the
    // live-instance store (both retire and admit directions), and — via
    // the order-predicate cases and the 1-byte-budget twin cases — the
    // store-off window recount.
    EXPECT_GT(g_grid_stats.store_flip_batches, 0u);
    EXPECT_GT(g_grid_stats.store_retired, 0u);
    EXPECT_GT(g_grid_stats.store_admitted, 0u);
    EXPECT_GT(g_grid_stats.static_fallbacks, 0u);
  }
};

const ::testing::Environment* const g_coverage_env =
    ::testing::AddGlobalTestEnvironment(new GridCoverageEnvironment);

// With the default lateness horizon of 0, out-of-order events are dropped
// (and accounted), never fatal — the pre-lateness behavior was a CHECK
// failure.
TEST(StreamingMotifCounter, DropsLateEventsBeyondTheDefaultHorizon) {
  StreamConfig config;
  config.options = Opts(2, 3);
  config.window = WindowPolicy::CountBased(8);
  StreamingMotifCounter counter(config);
  counter.Ingest({{0, 1, 10}});
  const std::uint64_t before = counter.total();
  counter.Ingest({{1, 2, 9}});
  EXPECT_EQ(counter.window_size(), 1u);
  EXPECT_EQ(counter.total(), before);
  EXPECT_EQ(counter.stats().late_dropped, 1u);
  EXPECT_EQ(counter.stats().late_events, 0u);
  // An equal-timestamp arrival is NOT late (ties interleave freely).
  counter.Ingest({{1, 2, 10}});
  EXPECT_EQ(counter.window_size(), 2u);
  EXPECT_EQ(counter.stats().late_dropped, 1u);
}

TEST(StreamingMotifCounterDeathTest, RejectsSelfLoops) {
  StreamConfig config;
  config.options = Opts(2, 3);
  config.window = WindowPolicy::CountBased(8);
  StreamingMotifCounter counter(config);
  EXPECT_DEATH(counter.Ingest({{1, 1, 5}}), "self-loop");
  // The rest of what TemporalGraphBuilder::AddEvent rejects is rejected on
  // ingest, before a negative id can index the window's per-node lists or
  // a negative duration can reach window_graph().
  EXPECT_DEATH(counter.Ingest({{-1, 2, 10}, {2, 3, 11}}), "negative node id");
  EXPECT_DEATH(counter.Ingest({{2, -1, 10}}), "negative node id");
  Event negative_duration{0, 1, 10};
  negative_duration.duration = -1;
  EXPECT_DEATH(counter.Ingest({negative_duration}), "negative duration");
}

}  // namespace
}  // namespace tmotif
