// Differential tests for bounded out-of-order ingestion: events of seeded
// oracle graphs are replayed through StreamingMotifCounter in SHUFFLED
// order (every event within the configured lateness horizon), and after
// every batch the maintained counts must exactly equal a from-scratch count
// of the policy-selected window over the canonically sorted events seen so
// far — i.e. any in-horizon permutation of a stream yields snapshot counts
// identical to the sorted replay. Late events take the same delta path as
// in-order ones. Targeted tests pin the lateness-horizon drop accounting,
// a late eviction under an order predicate, and the window plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/models/model_info.h"
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

/// SplitMix64 step — a tiny deterministic RNG so the shuffles are identical
/// across standard libraries (std::shuffle is implementation-defined).
std::uint64_t NextRandom(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Event> Shuffled(const std::vector<Event>& events,
                            std::uint64_t seed) {
  std::vector<Event> out = events;
  std::uint64_t state = seed;
  for (std::size_t i = out.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(NextRandom(&state) % i);
    std::swap(out[i - 1], out[j]);
  }
  return out;
}

/// Independent window semantics for an out-of-order stream: the policy
/// applied to the canonical sort of every event seen so far. (Events the
/// policy dropped earlier can never re-enter: the count-based suffix only
/// moves later, and the time-based threshold only rises.)
std::vector<Event> ExpectedWindowFromSeen(std::vector<Event> seen,
                                          const WindowPolicy& policy) {
  std::stable_sort(seen.begin(), seen.end(), EventTimeLess);
  if (policy.kind == WindowPolicyKind::kCountBased) {
    const std::size_t cap = static_cast<std::size_t>(policy.max_events);
    if (seen.size() > cap) seen.erase(seen.begin(), seen.end() - cap);
    return seen;
  }
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

/// Total late events spliced across the whole grid — asserted nonzero at
/// the end so the agreement above is known to have exercised the late path.
std::uint64_t g_grid_late_events = 0;
std::uint64_t g_grid_late_splices = 0;
std::uint64_t g_grid_late_recounts = 0;

void ReplayShuffledAndCheck(const TemporalGraph& graph,
                            const EnumerationOptions& options,
                            const WindowPolicy& policy,
                            std::size_t batch_size, std::uint64_t shuffle_seed,
                            const std::string& label,
                            std::size_t store_budget_bytes = 0) {
  StreamConfig config;
  config.options = options;
  config.window = policy;
  config.store_budget_bytes = store_budget_bytes;
  // Every permutation is in-horizon when the horizon covers the whole
  // stream's time range.
  config.lateness = graph.num_events() == 0
                        ? 1
                        : graph.events().back().time -
                              graph.events().front().time + 1;
  StreamingMotifCounter counter(config);

  const std::vector<Event> shuffled = Shuffled(graph.events(), shuffle_seed);
  std::vector<Event> seen;
  for (std::size_t begin = 0; begin < shuffled.size(); begin += batch_size) {
    const std::size_t end = std::min(shuffled.size(), begin + batch_size);
    counter.Ingest(std::vector<Event>(
        shuffled.begin() + static_cast<std::ptrdiff_t>(begin),
        shuffled.begin() + static_cast<std::ptrdiff_t>(end)));
    seen.insert(seen.end(),
                shuffled.begin() + static_cast<std::ptrdiff_t>(begin),
                shuffled.begin() + static_cast<std::ptrdiff_t>(end));

    const std::vector<Event> window = ExpectedWindowFromSeen(seen, policy);
    const TemporalGraph expect_graph = GraphFromEvents(window);
    const MotifCounts expected = CountMotifs(expect_graph, options);
    ASSERT_EQ(counter.window_size(), window.size())
        << label << " after " << end << " events";
    ASSERT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
        << label << " after " << end << " events: streaming="
        << DescribeCounts(counter.counts())
        << " batch=" << DescribeCounts(expected);
  }
  // The shuffled replay must converge to the sorted replay's final state.
  EXPECT_EQ(counter.counts().SortedByCode(),
            CountMotifs(GraphFromEvents(
                            ExpectedWindowFromSeen(graph.events(), policy)),
                        options)
                .SortedByCode())
      << label;
  g_grid_late_events += counter.stats().late_events;
  g_grid_late_splices += counter.stats().late_splices;
  g_grid_late_recounts += counter.stats().late_recounts;
}

struct LateCase {
  const char* name;
  EnumerationOptions options;
  RandomGraphSpec spec;
  int num_graphs = 5;
  /// Store memory budget (0 = unlimited; 1 = store off after its first
  /// candidate).
  std::size_t store_budget_bytes = 0;
};

std::ostream& operator<<(std::ostream& os, const LateCase& c) {
  return os << c.name;
}

EnumerationOptions Opts(int k, int max_nodes, TimingConstraints timing = {},
                        bool consecutive = false, bool cdg = false,
                        Inducedness inducedness = Inducedness::kNone) {
  EnumerationOptions o;
  o.num_events = k;
  o.max_nodes = max_nodes;
  o.timing = timing;
  o.consecutive_events_restriction = consecutive;
  o.cdg_restriction = cdg;
  o.inducedness = inducedness;
  return o;
}

class StreamLateDifferentialTest
    : public ::testing::TestWithParam<LateCase> {};

TEST_P(StreamLateDifferentialTest, ShuffledReplayMatchesSortedReplay) {
  const LateCase& c = GetParam();
  const std::vector<WindowPolicy> policies = {WindowPolicy::CountBased(8),
                                              WindowPolicy::TimeBased(16)};
  std::uint64_t base_seed = 0x1a7e;
  for (const char* p = c.name; *p != '\0'; ++p) {
    base_seed = base_seed * 131 + static_cast<std::uint64_t>(*p);
  }
  ForEachRandomGraph(
      base_seed, c.num_graphs, c.spec,
      [&](std::uint64_t seed, const TemporalGraph& g) {
        for (const WindowPolicy& policy : policies) {
          for (const std::size_t batch_size :
               {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
            for (const std::uint64_t shuffle_seed :
                 {seed * 3 + 1, seed * 7 + 2}) {
              ReplayShuffledAndCheck(
                  g, c.options, policy, batch_size, shuffle_seed,
                  std::string(c.name) + " seed=" + std::to_string(seed) +
                      " window=" + policy.ToString() +
                      " batch=" + std::to_string(batch_size) +
                      " shuffle=" + std::to_string(shuffle_seed),
                  c.store_budget_bytes);
              if (::testing::Test::HasFatalFailure()) return;
            }
          }
        }
      });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamLateDifferentialTest,
    ::testing::Values(
        // Store-path presets: flips through the buckets, candidates that
        // contain an entered event added.
        LateCase{"paranjape",
                 OptionsForModel(ModelId::kParanjape, 3, 3, 0, 8),
                 DenseSpec()},
        LateCase{"hulovatyy",
                 OptionsForModel(ModelId::kHulovatyy, 3, 3, 6, 0),
                 DenseSpec()},
        // Order predicates: survivors whose time span reaches an entered
        // or evicted event are re-evaluated.
        LateCase{"kovanen", OptionsForModel(ModelId::kKovanen, 3, 3, 6, 0),
                 DenseSpec()},
        LateCase{"window_induced",
                 Opts(3, 3, TimingConstraints::OnlyDeltaW(14), false, false,
                      Inducedness::kTemporalWindow),
                 DenseSpec()},
        LateCase{"cdg_only",
                 Opts(3, 3, TimingConstraints::OnlyDeltaC(6), false, true),
                 DenseSpec()},
        // Purely local predicates: only instances that contain an entered
        // event change (the per-gap dC fast path in vanilla_dc).
        LateCase{"song", OptionsForModel(ModelId::kSong, 3, 3, 0, 8),
                 DenseSpec()},
        LateCase{"vanilla_unbounded", Opts(2, 3), SmallSpec()},
        LateCase{"vanilla_dc", Opts(3, 3, TimingConstraints::OnlyDeltaC(6)),
                 DenseSpec()},
        // Static inducedness with an order predicate keeps no store: a late
        // batch that flips an edge recounts, the rest take the delta path.
        LateCase{"kitchen_sink",
                 Opts(3, 3, TimingConstraints::Both(9, 14), true, true,
                      Inducedness::kStatic),
                 DenseSpec(), 4},
        LateCase{"static_consecutive",
                 Opts(3, 3, {}, true, false, Inducedness::kStatic),
                 DenseSpec(), 4},
        // Store off (1-byte budget): a late batch with a static flip
        // recounts; k = 4 recounts on the DFS.
        LateCase{"paranjape_degraded",
                 OptionsForModel(ModelId::kParanjape, 3, 3, 0, 8),
                 DenseSpec(), 4, /*store_budget_bytes=*/1},
        LateCase{"k4_static_degraded",
                 Opts(4, 3, TimingConstraints::OnlyDeltaW(12), false, false,
                      Inducedness::kStatic),
                 DenseSpec(), 4, /*store_budget_bytes=*/1}),
    [](const ::testing::TestParamInfo<LateCase>& info) {
      return std::string(info.param.name);
    });

// Lateness-horizon accounting: events behind the clock split three ways —
// in-horizon (spliced and counted), beyond the horizon (late_dropped), and
// policy-expired (events_dropped, exactly as if they had arrived on time).
TEST(StreamingMotifCounter, LateDroppedAccounting) {
  StreamConfig config;
  config.options = Opts(2, 3);
  config.window = WindowPolicy::CountBased(16);
  config.lateness = 5;
  StreamingMotifCounter counter(config);
  counter.Ingest({{0, 1, 100}});
  // 94 is 6 behind the clock (beyond the horizon of 5); 96 is in-horizon.
  counter.Ingest({{1, 2, 94}, {2, 3, 96}, {3, 4, 101}});
  const IngestStats& stats = counter.stats();
  EXPECT_EQ(stats.late_dropped, 1u);
  EXPECT_EQ(stats.late_events, 1u);
  EXPECT_EQ(stats.late_splices, 1u);
  EXPECT_EQ(counter.window_size(), 3u);
  const TemporalGraph expected =
      GraphFromEvents({{2, 3, 96}, {0, 1, 100}, {3, 4, 101}});
  EXPECT_EQ(counter.counts().SortedByCode(),
            CountMotifs(expected, config.options).SortedByCode());
  // The horizon measures from the clock at arrival time: after the clock
  // advances to 101, time 95 is out (101 - 5 = 96) but 97 is in.
  counter.Ingest({{4, 5, 95}});
  EXPECT_EQ(counter.stats().late_dropped, 2u);
  counter.Ingest({{4, 5, 97}});
  EXPECT_EQ(counter.stats().late_events, 2u);
  EXPECT_EQ(counter.window_size(), 4u);
}

// A late event expired by the window policy (not the lateness horizon)
// counts as events_dropped and never enters.
TEST(StreamingMotifCounter, LateEventExpiredByPolicyIsDropped) {
  StreamConfig config;
  config.options = Opts(2, 3);
  config.window = WindowPolicy::TimeBased(10);
  config.lateness = 100;
  StreamingMotifCounter counter(config);
  counter.Ingest({{0, 1, 50}});
  counter.Ingest({{1, 2, 35}});  // In lateness horizon, outside the window.
  const IngestStats& stats = counter.stats();
  EXPECT_EQ(stats.late_dropped, 0u);
  EXPECT_EQ(stats.late_events, 0u);
  EXPECT_EQ(stats.events_dropped, 1u);
  EXPECT_EQ(counter.window_size(), 1u);

  // A count-based window at capacity drops a late event older than the
  // whole window the same way.
  StreamConfig count_config;
  count_config.options = Opts(2, 3);
  count_config.window = WindowPolicy::CountBased(2);
  count_config.lateness = 100;
  StreamingMotifCounter count_counter(count_config);
  count_counter.Ingest({{0, 1, 10}, {1, 2, 20}});
  count_counter.Ingest({{2, 3, 5}});  // Older than the kept suffix.
  EXPECT_EQ(count_counter.stats().events_dropped, 1u);
  EXPECT_EQ(count_counter.stats().late_events, 0u);
  EXPECT_EQ(count_counter.window_size(), 2u);
  EXPECT_EQ(count_counter.window_min_time(), 10);
}

// A late event whose entry evicts under an order predicate takes the delta
// path: the survivor 1->2 (t=12), 2->0 (t=14), 0->1 (t=16) has the late
// t=13 event inside its time span and stops being valid under both
// predicates, t=10 leaves, and nothing recounts after startup.
TEST(StreamingMotifCounter, LateEvictionUnderAnOrderPredicateStaysIncremental) {
  struct Case {
    const char* name;
    EnumerationOptions options;
  };
  const Case kCases[] = {
      {"kovanen", OptionsForModel(ModelId::kKovanen, 3, 3, 6, 0)},
      {"window_induced",
       Opts(3, 3, TimingConstraints::OnlyDeltaW(8), false, false,
            Inducedness::kTemporalWindow)},
  };
  for (const Case& c : kCases) {
    StreamConfig config;
    config.options = c.options;
    config.window = WindowPolicy::CountBased(4);
    config.lateness = 10;
    StreamingMotifCounter counter(config);
    counter.Ingest({{0, 1, 10}, {1, 2, 12}, {2, 0, 14}, {0, 1, 16}});
    const MotifCounts before = CountMotifs(
        GraphFromEvents({{1, 2, 12}, {2, 0, 14}, {0, 1, 16}}), c.options);
    EXPECT_EQ(before.count("011220"), 1u) << c.name;
    counter.Ingest({{1, 2, 13}});
    const IngestStats& stats = counter.stats();
    EXPECT_EQ(stats.late_events, 1u) << c.name;
    EXPECT_EQ(stats.events_evicted, 1u) << c.name;
    EXPECT_EQ(stats.late_splices, 1u) << c.name;
    EXPECT_EQ(stats.late_recounts, 0u) << c.name;
    EXPECT_EQ(stats.full_recounts, 1u) << c.name;  // Startup only.
    const MotifCounts expected = CountMotifs(
        GraphFromEvents({{1, 2, 12}, {1, 2, 13}, {2, 0, 14}, {0, 1, 16}}),
        c.options);
    EXPECT_EQ(counter.counts().SortedByCode(), expected.SortedByCode())
        << c.name << ": streaming=" << DescribeCounts(counter.counts())
        << " batch=" << DescribeCounts(expected);
  }
}

// Late batches take the in-order plumbing: PlanIngest and Apply merge late
// events into canonical position (after residents with identical keys),
// capacity evictions take the merged prefix, and the reported positions
// are the entered events'.
TEST(WindowGraph, SpliceMergesIntoCanonicalPosition) {
  WindowGraph window(WindowPolicy::CountBased(5));
  std::vector<Event> first = {{0, 1, 10}, {1, 2, 20}, {2, 3, 30}};
  window.Apply(window.PlanIngest(first), first);

  std::vector<Event> late = {{3, 4, 15}, {4, 5, 25}};
  const IngestPlan plan = window.PlanIngest(late);
  EXPECT_EQ(plan.num_evict, 0u);
  EXPECT_EQ(plan.batch_begin, 0u);
  std::vector<std::size_t> positions;
  window.Apply(plan, late, &positions);
  ASSERT_EQ(window.size(), 5u);
  ASSERT_EQ(positions.size(), 2u);
  EXPECT_EQ(positions[0], 1u);
  EXPECT_EQ(positions[1], 3u);
  EXPECT_EQ(window.event(1).time, 15);
  EXPECT_EQ(window.event(3).time, 25);
  EXPECT_EQ(window.max_time_seen(), 30);  // The clock never moves back.

  // At capacity: the merged canonical prefix is evicted, late events
  // falling inside it are dropped.
  std::vector<Event> more = {{5, 6, 12}, {6, 7, 28}};
  const IngestPlan plan2 = window.PlanIngest(more);
  EXPECT_EQ(plan2.num_evict + (2 - plan2.batch_begin), 2u);
  window.Apply(plan2, more, &positions);
  EXPECT_EQ(window.size(), 5u);
  for (std::size_t i = 1; i < window.size(); ++i) {
    EXPECT_FALSE(EventTimeLess(window.event(i), window.event(i - 1)));
  }
}

class LateCoverageEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    if (::testing::GTEST_FLAG(filter) != "*" ||
        std::getenv("GTEST_TOTAL_SHARDS") != nullptr) {
      return;
    }
    // The shuffled grid's agreement is only meaningful if late events
    // actually flowed through both the delta path and the recount.
    EXPECT_GT(g_grid_late_events, 0u);
    EXPECT_GT(g_grid_late_splices, 0u);
    EXPECT_GT(g_grid_late_recounts, 0u);
  }
};

const ::testing::Environment* const g_late_env =
    ::testing::AddGlobalTestEnvironment(new LateCoverageEnvironment);

}  // namespace
}  // namespace tmotif
