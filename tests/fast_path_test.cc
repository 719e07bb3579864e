// Differential tests for the specialized k <= 3 counting fast paths
// (core/fast_paths/): for every option combination the dispatcher routes to
// the closed-form counters, the dispatched CountMotifs / CountInstances must
// agree code-for-code with BOTH the brute-force reference oracle and the
// generic DFS engine forced through internal::EnumerateCore — three
// independent implementations, one answer. Range counting is checked the
// same way on sub-ranges (the window-difference identity), a reused
// WindowCounter must answer every call of a random window sequence exactly
// like a fresh one, and a dispatch guard pins FastPathSupported itself so
// the grid cannot silently stop exercising the specialized code.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/enumerate_core.h"
#include "core/enumerator.h"
#include "core/fast_paths/fast_path.h"
#include "core/models/model_info.h"
#include "core/packed_table.h"
#include "testing/random_graphs.h"
#include "testing/reference_oracle.h"

namespace tmotif {
namespace {

using testing::ForEachRandomGraph;
using testing::RandomGraphSpec;
using testing::ReferenceCountMotifs;

RandomGraphSpec TinySpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 5;
  spec.num_events = 14;
  spec.max_time = 20;
  spec.prob_duplicate_time = 0.4;
  return spec;
}

RandomGraphSpec WideSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 7;
  spec.num_events = 16;
  spec.max_time = 40;
  spec.prob_duplicate_time = 0.25;
  return spec;
}

/// Few nodes, many events and heavy ties: every node is a hub whose star
/// sweep sees long timelines over a handful of partners.
RandomGraphSpec HubSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 4;
  spec.num_events = 28;
  spec.max_time = 30;
  spec.prob_duplicate_time = 0.5;
  return spec;
}

EnumerationOptions Opts(int k, int max_nodes, TimingConstraints timing = {},
                        Inducedness inducedness = Inducedness::kNone) {
  EnumerationOptions o;
  o.num_events = k;
  o.max_nodes = max_nodes;
  o.timing = timing;
  o.inducedness = inducedness;
  return o;
}

/// The generic engine with dispatch bypassed: always internal::EnumerateCore
/// into a packed table, never the fast paths.
MotifCounts ForcedGenericCount(const TemporalGraph& graph,
                               const EnumerationOptions& options,
                               EventIndex first_begin, EventIndex first_end) {
  internal::PackedMotifTable table;
  internal::PackedTableSink sink{&table};
  internal::EnumerateCore(graph, options, first_begin, first_end, sink);
  MotifCounts counts;
  counts.AddTable(table);
  return counts;
}

std::string Describe(const MotifCounts& counts) {
  std::string out;
  for (const auto& [code, count] : counts.SortedByCode()) {
    out += code + ":" + std::to_string(count) + " ";
  }
  return out.empty() ? "(empty)" : out;
}

struct FastPathCase {
  const char* name;
  EnumerationOptions options;
};

std::ostream& operator<<(std::ostream& os, const FastPathCase& c) {
  return os << c.name;
}

/// Every combination FastPathSupported accepts, by counter family: the
/// 2-node event-sequence DP (max_nodes == 2), the wedge/star/triangle
/// counters (k == 3, max_nodes == 3, also under static inducedness), the
/// k <= 2 closed forms, and the k == 1 trivial paths where even
/// inducedness is a per-event lookup — each under a timespan bound (dW,
/// or min(dC, dW) at k == 2) and, at k == 3, under a per-gap dC bound
/// (Hulovatyy et al.'s preset, and dC <= dW / 2 where dW is implied).
const std::vector<FastPathCase> DispatchedCases() {
  return {
      {"k1_vanilla", Opts(1, 2)},
      {"k1_static", Opts(1, 2, {}, Inducedness::kStatic)},
      {"k1_temporal_window", Opts(1, 2, {}, Inducedness::kTemporalWindow)},
      {"k2_pair_unbounded", Opts(2, 2)},
      {"k2_pair_dw", Opts(2, 2, TimingConstraints::OnlyDeltaW(8))},
      {"k2_pair_static", Opts(2, 2, {}, Inducedness::kStatic)},
      {"k2_pair_dc", Opts(2, 2, TimingConstraints::OnlyDeltaC(5))},
      {"k2_n3_unbounded", Opts(2, 3)},
      {"k2_n3_dw", Opts(2, 3, TimingConstraints::OnlyDeltaW(10))},
      {"k2_n3_dc", Opts(2, 3, TimingConstraints::OnlyDeltaC(6))},
      {"k2_n3_dc_dw", Opts(2, 3, TimingConstraints::Both(4, 9))},
      {"k3_pair_unbounded", Opts(3, 2)},
      {"k3_pair_dw", Opts(3, 2, TimingConstraints::OnlyDeltaW(8))},
      {"k3_pair_static_dw",
       Opts(3, 2, TimingConstraints::OnlyDeltaW(8), Inducedness::kStatic)},
      {"k3_pair_dc", Opts(3, 2, TimingConstraints::OnlyDeltaC(4))},
      {"k3_pair_static_dc",
       Opts(3, 2, TimingConstraints::OnlyDeltaC(4), Inducedness::kStatic)},
      {"k3_n3_unbounded", Opts(3, 3)},
      {"k3_n3_dw_tight", Opts(3, 3, TimingConstraints::OnlyDeltaW(6))},
      {"k3_n3_dw_loose", Opts(3, 3, TimingConstraints::OnlyDeltaW(25))},
      {"k3_n3_static_unbounded", Opts(3, 3, {}, Inducedness::kStatic)},
      {"k3_n3_static_dw_tight",
       Opts(3, 3, TimingConstraints::OnlyDeltaW(6), Inducedness::kStatic)},
      {"k3_n3_static_dw_loose",
       Opts(3, 3, TimingConstraints::OnlyDeltaW(25), Inducedness::kStatic)},
      {"k3_n3_dc_tight", Opts(3, 3, TimingConstraints::OnlyDeltaC(3))},
      {"k3_n3_dc_loose", Opts(3, 3, TimingConstraints::OnlyDeltaC(12))},
      {"k3_n3_static_dc_tight",
       Opts(3, 3, TimingConstraints::OnlyDeltaC(3), Inducedness::kStatic)},
      {"k3_n3_static_dc_loose",
       Opts(3, 3, TimingConstraints::OnlyDeltaC(12), Inducedness::kStatic)},
      // dC <= dW / 2: only dC binds. dC >= dW: only dW binds.
      {"k3_n3_dc_implied_dw", Opts(3, 3, TimingConstraints::Both(4, 8))},
      {"k3_n3_dw_implied_dc", Opts(3, 3, TimingConstraints::Both(9, 6))},
      {"k3_n3_static_dc_implied_dw",
       Opts(3, 3, TimingConstraints::Both(5, 11), Inducedness::kStatic)},
  };
}

class FastPathDifferentialTest
    : public ::testing::TestWithParam<FastPathCase> {};

// Three-way differential on full graphs: fast path == generic DFS ==
// brute-force oracle, code for code, over the three graph shapes.
TEST_P(FastPathDifferentialTest, MatchesOracleAndGenericEngine) {
  const FastPathCase& c = GetParam();
  ASSERT_TRUE(internal::fast_paths::FastPathSupported(c.options)) << c.name;
  int nonzero = 0;
  for (const RandomGraphSpec& spec : {TinySpec(), WideSpec(), HubSpec()}) {
    ForEachRandomGraph(
        0xfa57 + static_cast<std::uint64_t>(spec.num_nodes), 8, spec,
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const MotifCounts fast = CountMotifs(g, c.options);
          const MotifCounts generic =
              ForcedGenericCount(g, c.options, 0, g.num_events());
          const MotifCounts oracle = ReferenceCountMotifs(g, c.options);
          const std::string label = std::string(c.name) + " seed=" +
                                    std::to_string(seed) + " " +
                                    spec.ToString();
          ASSERT_EQ(fast.SortedByCode(), generic.SortedByCode())
              << label << ": fast=" << Describe(fast)
              << " generic=" << Describe(generic);
          ASSERT_EQ(fast.SortedByCode(), oracle.SortedByCode())
              << label << ": fast=" << Describe(fast)
              << " oracle=" << Describe(oracle);
          ASSERT_EQ(CountInstances(g, c.options), oracle.total()) << label;
          if (fast.total() > 0) ++nonzero;
        });
  }
  EXPECT_GT(nonzero, 0) << c.name;  // The case must count something.
}

// Range counting: the window-difference evaluation of
// CountMotifsInRange(b, e) must agree with the generic engine restricted to
// the same first-event range, and adjacent ranges must sum to the whole.
TEST_P(FastPathDifferentialTest, RangeCountsMatchGenericAndCompose) {
  const FastPathCase& c = GetParam();
  ForEachRandomGraph(
      0x4a6e5, 6, TinySpec(), [&](std::uint64_t seed, const TemporalGraph& g) {
        const EventIndex n = g.num_events();
        const std::vector<std::pair<EventIndex, EventIndex>> ranges = {
            {0, n}, {0, n / 2}, {n / 2, n}, {n / 3, (2 * n) / 3}, {n - 1, n}};
        for (const auto& [begin, end] : ranges) {
          const MotifCounts fast = CountMotifsInRange(g, c.options, begin, end);
          const MotifCounts generic =
              ForcedGenericCount(g, c.options, begin, end);
          ASSERT_EQ(fast.SortedByCode(), generic.SortedByCode())
              << c.name << " seed=" << seed << " range=[" << begin << ","
              << end << "): fast=" << Describe(fast)
              << " generic=" << Describe(generic);
          ASSERT_EQ(CountInstancesInRange(g, c.options, begin, end),
                    fast.total())
              << c.name << " seed=" << seed;
        }
        // Split composition: counts partition by first-event index.
        const MotifCounts whole = CountMotifsInRange(g, c.options, 0, n);
        MotifCounts sum;
        for (const auto& [code, count] :
             CountMotifsInRange(g, c.options, 0, n / 2).SortedByCode()) {
          sum.Add(code, count);
        }
        for (const auto& [code, count] :
             CountMotifsInRange(g, c.options, n / 2, n).SortedByCode()) {
          sum.Add(code, count);
        }
        ASSERT_EQ(sum.SortedByCode(), whole.SortedByCode())
            << c.name << " seed=" << seed;
      });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FastPathDifferentialTest, ::testing::ValuesIn(DispatchedCases()),
    [](const ::testing::TestParamInfo<FastPathCase>& info) {
      return std::string(info.param.name);
    });

/// Per-code totals of one WindowCounter::Count call.
template <typename Include>
std::map<std::uint64_t, std::uint64_t> WindowTotals(
    internal::fast_paths::WindowCounter<TemporalGraph>* counter,
    EventIndex lo, EventIndex hi, const Include& include) {
  std::map<std::uint64_t, std::uint64_t> totals;
  counter->Count(lo, hi, include, [&](std::uint64_t code, std::uint64_t n) {
    totals[code] += n;
  });
  return totals;
}

/// The generic engine's answer to the same question: instances with every
/// event in [lo, hi) and accepted by `include` (inducedness still reads the
/// full graph, exactly like the fast paths).
template <typename Include>
std::map<std::uint64_t, std::uint64_t> GenericWindowTotals(
    const TemporalGraph& graph, const EnumerationOptions& options,
    EventIndex lo, EventIndex hi, const Include& include) {
  std::map<std::uint64_t, std::uint64_t> totals;
  auto sink = internal::MakeFnSink(
      [&](const EventIndex* chosen, int k, std::uint64_t packed) {
        for (int i = 0; i < k; ++i) {
          if (chosen[i] >= hi || !include(chosen[i])) return;
        }
        ++totals[packed];
      });
  internal::EnumerateCore(graph, options, lo, hi, sink);
  return totals;
}

// Reuse differential: one counter per (graph, options), driven through a
// seeded sequence of windows that grow and shrink, with and without an
// exclude filter. Every call must equal a freshly built counter and the
// forced-generic DFS, code for code — a per-call reset the reused scratch
// misses (index generation, timeline offsets, wedge counts) shows up as a
// count carried over from an earlier window.
TEST(FastPathReuse, ReusedCounterMatchesFreshCounterAndGenericEngine) {
  RandomGraphSpec ties = TinySpec();
  ties.num_events = 24;
  ties.max_time = 12;
  ties.prob_duplicate_time = 0.6;
  RandomGraphSpec larger = WideSpec();
  larger.num_nodes = 9;
  larger.num_events = 40;
  larger.max_time = 60;
  std::vector<EnumerationOptions> combos;
  for (int k = 1; k <= 3; ++k) {
    for (int max_nodes = 2; max_nodes <= 3; ++max_nodes) {
      for (const Inducedness induced :
           {Inducedness::kNone, Inducedness::kStatic}) {
        for (const TimingConstraints& timing :
             {TimingConstraints{}, TimingConstraints::OnlyDeltaW(7),
              TimingConstraints::OnlyDeltaC(6)}) {
          if (max_nodes > k + 1) continue;
          const EnumerationOptions o = Opts(k, max_nodes, timing, induced);
          if (internal::fast_paths::FastPathSupported(o)) combos.push_back(o);
        }
      }
    }
  }
  // All but static inducedness on 3-node wedges (k == 2).
  ASSERT_EQ(combos.size(), 27u);

  int calls = 0;
  int nonzero = 0;
  for (const RandomGraphSpec& spec : {TinySpec(), ties, larger}) {
    ForEachRandomGraph(
        0x7e05e + static_cast<std::uint64_t>(spec.num_events), 4, spec,
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const EventIndex n = g.num_events();
          for (const EnumerationOptions& o : combos) {
            internal::fast_paths::WindowCounter<TemporalGraph> reused(g, o);
            std::mt19937_64 rng(seed * 31 + static_cast<std::uint64_t>(
                                                o.num_events * 4 +
                                                o.max_nodes));
            for (int step = 0; step < 12; ++step) {
              EventIndex lo = static_cast<EventIndex>(rng() % (n + 1));
              EventIndex hi = static_cast<EventIndex>(rng() % (n + 1));
              if (lo > hi) std::swap(lo, hi);
              if (step % 4 == 0) {  // Whole graph: the largest scratch.
                lo = 0;
                hi = n;
              }
              const std::uint64_t mask = rng();
              const bool filtered = step % 2 == 1;
              const auto include = [&](EventIndex i) {
                return !filtered || ((mask >> (i % 64)) & 1) != 0;
              };
              const std::string label =
                  "seed=" + std::to_string(seed) + " " + spec.ToString() +
                  " k=" + std::to_string(o.num_events) +
                  " n=" + std::to_string(o.max_nodes) + " static=" +
                  std::to_string(o.inducedness == Inducedness::kStatic) +
                  " " + o.timing.ToString() +
                  " step=" + std::to_string(step) + " [" +
                  std::to_string(lo) + "," + std::to_string(hi) +
                  ") filtered=" + std::to_string(filtered);
              internal::fast_paths::WindowCounter<TemporalGraph> fresh(g, o);
              const auto got = WindowTotals(&reused, lo, hi, include);
              ASSERT_EQ(got, WindowTotals(&fresh, lo, hi, include)) << label;
              ASSERT_EQ(got, GenericWindowTotals(g, o, lo, hi, include))
                  << label;
              ++calls;
              if (!got.empty()) ++nonzero;
            }
          }
        });
  }
  EXPECT_GT(nonzero, calls / 2);  // The sequence must count something.
}

// Static inducedness reads a star's third pair from the full graph, also
// when the counted range holds none of that pair's events. Events 1..3 form
// a star around node 1 whose third pair (0, 2) has its only event (0)
// before the range: the star is void, so the range [1, 4) counts nothing,
// while the whole graph counts the two triangles through event 0.
TEST(FastPathStatic, RangeCountSeesThirdPairOutsideTheRange) {
  const TemporalGraph g =
      GraphFromEvents({{0, 2, 1}, {0, 1, 2}, {1, 2, 3}, {0, 1, 4}});
  const EnumerationOptions o =
      OptionsForModel(ModelId::kParanjape, 3, 3, /*delta_c=*/0,
                      /*delta_w=*/100);
  ASSERT_TRUE(internal::fast_paths::FastPathSupported(o));
  EXPECT_EQ(CountMotifsInRange(g, o, 1, 4).total(), 0u);
  EXPECT_EQ(ForcedGenericCount(g, o, 1, 4).total(), 0u);
  const MotifCounts whole = CountMotifs(g, o);
  EXPECT_EQ(whole.total(), 2u);
  EXPECT_EQ(whole.SortedByCode(),
            ForcedGenericCount(g, o, 0, g.num_events()).SortedByCode());
  EXPECT_EQ(whole.SortedByCode(), ReferenceCountMotifs(g, o).SortedByCode());
}

// Window bounds saturate: with timestamps spanning the signed range, a
// plain t - t0 wraps, and an unsaturated dW test keeps events 2^64 - 21
// apart in one window (k = 2 pairs and wedges, k = 3 stars, with and
// without static inducedness). Near the top the legitimate instances —
// a pair, a star and a static triangle — have t0 + dW past INT64_MAX. The
// per-gap dC bounds saturate the same way (t + dC past INT64_MAX).
TEST(FastPathSaturation, TimestampsSpanningTheSignedRange) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  const TemporalGraph g = GraphFromEvents({{0, 1, kMin + 5},
                                           {0, 2, 0},
                                           {0, 1, kMax - 15},
                                           {0, 2, kMax - 10},
                                           {0, 1, kMax - 5},
                                           {0, 1, kMax - 1},
                                           {3, 4, kMin + 3},
                                           {3, 4, kMax - 12},
                                           {4, 5, kMax - 8},
                                           {5, 3, kMax - 3}});
  const TimingConstraints dw = TimingConstraints::OnlyDeltaW(20);
  const TimingConstraints dc = TimingConstraints::OnlyDeltaC(10);
  const struct {
    const char* name;
    EnumerationOptions options;
  } configs[] = {
      {"k2_pair", Opts(2, 2, dw)},
      {"k2_n3", Opts(2, 3, dw)},
      {"k3_n3", Opts(3, 3, dw)},
      {"k3_n3_static", Opts(3, 3, dw, Inducedness::kStatic)},
      {"k2_pair_dc", Opts(2, 2, dc)},
      {"k3_pair_dc", Opts(3, 2, dc)},
      {"k3_n3_dc", Opts(3, 3, dc)},
      {"k3_n3_static_dc", Opts(3, 3, dc, Inducedness::kStatic)},
  };
  for (const auto& config : configs) {
    ASSERT_TRUE(internal::fast_paths::FastPathSupported(config.options))
        << config.name;
    const MotifCounts fast = CountMotifs(g, config.options);
    const MotifCounts generic =
        ForcedGenericCount(g, config.options, 0, g.num_events());
    const MotifCounts oracle = ReferenceCountMotifs(g, config.options);
    EXPECT_GT(fast.total(), 0u) << config.name;
    EXPECT_EQ(fast.SortedByCode(), generic.SortedByCode())
        << config.name << ": fast=" << Describe(fast)
        << " generic=" << Describe(generic);
    EXPECT_EQ(fast.SortedByCode(), oracle.SortedByCode())
        << config.name << ": fast=" << Describe(fast)
        << " oracle=" << Describe(oracle);
  }
  // The two-event repro: 2^64 - 21 apart, so no instance at dW = 10.
  const TemporalGraph pair =
      GraphFromEvents({{0, 1, kMin + 10}, {0, 1, kMax - 10}});
  const EnumerationOptions song =
      OptionsForModel(ModelId::kSong, 2, 3, /*delta_c=*/0, /*delta_w=*/10);
  EXPECT_EQ(CountMotifs(pair, song).total(), 0u);
  EXPECT_EQ(ForcedGenericCount(pair, song, 0, 2).total(), 0u);
  EXPECT_EQ(ReferenceCountMotifs(pair, song).total(), 0u);

  // Two gaps of dC = 3 * 2^61 span 3 * 2^62 > INT64_MAX: a star and a
  // triangle whose first and last events are further apart than any
  // saturated 2 * dC reaches.
  constexpr Timestamp kGap = Timestamp{3} << 61;
  const TemporalGraph wide = GraphFromEvents({{0, 1, kMin + 5},
                                              {6, 7, kMin + 5},
                                              {0, 2, kMin + 5 + kGap},
                                              {7, 8, kMin + 5 + kGap},
                                              {0, 1, kMin + 5 + kGap + kGap},
                                              {8, 6, kMin + 5 + kGap + kGap}});
  for (const Inducedness induced : {Inducedness::kNone, Inducedness::kStatic}) {
    const EnumerationOptions o =
        Opts(3, 3, TimingConstraints::OnlyDeltaC(kGap), induced);
    ASSERT_TRUE(internal::fast_paths::FastPathSupported(o));
    const MotifCounts fast = CountMotifs(wide, o);
    EXPECT_EQ(fast.total(), 2u) << Describe(fast);
    EXPECT_EQ(fast.SortedByCode(),
              ForcedGenericCount(wide, o, 0, wide.num_events()).SortedByCode());
    EXPECT_EQ(fast.SortedByCode(),
              ReferenceCountMotifs(wide, o).SortedByCode());
  }
}

// Dispatch-coverage guard: the grid above is only meaningful while these
// combinations actually route to the fast paths, and the generic engine
// must keep owning everything the counters do not implement. A change to
// FastPathSupported shows up here before it silently redirects the grid.
TEST(FastPathDispatch, SupportedAndUnsupportedCombinations) {
  for (const FastPathCase& c : DispatchedCases()) {
    EXPECT_TRUE(internal::fast_paths::FastPathSupported(c.options)) << c.name;
  }

  // k >= 4 never dispatches.
  EXPECT_FALSE(internal::fast_paths::FastPathSupported(Opts(4, 4)));
  // A dC gap dispatches unless both bounds bind (dW / 2 < dC < dW at
  // k == 3; never at k == 2) or durations stretch the gaps.
  EXPECT_TRUE(internal::fast_paths::FastPathSupported(
      Opts(3, 3, TimingConstraints::OnlyDeltaC(5))));
  EXPECT_FALSE(internal::fast_paths::FastPathSupported(
      Opts(3, 3, TimingConstraints::Both(5, 7))));
  EXPECT_TRUE(internal::fast_paths::FastPathSupported(
      Opts(2, 3, TimingConstraints::Both(5, 7))));
  // 2 * 2^62 overflows a Timestamp: dW = 2^62 + 1 still binds.
  EXPECT_FALSE(internal::fast_paths::FastPathSupported(Opts(
      3, 3, TimingConstraints::Both(Timestamp{1} << 62,
                                    (Timestamp{1} << 62) + 1))));
  EnumerationOptions durations = Opts(3, 3, TimingConstraints::OnlyDeltaC(5));
  durations.duration_aware_gaps = true;
  EXPECT_FALSE(internal::fast_paths::FastPathSupported(durations));
  // Order predicates are DFS-only.
  EnumerationOptions consec = Opts(3, 3);
  consec.consecutive_events_restriction = true;
  EXPECT_FALSE(internal::fast_paths::FastPathSupported(consec));
  EnumerationOptions cdg = Opts(3, 3);
  cdg.cdg_restriction = true;
  EXPECT_FALSE(internal::fast_paths::FastPathSupported(cdg));
  // Temporal-window inducedness is only trivial at k == 1.
  EXPECT_FALSE(internal::fast_paths::FastPathSupported(
      Opts(2, 2, {}, Inducedness::kTemporalWindow)));
  // Static inducedness on 3-node wedges needs the DFS scope checks; the
  // k == 3 stars and triangles reduce to per-pair static facts.
  EXPECT_TRUE(internal::fast_paths::FastPathSupported(
      Opts(3, 3, {}, Inducedness::kStatic)));
  EXPECT_FALSE(internal::fast_paths::FastPathSupported(
      Opts(2, 3, {}, Inducedness::kStatic)));
  // Static inducedness with a dC gap (Hulovatyy et al.) is a k == 3
  // star-and-triangle shape like Paranjape et al.'s.
  EXPECT_TRUE(internal::fast_paths::FastPathSupported(
      Opts(3, 3, TimingConstraints::OnlyDeltaC(5), Inducedness::kStatic)));
  EXPECT_TRUE(internal::fast_paths::FastPathSupported(OptionsForModel(
      ModelId::kHulovatyy, 3, 3, /*delta_c=*/1500, /*delta_w=*/0)));
  EXPECT_TRUE(internal::fast_paths::FastPathSupported(
      Opts(3, 3, TimingConstraints::Both(1500, 3000))));
}

}  // namespace
}  // namespace tmotif
