// Differential tests for the vectorized counting kernels (core/simd/):
// every ISA variant this machine can run must be bit-identical to the
// always-compiled scalar kernels — same probe masks (hence the same table
// layout), same distinct-count verdicts and pre-filter masks — on seeded
// adversarial inputs, and the full counting stack must emit the identical
// instance stream at every dispatch level and over both graph types
// (TemporalGraph and the streaming WindowGraph) across the predicate
// grid. The scope-saturated temporal-window final path is pinned against
// the brute-force oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/counter.h"
#include "core/enumerate_core.h"
#include "core/enumerator.h"
#include "core/packed_table.h"
#include "core/simd/dispatch.h"
#include "core/simd/kernels.h"
#include "stream/stream_window.h"
#include "stream/window_graph.h"
#include "testing/differential.h"
#include "testing/random_graphs.h"
#include "testing/reference_oracle.h"

namespace tmotif {
namespace {

using testing::DiffAgainstOracle;
using testing::ForEachRandomGraph;
using testing::RandomGraphSpec;

/// Non-scalar levels runnable here; empty on machines without SSE4.2.
std::vector<simd::DispatchLevel> VectorLevels() {
  std::vector<simd::DispatchLevel> levels = simd::AvailableLevels();
  levels.erase(std::remove(levels.begin(), levels.end(),
                           simd::DispatchLevel::kScalar),
               levels.end());
  return levels;
}

/// Restores CPU detection after every test, whatever happened inside.
class KernelDiffTest : public ::testing::Test {
 protected:
  ~KernelDiffTest() override { simd::ResetDispatchLevelForTesting(); }
};

TEST_F(KernelDiffTest, ScalarKernelsAlwaysAvailable) {
  ASSERT_NE(simd::ScalarKernels(), nullptr);
  const auto levels = simd::AvailableLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::DispatchLevel::kScalar);
  for (const simd::DispatchLevel level : levels) {
    SCOPED_TRACE(simd::DispatchLevelName(level));
    const simd::KernelOps* ops = simd::KernelsFor(level);
    ASSERT_NE(ops, nullptr);
    EXPECT_NE(ops->match_tags, nullptr);
    EXPECT_NE(ops->match_empty, nullptr);
    EXPECT_NE(ops->distinct_pair_count, nullptr);
    EXPECT_NE(ops->prefilter_codes, nullptr);
  }
}

TEST_F(KernelDiffTest, ForceScalarTestHookPinsTheTable) {
  simd::SetDispatchLevelForTesting(simd::DispatchLevel::kScalar);
  EXPECT_EQ(simd::ActiveDispatchLevel(), simd::DispatchLevel::kScalar);
  EXPECT_EQ(&simd::Kernels(), simd::ScalarKernels());
  simd::ResetDispatchLevelForTesting();
  // After reset the process-wide detected level is back in charge: the best
  // compiled-and-supported ISA, unless the environment pinned scalar (the
  // forced-scalar CTest rerun exercises exactly that branch).
  const char* forced = std::getenv("TMOTIF_FORCE_SCALAR");
  if (forced != nullptr && forced[0] != '\0' &&
      std::string(forced) != "0") {
    EXPECT_EQ(simd::ActiveDispatchLevel(), simd::DispatchLevel::kScalar);
  } else {
    EXPECT_EQ(simd::ActiveDispatchLevel(), simd::AvailableLevels().back());
  }
}

// ---------------------------------------------------------------------------
// Kernel-level contracts: each vector variant vs the scalar reference.
// ---------------------------------------------------------------------------

TEST_F(KernelDiffTest, ProbeGroupMatchersMatchScalar) {
  const simd::KernelOps* scalar = simd::ScalarKernels();
  std::mt19937_64 rng(0x9406e);
  // Tags cluster in a tiny alphabet so groups contain repeats, empties and
  // near-misses.
  const std::uint8_t alphabet[] = {0x00, 0x01, 0x3f, 0x7f, simd::kEmptyCtrl};
  std::uniform_int_distribution<int> pick(0, 4);
  for (int round = 0; round < 500; ++round) {
    std::uint8_t group[simd::kGroupSize];
    for (std::uint8_t& b : group) {
      b = alphabet[static_cast<std::size_t>(pick(rng))];
    }
    for (const std::uint8_t tag : {std::uint8_t{0x00}, std::uint8_t{0x01},
                                   std::uint8_t{0x3f}, std::uint8_t{0x7f}}) {
      const std::uint32_t want = scalar->match_tags(group, tag);
      for (const simd::DispatchLevel level : VectorLevels()) {
        ASSERT_EQ(simd::KernelsFor(level)->match_tags(group, tag), want)
            << simd::DispatchLevelName(level) << " round=" << round
            << " tag=" << static_cast<int>(tag);
      }
    }
    const std::uint32_t want_empty = scalar->match_empty(group);
    for (const simd::DispatchLevel level : VectorLevels()) {
      ASSERT_EQ(simd::KernelsFor(level)->match_empty(group), want_empty)
          << simd::DispatchLevelName(level) << " round=" << round;
    }
  }
}

/// Random packed code with `k` non-zero event bytes drawn from a tiny digit
/// alphabet (heavy byte repetition, like real motif codes).
std::uint64_t RandomCode(std::mt19937_64& rng, int k) {
  std::uniform_int_distribution<int> digit(0, 3);
  std::uint64_t code = 0;
  for (int i = 0; i < k; ++i) {
    int src = digit(rng);
    int dst = digit(rng);
    if (src == 0 && dst == 0) dst = 1;  // Event bytes are never zero.
    code |= internal::PackPair(src, dst, i);
  }
  return code;
}

TEST_F(KernelDiffTest, DistinctPairCountMatchesScalar) {
  const simd::KernelOps* scalar = simd::ScalarKernels();
  std::mt19937_64 rng(0xd15717c7);
  for (int round = 0; round < 2000; ++round) {
    std::uniform_int_distribution<int> k_dist(1, internal::kMaxCoreEvents);
    const int k = k_dist(rng);
    const std::uint64_t code = RandomCode(rng, k);
    const int want = scalar->distinct_pair_count(code, k);
    ASSERT_EQ(want, internal::PackedDistinctPairCount(code, k));
    for (const simd::DispatchLevel level : VectorLevels()) {
      ASSERT_EQ(simd::KernelsFor(level)->distinct_pair_count(code, k), want)
          << simd::DispatchLevelName(level) << " code=" << code
          << " k=" << k;
    }
  }
}

TEST_F(KernelDiffTest, PrefilterCodesMatchesScalar) {
  const simd::KernelOps* scalar = simd::ScalarKernels();
  std::mt19937_64 rng(0xf117e6);
  for (int round = 0; round < 300; ++round) {
    std::uniform_int_distribution<int> k_dist(1, internal::kMaxCoreEvents);
    std::uniform_int_distribution<int> n_dist(1, 80);
    const int k = k_dist(rng);
    const int n = n_dist(rng);
    std::vector<std::uint64_t> codes(static_cast<std::size_t>(n));
    for (std::uint64_t& c : codes) c = RandomCode(rng, k);
    std::uniform_int_distribution<int> want_dist(1, k);
    const int want = want_dist(rng);
    std::vector<std::uint8_t> expect(static_cast<std::size_t>(n), 0xee);
    scalar->prefilter_codes(codes.data(), n, k, want, expect.data());
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(expect[static_cast<std::size_t>(i)],
                internal::PackedDistinctPairCount(
                    codes[static_cast<std::size_t>(i)], k) == want
                    ? 1
                    : 0);
    }
    for (const simd::DispatchLevel level : VectorLevels()) {
      std::vector<std::uint8_t> got(static_cast<std::size_t>(n), 0xbb);
      simd::KernelsFor(level)->prefilter_codes(codes.data(), n, k, want,
                                               got.data());
      ASSERT_EQ(got, expect)
          << simd::DispatchLevelName(level) << " round=" << round
          << " k=" << k << " want=" << want;
    }
  }
}

// ---------------------------------------------------------------------------
// Stack-level: counts, emission order, and table layout must not depend on
// the dispatch level or the graph type.
// ---------------------------------------------------------------------------

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

RandomGraphSpec GridSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 6;
  spec.num_events = 18;
  spec.max_time = 36;
  spec.prob_duplicate_time = 0.3;
  return spec;
}

struct GridCase {
  const char* name;
  EnumerationOptions options;
};

const std::vector<GridCase>& PredicateGrid() {
  static const std::vector<GridCase> grid = {
      {"k3_vanilla", Opts(3, 4)},
      {"k3_dw", Opts(3, 4, TimingConstraints::OnlyDeltaW(14))},
      {"k3_dc_dw", Opts(3, 3, TimingConstraints::Both(8, 12))},
      {"k3_consecutive", Opts(3, 3, {}, /*consecutive=*/true)},
      {"k3_cdg", Opts(3, 3, {}, false, /*cdg=*/true)},
      {"k3_static", Opts(3, 3, {}, false, false, Inducedness::kStatic)},
      {"k3_window", Opts(3, 3, {}, false, false,
                         Inducedness::kTemporalWindow)},
      {"k3_window_pair", Opts(3, 2, {}, false, false,
                              Inducedness::kTemporalWindow)},
      {"k4_static_dw",
       Opts(4, 4, TimingConstraints::OnlyDeltaW(20), false, false,
            Inducedness::kStatic)},
      {"k4_window_dw",
       Opts(4, 3, TimingConstraints::OnlyDeltaW(20), false, false,
            Inducedness::kTemporalWindow)},
  };
  return grid;
}

/// Full (chosen indices, packed code) emission stream plus the
/// packed-table iteration order (layout-sensitive): everything the dispatch
/// level or the graph type could possibly leak into.
struct StackTrace {
  std::vector<std::pair<std::vector<EventIndex>, std::uint64_t>> instances;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> table_order;
  std::uint64_t total = 0;
};

template <typename Graph>
StackTrace RunStack(const Graph& g, const EnumerationOptions& opt) {
  StackTrace trace;
  struct RecordingSink {
    StackTrace* trace;
    internal::PackedMotifTable table;
    void Emit(const EventIndex* chosen, int num_events, std::uint64_t packed,
              const NodeId*, int) {
      trace->instances.emplace_back(
          std::vector<EventIndex>(chosen, chosen + num_events), packed);
      table.Add(packed);
    }
  };
  RecordingSink sink{&trace, {}};
  trace.total = internal::EnumerateCore(g, opt, 0, g.num_events(), sink);
  sink.table.ForEach([&](std::uint64_t packed, std::uint64_t count) {
    trace.table_order.emplace_back(packed, count);
  });
  return trace;
}

/// The streaming WindowGraph holding `g`'s canonically sorted events,
/// filled batch by batch the way the streaming counter maintains it. The
/// window never evicts, so window positions equal `g`'s event indices.
struct LiveWindow {
  explicit LiveWindow(const TemporalGraph& g)
      : window(WindowPolicy::CountBased(g.num_events() + 1)), graph(&window) {
    const std::vector<Event>& all = g.events();
    constexpr std::size_t kBatch = 3;
    for (std::size_t begin = 0; begin < all.size(); begin += kBatch) {
      const std::size_t end = std::min(all.size(), begin + kBatch);
      const std::vector<Event> batch(
          all.begin() + static_cast<std::ptrdiff_t>(begin),
          all.begin() + static_cast<std::ptrdiff_t>(end));
      const IngestPlan plan = window.PlanIngest(batch);
      graph.BeginUpdate(plan, batch);
      window.Apply(plan, batch);
      graph.FinishUpdate();
    }
  }

  // `graph` points at `window`.
  LiveWindow(const LiveWindow&) = delete;
  LiveWindow& operator=(const LiveWindow&) = delete;

  StreamWindow window;
  WindowGraph graph;
};

TEST_F(KernelDiffTest, CountingStackIdenticalAtEveryLevelAndGraphType) {
  for (const GridCase& c : PredicateGrid()) {
    SCOPED_TRACE(c.name);
    ForEachRandomGraph(
        0x51d, 10, GridSpec(),
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const LiveWindow live(g);
          ASSERT_TRUE(std::equal(g.events().begin(), g.events().end(),
                                 live.window.events().begin(),
                                 live.window.events().end()))
              << "seed=" << seed;
          simd::SetDispatchLevelForTesting(simd::DispatchLevel::kScalar);
          const StackTrace want = RunStack(g, c.options);
          for (const simd::DispatchLevel level : simd::AvailableLevels()) {
            simd::SetDispatchLevelForTesting(level);
            const std::pair<const char*, StackTrace> runs[] = {
                {"TemporalGraph", RunStack(g, c.options)},
                {"WindowGraph", RunStack(live.graph, c.options)}};
            for (const auto& [graph_type, got] : runs) {
              ASSERT_EQ(got.total, want.total)
                  << simd::DispatchLevelName(level) << " " << graph_type
                  << " seed=" << seed;
              ASSERT_EQ(got.instances, want.instances)
                  << simd::DispatchLevelName(level) << " " << graph_type
                  << " seed=" << seed;
              ASSERT_EQ(got.table_order, want.table_order)
                  << simd::DispatchLevelName(level) << " " << graph_type
                  << " seed=" << seed;
            }
          }
          simd::ResetDispatchLevelForTesting();
        });
  }
}

// Oracle re-run at the scalar pin: the forced-scalar stack stays correct,
// not merely self-consistent.
TEST_F(KernelDiffTest, ForcedScalarStackMatchesOracle) {
  simd::SetDispatchLevelForTesting(simd::DispatchLevel::kScalar);
  for (const GridCase& c : PredicateGrid()) {
    SCOPED_TRACE(c.name);
    ForEachRandomGraph(0x5ca1a2, 6, GridSpec(),
                       [&](std::uint64_t seed, const TemporalGraph& g) {
                         const auto report = DiffAgainstOracle(g, c.options);
                         EXPECT_TRUE(report.ok()) << c.name << " seed=" << seed
                                                  << "\n" << report.Summary();
                       });
  }
}

// ---------------------------------------------------------------------------
// Scope-saturated temporal-window final path (the edge-run lift) under the
// order predicates the predicate grid does not combine with it.
// ---------------------------------------------------------------------------

TEST_F(KernelDiffTest, WindowSaturatedRunsMatchOracle) {
  const std::vector<GridCase> cases = {
      {"k3_window_saturated", Opts(3, 3, {}, false, false,
                                   Inducedness::kTemporalWindow)},
      {"k3_window_pair", Opts(3, 2, {}, false, false,
                              Inducedness::kTemporalWindow)},
      {"k3_window_cdg", Opts(3, 3, {}, false, /*cdg=*/true,
                             Inducedness::kTemporalWindow)},
      {"k3_window_consecutive", Opts(3, 3, {}, /*consecutive=*/true, false,
                                     Inducedness::kTemporalWindow)},
      {"k4_window_dw",
       Opts(4, 3, TimingConstraints::OnlyDeltaW(18), false, false,
            Inducedness::kTemporalWindow)},
  };
  for (const GridCase& c : cases) {
    SCOPED_TRACE(c.name);
    ForEachRandomGraph(
        0x3a7d0, 12, GridSpec(),
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const auto report = DiffAgainstOracle(g, c.options);
          EXPECT_TRUE(report.ok())
              << c.name << " seed=" << seed << "\n" << report.Summary();
        });
  }
}

}  // namespace
}  // namespace tmotif
