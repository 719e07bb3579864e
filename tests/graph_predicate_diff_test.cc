// Differential tests of the two predicate-path implementations: the
// immutable TemporalGraph (per-node neighbor CSR + per-slot occurrence
// arrays) and the incrementally maintained WindowGraph (per-source edge
// cells with id/timestamp deques) must answer HasStaticEdge,
// CountEdgeEventsInTimeRange, CountEdgeEventsInIndexRange, and the
// rank/occurrence surface identically on every window state. The window is
// slid over the oracle-grid graphs exactly like the streaming counter does
// (PlanIngest, then the one Apply), so the incremental maintenance is
// cross-checked against a from-scratch build at every batch. On top of the
// predicates, the whole counting stack (DFS engine plus packed table) must
// emit the identical instance stream over both graph types across the
// predicate grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/enumerate_core.h"
#include "core/packed_table.h"
#include "graph/temporal_graph.h"
#include "stream/window_graph.h"
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

/// Compares every predicate on every node pair (including one out-of-range
/// id on each side) between the live window indices and a from-scratch
/// TemporalGraph of the same events.
void ExpectPredicatesAgree(const WindowGraph& live, const TemporalGraph& ref,
                           Rng* rng, const std::string& label) {
  ASSERT_EQ(live.num_events(), ref.num_events()) << label;
  const NodeId max_id = ref.num_nodes() + 1;  // Probe past the range too.
  const Timestamp t_min = ref.min_time() - 2;
  const Timestamp t_max = ref.max_time() + 2;
  for (NodeId u = 0; u <= max_id; ++u) {
    for (NodeId v = 0; v <= max_id; ++v) {
      if (u == v) continue;
      ASSERT_EQ(live.HasStaticEdge(u, v), ref.HasStaticEdge(u, v))
          << label << " HasStaticEdge(" << u << "," << v << ")";
      ASSERT_EQ(live.NumEdgeEvents(u, v), ref.edge_events(u, v).size())
          << label << " NumEdgeEvents(" << u << "," << v << ")";

      // Random and boundary time ranges (inclusive semantics, empty and
      // inverted ranges included).
      for (int probe = 0; probe < 4; ++probe) {
        const Timestamp a =
            t_min + static_cast<Timestamp>(
                        rng->UniformU64(static_cast<std::uint64_t>(
                            t_max - t_min + 1)));
        const Timestamp b =
            t_min + static_cast<Timestamp>(
                        rng->UniformU64(static_cast<std::uint64_t>(
                            t_max - t_min + 1)));
        ASSERT_EQ(live.CountEdgeEventsInTimeRange(u, v, a, b),
                  ref.CountEdgeEventsInTimeRange(u, v, a, b))
            << label << " CountEdgeEventsInTimeRange(" << u << "," << v
            << "," << a << "," << b << ")";
      }
      ASSERT_EQ(live.CountEdgeEventsInTimeRange(u, v, t_min, t_max),
                ref.CountEdgeEventsInTimeRange(u, v, t_min, t_max))
          << label;

      // Index ranges, including negative and past-the-end bounds.
      const EventIndex n = ref.num_events();
      const std::pair<EventIndex, EventIndex> index_ranges[] = {
          {-1, static_cast<EventIndex>(n + 1)},
          {0, n},
          {static_cast<EventIndex>(
               rng->UniformU64(static_cast<std::uint64_t>(n + 1))),
           static_cast<EventIndex>(
               rng->UniformU64(static_cast<std::uint64_t>(n + 1)))},
          {1, 1}};
      for (const auto& [lo, hi] : index_ranges) {
        ASSERT_EQ(live.CountEdgeEventsInIndexRange(u, v, lo, hi),
                  ref.CountEdgeEventsInIndexRange(u, v, lo, hi))
            << label << " CountEdgeEventsInIndexRange(" << u << "," << v
            << "," << lo << "," << hi << ")";
      }

      // Rank surface behind a resolved handle.
      const auto live_edge = live.FindEdge(u, v);
      const auto ref_edge = ref.FindEdge(u, v);
      ASSERT_EQ(live_edge != WindowGraph::kNoEdgeHandle,
                ref_edge != TemporalGraph::kNoEdgeHandle)
          << label << " FindEdge(" << u << "," << v << ")";
      if (live_edge != WindowGraph::kNoEdgeHandle) {
        for (const Timestamp t : {t_min, t_max, ref.min_time(),
                                  ref.max_time()}) {
          ASSERT_EQ(live.EdgeLowerRank(live_edge, t),
                    ref.EdgeLowerRank(ref_edge, t))
              << label << " EdgeLowerRank(" << u << "," << v << "," << t
              << ")";
          ASSERT_EQ(live.EdgeUpperRank(live_edge, t),
                    ref.EdgeUpperRank(ref_edge, t))
              << label << " EdgeUpperRank(" << u << "," << v << "," << t
              << ")";
        }
      }
    }
  }
}

TEST(GraphPredicateDiff, WindowAndBatchGraphsAgreeAcrossWindowStates) {
  const std::vector<WindowPolicy> policies = {
      WindowPolicy::CountBased(8), WindowPolicy::CountBased(12),
      WindowPolicy::TimeBased(16)};
  int states_checked = 0;
  for (const RandomGraphSpec& spec : {SmallSpec(), DenseSpec()}) {
    ForEachRandomGraph(
        0x9d1ff, 6, spec, [&](std::uint64_t seed, const TemporalGraph& g) {
          for (const WindowPolicy& policy : policies) {
            for (const std::size_t batch_size :
                 {std::size_t{1}, std::size_t{3}}) {
              // Arrivals in canonical order, and with random neighbours
              // swapped: late events and tied arrivals then merge in
              // front of residents, which Apply pops and re-appends.
              for (const bool swapped : {false, true}) {
                Rng rng(seed * 31 + batch_size);
                std::vector<Event> arrivals = g.events();
                if (swapped) {
                  Rng order(seed);
                  for (std::size_t i = 0; i + 1 < arrivals.size(); i += 2) {
                    if (order.UniformU64(2) != 0) {
                      std::swap(arrivals[i], arrivals[i + 1]);
                    }
                  }
                }
                WindowGraph live(policy);
                for (std::size_t begin = 0; begin < arrivals.size();
                     begin += batch_size) {
                  const std::size_t end =
                      std::min(arrivals.size(), begin + batch_size);
                  std::vector<Event> batch(
                      arrivals.begin() + static_cast<std::ptrdiff_t>(begin),
                      arrivals.begin() + static_cast<std::ptrdiff_t>(end));
                  std::stable_sort(batch.begin(), batch.end(),
                                   EventTimeLess);
                  // Incremental update exactly like the streaming
                  // counter's phase 4.
                  live.Apply(live.PlanIngest(batch), batch);

                  const std::string label =
                      "seed=" + std::to_string(seed) +
                      " window=" + policy.ToString() +
                      " batch=" + std::to_string(batch_size) +
                      (swapped ? " swapped" : "") + " after " +
                      std::to_string(end) + " events";
                  ASSERT_TRUE(std::is_sorted(live.events().begin(),
                                             live.events().end(),
                                             EventTimeLess))
                      << label;
                  TemporalGraphBuilder builder;
                  for (const Event& e : live.events()) builder.AddEvent(e);
                  ExpectPredicatesAgree(live, builder.Build(), &rng, label);
                  if (::testing::Test::HasFatalFailure()) return;
                  ++states_checked;
                }
              }
            }
          }
        });
  }
  EXPECT_GT(states_checked, 200);
}

// The indices must also survive Restore (the checkpoint path, which
// rebuilds them once with ids restarting at zero) mid-stream, and keep
// sliding incrementally afterwards.
TEST(GraphPredicateDiff, RestoreMidStreamMatchesFromScratch) {
  ForEachRandomGraph(
      0x4e5e7, 4, SmallSpec(), [&](std::uint64_t seed, const TemporalGraph& g) {
        WindowGraph live(WindowPolicy::CountBased(8));
        Rng rng(seed);
        const std::vector<Event>& all = g.events();
        for (std::size_t i = 0; i < all.size(); ++i) {
          std::vector<Event> batch = {all[i]};
          live.Apply(live.PlanIngest(batch), batch);
          if (i % 3 == 2) {  // Must be a no-op semantically.
            const std::vector<Event> events(live.events().begin(),
                                            live.events().end());
            live.Restore(events, live.max_time_seen(), live.saw_any_event());
            ASSERT_EQ(live.first_id(), 0u);
          }
          TemporalGraphBuilder builder;
          for (const Event& e : live.events()) builder.AddEvent(e);
          ExpectPredicatesAgree(live, builder.Build(), &rng,
                                "restore seed=" + std::to_string(seed) +
                                    " after " + std::to_string(i + 1));
          if (::testing::Test::HasFatalFailure()) return;
        }
      });
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

/// Full (chosen indices, packed code) emission stream plus the packed
/// table's contents in iteration order: everything the graph type could
/// leak into.
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

// Both graph types run the one DfsEngine: over a WindowGraph holding the
// same events (filled batch by batch, never evicting, so window positions
// equal event indices) it must emit the same instances in the same order.
TEST(GraphPredicateDiff, CountingStackIdenticalOnBothGraphTypes) {
  RandomGraphSpec spec;
  spec.num_nodes = 6;
  spec.num_events = 18;
  spec.max_time = 36;
  spec.prob_duplicate_time = 0.3;
  const std::pair<const char*, EnumerationOptions> grid[] = {
      {"k3_vanilla", Opts(3, 4)},
      {"k3_dw", Opts(3, 4, TimingConstraints::OnlyDeltaW(14))},
      {"k3_dc_dw", Opts(3, 3, TimingConstraints::Both(8, 12))},
      {"k3_consecutive", Opts(3, 3, {}, /*consecutive=*/true)},
      {"k3_cdg", Opts(3, 3, {}, false, /*cdg=*/true)},
      {"k3_static", Opts(3, 3, {}, false, false, Inducedness::kStatic)},
      {"k3_window",
       Opts(3, 3, {}, false, false, Inducedness::kTemporalWindow)},
      {"k3_window_pair",
       Opts(3, 2, {}, false, false, Inducedness::kTemporalWindow)},
      {"k4_static_dw", Opts(4, 4, TimingConstraints::OnlyDeltaW(20), false,
                            false, Inducedness::kStatic)},
      {"k4_window_dw", Opts(4, 3, TimingConstraints::OnlyDeltaW(20), false,
                            false, Inducedness::kTemporalWindow)},
  };
  for (const auto& [name, options] : grid) {
    SCOPED_TRACE(name);
    ForEachRandomGraph(
        0x51d, 10, spec, [&](std::uint64_t seed, const TemporalGraph& g) {
          WindowGraph live(WindowPolicy::CountBased(g.num_events() + 1));
          const std::vector<Event>& all = g.events();
          for (std::size_t begin = 0; begin < all.size(); begin += 3) {
            const std::size_t end = std::min(all.size(), begin + 3);
            const std::vector<Event> batch(
                all.begin() + static_cast<std::ptrdiff_t>(begin),
                all.begin() + static_cast<std::ptrdiff_t>(end));
            live.Apply(live.PlanIngest(batch), batch);
          }
          ASSERT_TRUE(std::equal(all.begin(), all.end(),
                                 live.events().begin(),
                                 live.events().end()))
              << "seed=" << seed;
          const StackTrace want = RunStack(g, options);
          const StackTrace got = RunStack(live, options);
          ASSERT_EQ(got.total, want.total) << "seed=" << seed;
          ASSERT_EQ(got.instances, want.instances) << "seed=" << seed;
          ASSERT_EQ(got.table_order, want.table_order) << "seed=" << seed;
        });
  }
}

}  // namespace
}  // namespace tmotif
