// Differential tests of the two predicate-path implementations: the
// immutable TemporalGraph (per-node neighbor CSR + per-slot occurrence
// arrays) and the incrementally maintained WindowGraph (per-source edge
// cells with id/timestamp deques) must answer every accessor both keep
// (events, incident runs, edge lookup, occurrence runs, ranks and range
// counts) identically on every window state. The window is
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

/// Draws a timestamp uniformly from [lo, hi].
Timestamp DrawTime(Rng* rng, Timestamp lo, Timestamp hi) {
  return lo + static_cast<Timestamp>(
                  rng->UniformU64(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// Compares every accessor both graph types keep (the engines' graph
/// concept, core/enumerate_core.h) between the live window indices and a
/// from-scratch TemporalGraph of the same events: per event, per node, per
/// node pair (including ids past the range on each side) and per time.
void ExpectPredicatesAgree(const WindowGraph& live, const TemporalGraph& ref,
                           Rng* rng, const std::string& label) {
  ASSERT_EQ(live.num_events(), ref.num_events()) << label;
  const EventIndex n = ref.num_events();
  const Timestamp t_min = ref.min_time() - 2;
  const Timestamp t_max = ref.max_time() + 2;
  for (EventIndex c = 0; c < n; ++c) {
    ASSERT_EQ(live.event(c), ref.event(c)) << label << " event " << c;
    ASSERT_EQ(live.event_time(c), ref.event_time(c)) << label;
    ASSERT_EQ(live.event_src(c), ref.event_src(c)) << label;
    ASSERT_EQ(live.event_dst(c), ref.event_dst(c)) << label;
    // Ranges around c's own timestamp, as the CDG check asks.
    for (int probe = 0; probe < 3; ++probe) {
      const Timestamp t = ref.event_time(c);
      const Timestamp lo = DrawTime(rng, t_min, t);
      const Timestamp hi = DrawTime(rng, t, t_max);
      ASSERT_EQ(live.HasAdjacentEdgeEventInRange(c, lo, hi),
                ref.HasAdjacentEdgeEventInRange(c, lo, hi))
          << label << " HasAdjacentEdgeEventInRange(" << c << "," << lo
          << "," << hi << ")";
    }
  }
  for (Timestamp t = t_min; t <= t_max; ++t) {
    ASSERT_EQ(live.UpperBoundTime(t), ref.UpperBoundTime(t))
        << label << " UpperBoundTime(" << t << ")";
  }
  // TemporalGraph's node queries take only ids below num_nodes().
  for (NodeId u = 0; u < ref.num_nodes(); ++u) {
    std::vector<EventIndex> live_run;
    for (auto it = live.incident(u).begin(); it != live.incident(u).end();
         ++it) {
      live_run.push_back(*it);
      ASSERT_EQ(it.time(), live.event_time(*it)) << label;
      ASSERT_EQ(it.src(), live.event_src(*it)) << label;
      ASSERT_EQ(it.dst(), live.event_dst(*it)) << label;
    }
    const std::vector<EventIndex> ref_run(ref.incident(u).begin(),
                                          ref.incident(u).end());
    ASSERT_EQ(live_run, ref_run) << label << " incident(" << u << ")";
    for (EventIndex after = -1; after <= n; ++after) {
      ASSERT_EQ(live.IncidentUpperBound(u, after) - live.incident(u).begin(),
                ref.IncidentUpperBound(u, after) - ref.incident(u).begin())
          << label << " IncidentUpperBound(" << u << "," << after << ")";
    }
    for (int probe = 0; probe < 4; ++probe) {
      const auto lo = static_cast<EventIndex>(
          rng->UniformU64(static_cast<std::uint64_t>(n + 2))) - 1;
      const auto hi = static_cast<EventIndex>(
          rng->UniformU64(static_cast<std::uint64_t>(n + 2))) - 1;
      ASSERT_EQ(live.HasIncidentInIndexRange(u, lo, hi),
                ref.HasIncidentInIndexRange(u, lo, hi))
          << label << " HasIncidentInIndexRange(" << u << "," << lo << ","
          << hi << ")";
    }
  }
  const NodeId max_id = ref.num_nodes() + 1;  // Probe past the range too.
  for (NodeId u = -1; u <= max_id; ++u) {
    for (NodeId v = -1; v <= max_id; ++v) {
      if (u == v) continue;
      const auto live_edge = live.FindEdge(u, v);
      const auto ref_edge = ref.FindEdge(u, v);
      ASSERT_EQ(live_edge != WindowGraph::kNoEdgeHandle,
                ref_edge != TemporalGraph::kNoEdgeHandle)
          << label << " FindEdge(" << u << "," << v << ")";
      if (live_edge == WindowGraph::kNoEdgeHandle) continue;

      // The occurrence run: positions with timestamps in lockstep.
      std::vector<std::pair<EventIndex, Timestamp>> live_run, ref_run;
      for (auto it = live.edge_occurrences(live_edge).begin();
           it != live.edge_occurrences(live_edge).end(); ++it) {
        live_run.emplace_back(*it, it.time());
      }
      for (auto it = ref.edge_occurrences(ref_edge).begin();
           it != ref.edge_occurrences(ref_edge).end(); ++it) {
        ref_run.emplace_back(*it, it.time());
      }
      ASSERT_EQ(live_run, ref_run)
          << label << " edge_occurrences(" << u << "," << v << ")";

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
      // Random and boundary time ranges (inclusive semantics, empty and
      // inverted ranges included).
      for (int probe = 0; probe < 5; ++probe) {
        const Timestamp a = probe == 0 ? t_min : DrawTime(rng, t_min, t_max);
        const Timestamp b = probe == 0 ? t_max : DrawTime(rng, t_min, t_max);
        ASSERT_EQ(live.CountEdgeEventsInTimeRange(live_edge, a, b),
                  ref.CountEdgeEventsInTimeRange(ref_edge, a, b))
            << label << " CountEdgeEventsInTimeRange(" << u << "," << v
            << "," << a << "," << b << ")";
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
