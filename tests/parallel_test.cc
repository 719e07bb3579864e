#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/counter.h"
#include "core/enumerate_core.h"
#include "core/models/model_info.h"
#include "gen/generator.h"
#include "gen/presets.h"
#include "obs/metrics.h"
#include "testing/random_graphs.h"

namespace tmotif {
namespace {

using internal::kMinParallelEvents;

TemporalGraph TestGraph(std::uint64_t seed) {
  GeneratorConfig c;
  c.num_nodes = 120;
  c.num_events = 6000;
  c.median_gap_seconds = 25;
  c.prob_reply = 0.3;
  c.prob_repeat = 0.2;
  c.prob_session = 0.2;
  c.seed = seed;
  return GenerateTemporalNetwork(c);
}

/// Samples recorded so far into a global histogram (0 when compiled out).
std::uint64_t HistogramCount(const char* name) {
  return obs::GlobalMetrics().GetHistogram(name)->Snapshot().count;
}

std::uint64_t CounterValue(const char* name) {
  return obs::GlobalMetrics().GetCounter(name)->Value();
}

struct ParallelCase {
  const char* name;
  int num_events;
  int threads;
  bool consecutive;
  bool cdg;
  Inducedness inducedness;
};

std::ostream& operator<<(std::ostream& os, const ParallelCase& c) {
  return os << c.name;
}

class ParallelCountTest : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelCountTest, MatchesSerialExactly) {
  const ParallelCase& c = GetParam();
  const TemporalGraph g = TestGraph(11);
  EnumerationOptions o;
  o.num_events = c.num_events;
  o.max_nodes = c.num_events;
  o.timing = TimingConstraints::Both(600, 1200);
  o.consecutive_events_restriction = c.consecutive;
  o.cdg_restriction = c.cdg;
  o.inducedness = c.inducedness;

  const MotifCounts serial = CountMotifs(g, o);
  const MotifCounts parallel = CountMotifs(g, o, c.threads);
  EXPECT_EQ(parallel.total(), serial.total());
  EXPECT_EQ(parallel.SortedByCode(), serial.SortedByCode());

  // A threaded sub-range starts its shards at `begin`, not at 0.
  const EventIndex begin = g.num_events() / 5;
  const EventIndex end = g.num_events() - begin;
  EXPECT_EQ(CountMotifsInRange(g, o, begin, end, c.threads).SortedByCode(),
            CountMotifsInRange(g, o, begin, end).SortedByCode());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelCountTest,
    ::testing::Values(
        ParallelCase{"k3_t2", 3, 2, false, false, Inducedness::kNone},
        ParallelCase{"k3_t4", 3, 4, false, false, Inducedness::kNone},
        ParallelCase{"k3_t8", 3, 8, false, false, Inducedness::kNone},
        ParallelCase{"k3_t4_consecutive", 3, 4, true, false,
                     Inducedness::kNone},
        ParallelCase{"k3_t4_cdg", 3, 4, false, true, Inducedness::kNone},
        ParallelCase{"k3_t4_induced", 3, 4, false, false,
                     Inducedness::kStatic},
        ParallelCase{"k4_t4", 4, 4, false, false, Inducedness::kNone},
        ParallelCase{"k2_t3", 2, 3, false, false, Inducedness::kNone}),
    [](const ::testing::TestParamInfo<ParallelCase>& info) {
      return std::string(info.param.name);
    });

TEST(ParallelCount, EmptyGraph) {
  TemporalGraphBuilder builder;
  builder.SetMinNumNodes(4);
  const TemporalGraph g = builder.Build();
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  EXPECT_EQ(CountMotifs(g, o, 4).total(), 0u);
}

TEST(ParallelCount, MoreThreadsThanEvents) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}, {1, 2, 2}, {0, 2, 3}});
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(10);
  EXPECT_EQ(CountMotifs(g, o, 16).total(), 1u);
}

// MakeEventShards on ranges shorter than the thread count (and around it):
// every shard non-empty, the shards tile [begin, end) in order, and there
// are at most min(threads, n) of them.
TEST(MakeEventShards, ShortRangesYieldNonEmptyExactPartitions) {
  const EventIndex begin = 7;
  for (EventIndex n = 1; n <= 20; ++n) {
    for (int threads = 1; threads <= 24; ++threads) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " threads=" << threads);
      const auto shards = internal::MakeEventShards(begin, begin + n, threads);
      ASSERT_FALSE(shards.empty());
      EXPECT_LE(static_cast<EventIndex>(shards.size()),
                std::min<EventIndex>(threads, n));
      EventIndex next = begin;
      for (const auto& [lo, hi] : shards) {
        EXPECT_EQ(lo, next);
        EXPECT_LT(lo, hi);
        next = hi;
      }
      EXPECT_EQ(next, begin + n);
    }
  }
}

// Property test: for every thread count — including counts exceeding the
// number of events, and graphs on both sides of kMinParallelEvents — the
// threaded count must equal the serial count exactly, table entry by table
// entry. The options carry a dC bound, so every count runs the DFS.
TEST(ParallelCount, AnyThreadCountMatchesSerialProperty) {
  const int kThreadCounts[] = {1, 2, 3, 7, 16};
  const int kEventCounts[] = {0,  1,  2,  5,  11, 60, kMinParallelEvents - 1,
                              kMinParallelEvents, kMinParallelEvents + 1};
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::Both(6, 10);
  for (const int num_events : kEventCounts) {
    tmotif::testing::RandomGraphSpec spec;
    spec.num_nodes = 5;
    spec.num_events = num_events;
    spec.max_time = std::max(1, 2 * num_events);
    tmotif::testing::ForEachRandomGraph(
        0x9a7a11e1, 6, spec,
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const MotifCounts serial = CountMotifs(g, o);
          for (const int threads : kThreadCounts) {
            SCOPED_TRACE(::testing::Message()
                         << "events=" << num_events << " threads=" << threads
                         << " seed=" << seed);
            const std::uint64_t shards_before =
                HistogramCount("parallel.shard_instances");
            const MotifCounts parallel = CountMotifs(g, o, threads);
            EXPECT_EQ(parallel.total(), serial.total());
            EXPECT_EQ(parallel.SortedByCode(), serial.SortedByCode());
            // Threads run exactly at and above the threshold.
            const bool threaded =
                threads > 1 && num_events >= kMinParallelEvents;
            EXPECT_EQ(HistogramCount("parallel.shard_instances") >
                          shards_before,
                      threaded);
          }
        });
  }
}

// Guard of the threaded DFS on a larger generated preset dataset: every
// published model preset must produce byte-identical count tables under
// every thread count, including more threads than cores.
TEST(ParallelCount, AllModelPresetsMatchSerialOnPresetGraph) {
  const TemporalGraph g =
      GenerateDataset(DatasetId::kCollegeMsg, /*scale=*/0.2, /*seed=*/1234);
  ASSERT_GT(g.num_events(), 5000);
  const ModelId kModels[] = {ModelId::kKovanen, ModelId::kSong,
                             ModelId::kHulovatyy, ModelId::kParanjape};
  const int kThreadCounts[] = {1, 4, 16};
  for (const ModelId model : kModels) {
    const EnumerationOptions o =
        OptionsForModel(model, /*num_events=*/3, /*max_nodes=*/3,
                        /*delta_c=*/900, /*delta_w=*/1800);
    const MotifCounts serial = CountMotifs(g, o);
    EXPECT_GT(serial.total(), 0u) << GetModelAspects(model).name;
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message() << GetModelAspects(model).name
                                        << " threads=" << threads);
      const MotifCounts parallel = CountMotifs(g, o, threads);
      EXPECT_EQ(parallel.total(), serial.total());
      EXPECT_EQ(parallel.SortedByCode(), serial.SortedByCode());
    }
  }
}

// --threads goes through the one dispatch gate: a fast-path config (Song)
// still dispatches the serial k <= 3 counters, spawns no shard, and is
// noted as a fast-path dispatch. The registry is process-global, so the
// dispatch tests assert deltas.
TEST(ParallelDispatch, ThreadedSongDispatchesFastPath) {
  const TemporalGraph g = TestGraph(3);
  ASSERT_GE(g.num_events(), kMinParallelEvents);
  const EnumerationOptions o = OptionsForModel(
      ModelId::kSong, /*num_events=*/3, /*max_nodes=*/3, /*delta_c=*/0,
      /*delta_w=*/1200);
  const MotifCounts serial = CountMotifs(g, o);
  const std::uint64_t fast_before = CounterValue("counting.dispatch_fastpath");
  const std::uint64_t generic_before =
      CounterValue("counting.dispatch_generic");
  const std::uint64_t shards_before =
      HistogramCount("parallel.shard_instances");
  const MotifCounts threaded = CountMotifs(g, o, 4);
  EXPECT_EQ(CounterValue("counting.dispatch_fastpath"), fast_before + 1);
  EXPECT_EQ(CounterValue("counting.dispatch_generic"), generic_before);
  EXPECT_EQ(HistogramCount("parallel.shard_instances"), shards_before);
  EXPECT_EQ(threaded.SortedByCode(), serial.SortedByCode());
}

// A generic config above the threshold is noted once as a generic
// dispatch, timed by one enumerate-latency sample, and split into one
// shard per thread.
TEST(ParallelDispatch, ThreadedGenericConfigDispatchesGenericOnce) {
  const TemporalGraph g = TestGraph(3);
  ASSERT_GE(g.num_events(), kMinParallelEvents);
  const EnumerationOptions o = OptionsForModel(
      ModelId::kKovanen, /*num_events=*/3, /*max_nodes=*/3, /*delta_c=*/600,
      /*delta_w=*/0);
  const std::uint64_t fast_before = CounterValue("counting.dispatch_fastpath");
  const std::uint64_t generic_before =
      CounterValue("counting.dispatch_generic");
  const std::uint64_t latency_before =
      HistogramCount("counting.enumerate_latency_ns");
  const std::uint64_t shards_before =
      HistogramCount("parallel.shard_instances");
  const MotifCounts threaded = CountMotifs(g, o, 4);
  EXPECT_EQ(CounterValue("counting.dispatch_generic"), generic_before + 1);
  EXPECT_EQ(CounterValue("counting.dispatch_fastpath"), fast_before);
  EXPECT_EQ(HistogramCount("counting.enumerate_latency_ns"),
            latency_before + 1);
  EXPECT_EQ(HistogramCount("parallel.shard_instances"), shards_before + 4);
  EXPECT_GT(threaded.total(), 0u);
}

// Event-range threads rely on this: the DFS over two disjoint first-event
// ranges emits every instance exactly once between them.
TEST(RangeEnumeration, DisjointRangesPartitionInstances) {
  const TemporalGraph g = TestGraph(21);
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(900);
  const std::uint64_t whole = CountInstances(g, o);
  const EventIndex mid = g.num_events() / 2;
  std::uint64_t left = 0;
  std::uint64_t right = 0;
  auto left_sink = internal::MakeFnSink(
      [&](const EventIndex*, int, std::uint64_t) { ++left; });
  auto right_sink = internal::MakeFnSink(
      [&](const EventIndex*, int, std::uint64_t) { ++right; });
  EXPECT_EQ(internal::EnumerateCore(g, o, 0, mid, left_sink), left);
  EXPECT_EQ(internal::EnumerateCore(g, o, mid, g.num_events(), right_sink),
            right);
  EXPECT_EQ(left + right, whole);
  EXPECT_GT(left, 0u);
  EXPECT_GT(right, 0u);
}

}  // namespace
}  // namespace tmotif
