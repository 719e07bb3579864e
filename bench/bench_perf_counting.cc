// Google-benchmark microbenchmarks of the counting engines. Runtime was
// explicitly out of scope for the paper ("a promising future direction");
// this suite documents the cost of each model / restriction combination so
// downstream users can budget their analyses.
//
// Besides the --benchmark_* suite, the binary understands the shared
// --scale/--seed/--out flags (bench_util.h) and writes one
// BENCH_counting_throughput.json record — wall seconds, events/s and
// instances/s of the headline configuration, plus per-preset
// predicate-path throughput (<preset>_instances_per_sec for all four
// model presets) and the specialized
// k <= 3 fast-path throughput (fastpath_<key>_instances_per_sec and
// fastpath_<key>_speedup_vs_generic, measured against the generic DFS
// engine forced on the same workload) — so tools/bench_diff can track the
// counting-throughput trajectory across runs with the same machinery as
// every other bench.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/counter.h"
#include "core/enumerate_core.h"
#include "core/models/model_info.h"
#include "core/models/song.h"
#include "gen/generator.h"
#include "obs/metrics.h"

namespace tmotif {
namespace {

// Engine attribution via the obs dispatch counters
// (counting.dispatch_fastpath / counting.dispatch_generic): the dispatcher
// itself, not a bench-side re-derivation of its predicate, says which
// counting engine served a timed run. Under TMOTIF_NO_TELEMETRY both
// counters read 0 and the label degrades to "untracked".
struct DispatchDelta {
  std::uint64_t fastpath = 0;
  std::uint64_t generic = 0;
  const char* Engine() const {
    if (fastpath == 0 && generic == 0) return "untracked";
    if (generic == 0) return "fastpath";
    if (fastpath == 0) return "generic";
    return "mixed";
  }
};

class DispatchSampler {
 public:
  DispatchSampler()
      : fastpath_(
            obs::GlobalMetrics().GetCounter("counting.dispatch_fastpath")),
        generic_(
            obs::GlobalMetrics().GetCounter("counting.dispatch_generic")),
        fastpath_start_(fastpath_->Value()),
        generic_start_(generic_->Value()) {}

  DispatchDelta Delta() const {
    return {fastpath_->Value() - fastpath_start_,
            generic_->Value() - generic_start_};
  }

 private:
  obs::Counter* fastpath_;
  obs::Counter* generic_;
  std::uint64_t fastpath_start_;
  std::uint64_t generic_start_;
};

TemporalGraph MakeGraph(int num_events) {
  GeneratorConfig c;
  c.num_nodes = std::max(50, num_events / 30);
  c.num_events = num_events;
  c.median_gap_seconds = 30;
  c.prob_reply = 0.3;
  c.prob_repeat = 0.2;
  c.prob_session = 0.2;
  c.session_max_extra = 5;
  c.seed = 7;
  return GenerateTemporalNetwork(c);
}

void BM_VanillaCount(benchmark::State& state) {
  const TemporalGraph graph = MakeGraph(static_cast<int>(state.range(0)));
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::Both(1500, 3000);
  std::uint64_t total = 0;
  for (auto _ : state) {
    total = CountInstances(graph, o);
    benchmark::DoNotOptimize(total);
  }
  state.counters["instances"] = static_cast<double>(total);
  state.counters["instances/s"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_VanillaCount)->Arg(2000)->Arg(8000)->Arg(32000);

void BM_ModelCount(benchmark::State& state) {
  const TemporalGraph graph = MakeGraph(8000);
  const auto model = static_cast<ModelId>(state.range(0));
  const EnumerationOptions o = OptionsForModel(model, 3, 3, 1500, 3000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountInstances(graph, o));
  }
  state.SetLabel(GetModelAspects(model).name);
}
BENCHMARK(BM_ModelCount)
    ->Arg(static_cast<int>(ModelId::kKovanen))
    ->Arg(static_cast<int>(ModelId::kSong))
    ->Arg(static_cast<int>(ModelId::kHulovatyy))
    ->Arg(static_cast<int>(ModelId::kParanjape));

void BM_FourEventCount(benchmark::State& state) {
  const TemporalGraph graph = MakeGraph(static_cast<int>(state.range(0)));
  EnumerationOptions o;
  o.num_events = 4;
  o.max_nodes = 4;
  o.timing = TimingConstraints::Both(1000, 3000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountInstances(graph, o));
  }
}
BENCHMARK(BM_FourEventCount)->Arg(1000)->Arg(4000);

void BM_DeltaWSweep(benchmark::State& state) {
  const TemporalGraph graph = MakeGraph(8000);
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaW(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountInstances(graph, o));
  }
}
BENCHMARK(BM_DeltaWSweep)->Arg(300)->Arg(1000)->Arg(3000)->Arg(10000);

void BM_StreamingPatternMatch(benchmark::State& state) {
  const TemporalGraph graph = MakeGraph(8000);
  const EventPattern pattern = EventPattern::FromMotifCode("011202", 3000);
  for (auto _ : state) {
    EventPatternMatcher matcher(pattern);
    std::uint64_t total = 0;
    for (const Event& e : graph.events()) total += matcher.AddEvent(e);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_StreamingPatternMatch);

void BM_ParallelCount(benchmark::State& state) {
  const TemporalGraph graph = MakeGraph(32000);
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::Both(1500, 3000);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMotifs(graph, o, threads).total());
  }
}
BENCHMARK(BM_ParallelCount)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_GraphConstruction(benchmark::State& state) {
  const TemporalGraph source = MakeGraph(static_cast<int>(state.range(0)));
  const std::vector<Event> events = source.events();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GraphFromEvents(events));
  }
}
BENCHMARK(BM_GraphConstruction)->Arg(8000)->Arg(32000);

// Headline configuration of the recorded throughput trajectory: vanilla
// three-event counting with dC = 1500 / dW = 3000 on the 8000-event
// generated graph, matching BM_VanillaCount/8000.
constexpr int kHeadlineEvents = 8000;

void WriteThroughputRecord(const BenchArgs& args) {
  // The headline workload is fixed (8000-event graph, internal seed 7) so
  // records stay comparable run-to-run; stamp the record with the actual
  // workload parameters instead of whatever --scale/--seed the caller
  // passed for the other benches.
  BenchArgs record_args = args;
  record_args.scale_multiplier = 1.0;
  record_args.seed = 7;
  const TemporalGraph graph = MakeGraph(kHeadlineEvents);
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::Both(1500, 3000);

  // Best-of-N wall time (N sized so the record costs well under a second).
  double best_seconds = 0.0;
  std::uint64_t instances = 0;
  DispatchSampler headline_sampler;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer timer;
    instances = CountInstances(graph, o);
    const double seconds = timer.Seconds();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  const double instances_per_sec =
      best_seconds > 0 ? static_cast<double>(instances) / best_seconds : 0.0;
  const double events_per_sec =
      best_seconds > 0 ? static_cast<double>(kHeadlineEvents) / best_seconds
                       : 0.0;
  std::printf(
      "\ncounting throughput record: %.4fs, %.0f instances/s, engine=%s\n",
      best_seconds, instances_per_sec, headline_sampler.Delta().Engine());

  // Per-preset predicate-path throughput: the model presets differ mainly
  // in how much per-instance graph querying (HasStaticEdge,
  // CountEdgeEventsInTimeRange, incident scans) their predicates do, so
  // these fields track the predicate path specifically. Same workload as
  // BM_ModelCount: k = 3, max_nodes = 3, dC = 1500, dW = 3000.
  std::vector<std::pair<std::string, double>> fields = {
      {"instances", static_cast<double>(instances)},
      {"instances_per_sec", instances_per_sec},
      {"events_per_sec", events_per_sec}};
  struct Preset {
    ModelId model;
    const char* key;
  };
  const Preset presets[] = {
      {ModelId::kKovanen, "kovanen"},
      {ModelId::kSong, "song"},
      {ModelId::kHulovatyy, "hulovatyy"},
      {ModelId::kParanjape, "paranjape"},
  };
  for (const Preset& preset : presets) {
    const EnumerationOptions po =
        OptionsForModel(preset.model, 3, 3, 1500, 3000);
    double preset_best = 0.0;
    std::uint64_t preset_instances = 0;
    DispatchSampler preset_sampler;
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer timer;
      preset_instances = CountInstances(graph, po);
      const double seconds = timer.Seconds();
      if (rep == 0 || seconds < preset_best) preset_best = seconds;
    }
    const double ips =
        preset_best > 0 ? static_cast<double>(preset_instances) / preset_best
                        : 0.0;
    std::printf("%s preset: %.4fs, %.0f instances/s, engine=%s\n",
                preset.key, preset_best, ips,
                preset_sampler.Delta().Engine());
    fields.emplace_back(std::string(preset.key) + "_instances_per_sec", ips);
  }

  // Specialized k <= 3 fast-path throughput on dispatched configurations
  // (dW-only, no order predicates): the Song preset workload (k = 3,
  // max_nodes = 3 — wedges/stars/triangles counters) and vanilla 2-node
  // three-event counting (the Paranjape event-sequence DP family). Each is
  // measured twice on the same graph: through the dispatcher (the fast
  // paths) and with the generic DFS engine forced, so speedup_vs_generic is
  // an apples-to-apples same-run ratio rather than a frozen baseline.
  struct FastPathWorkload {
    const char* key;
    EnumerationOptions options;
  };
  std::vector<FastPathWorkload> fast_workloads;
  {
    EnumerationOptions song;
    song.num_events = 3;
    song.max_nodes = 3;
    song.timing = TimingConstraints::OnlyDeltaW(3000);
    fast_workloads.push_back({"song", song});
    EnumerationOptions vanilla_2node;
    vanilla_2node.num_events = 3;
    vanilla_2node.max_nodes = 2;
    vanilla_2node.timing = TimingConstraints::OnlyDeltaW(3000);
    fast_workloads.push_back({"vanilla_2node", vanilla_2node});
  }
  for (const FastPathWorkload& w : fast_workloads) {
    double fast_best = 0.0;
    std::uint64_t fast_instances = 0;
    DispatchSampler fast_sampler;
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer timer;
      fast_instances = CountInstances(graph, w.options);
      const double seconds = timer.Seconds();
      if (rep == 0 || seconds < fast_best) fast_best = seconds;
    }
    // The dispatch counters, not a bench-side FastPathSupported call, are
    // the authority on what served the runs: every timed rep must have
    // dispatched to a fast path. (Both deltas read 0 only under
    // TMOTIF_NO_TELEMETRY, where attribution is unavailable.)
    const DispatchDelta fast_delta = fast_sampler.Delta();
    TMOTIF_CHECK(fast_delta.generic == 0);
    TMOTIF_CHECK(fast_delta.fastpath == 5 || fast_delta.fastpath == 0);
    double generic_best = 0.0;
    std::uint64_t generic_instances = 0;
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer timer;
      internal::CountOnlySink sink;
      generic_instances = internal::EnumerateCore(graph, w.options, 0,
                                                  graph.num_events(), sink);
      const double seconds = timer.Seconds();
      if (rep == 0 || seconds < generic_best) generic_best = seconds;
    }
    TMOTIF_CHECK(fast_instances == generic_instances);
    const double fast_ips =
        fast_best > 0 ? static_cast<double>(fast_instances) / fast_best : 0.0;
    const double generic_ips =
        generic_best > 0
            ? static_cast<double>(generic_instances) / generic_best
            : 0.0;
    const double speedup = generic_ips > 0 ? fast_ips / generic_ips : 0.0;
    std::printf("fastpath %s: %.4fs vs generic %.4fs, %.0f instances/s, "
                "%.2fx vs generic, engine=%s\n",
                w.key, fast_best, generic_best, fast_ips, speedup,
                fast_delta.Engine());
    fields.emplace_back(
        std::string("fastpath_") + w.key + "_instances_per_sec", fast_ips);
    fields.emplace_back(
        std::string("fastpath_") + w.key + "_speedup_vs_generic", speedup);
  }

  // Scope-saturated temporal-window final path (SaturatedFinal): k = 4 at
  // max_nodes = 3 saturates the scope on most final depths, the shape the
  // edge-run path targets.
  {
    EnumerationOptions wo;
    wo.num_events = 4;
    wo.max_nodes = 3;
    wo.timing = TimingConstraints::OnlyDeltaW(3000);
    wo.inducedness = Inducedness::kTemporalWindow;
    double best = 0.0;
    std::uint64_t instances = 0;
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer timer;
      instances = CountInstances(graph, wo);
      const double seconds = timer.Seconds();
      if (rep == 0 || seconds < best) best = seconds;
    }
    const double ips =
        best > 0 ? static_cast<double>(instances) / best : 0.0;
    std::printf("window-induced saturated: %.4fs, %.0f instances/s\n", best,
                ips);
    fields.emplace_back("window_induced_instances_per_sec", ips);
  }
  WriteBenchResult(record_args, "counting_throughput", best_seconds, fields);
}

}  // namespace
}  // namespace tmotif

int main(int argc, char** argv) {
  // Split argv: the shared bench flags (--scale/--seed/--out) go to
  // ParseBenchArgs, everything else to Google Benchmark (which rejects
  // flags it does not know).
  std::vector<char*> own_argv{argv[0]};
  std::vector<char*> gbench_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const bool ours = std::strncmp(argv[i], "--scale=", 8) == 0 ||
                      std::strncmp(argv[i], "--seed=", 7) == 0 ||
                      std::strncmp(argv[i], "--out=", 6) == 0;
    (ours ? own_argv : gbench_argv).push_back(argv[i]);
  }
  const tmotif::BenchArgs args = tmotif::ParseBenchArgs(
      static_cast<int>(own_argv.size()), own_argv.data());

  int gbench_argc = static_cast<int>(gbench_argv.size());
  benchmark::Initialize(&gbench_argc, gbench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                             gbench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  tmotif::WriteThroughputRecord(args);
  return 0;
}
