// Quickstart: build a small temporal network, count temporal motifs under
// all four published models, and inspect the event-pair lens.
//
//   $ ./quickstart
//
// Walks through the core API: TemporalGraphBuilder -> EnumerationOptions
// and the model presets -> MotifCounts -> event pairs.

#include <cstdio>

#include "analysis/event_pair_analysis.h"
#include "analysis/report.h"
#include "core/counter.h"
#include "core/models/model_info.h"

using namespace tmotif;

int main() {
  // A toy conversation network: 0 and 1 chat, 0 occasionally messages 2,
  // and 2 forwards to 3.
  TemporalGraphBuilder builder;
  builder.AddEvent(0, 1, 10)    // 0 asks 1.
      .AddEvent(1, 0, 25)       // 1 replies.
      .AddEvent(0, 1, 40)       // 0 follows up.
      .AddEvent(0, 2, 55)       // 0 starts another chat.
      .AddEvent(2, 3, 70)       // 2 forwards to 3.
      .AddEvent(1, 0, 90)       // 1 writes again.
      .AddEvent(0, 2, 120)      // 0 continues with 2.
      .AddEvent(2, 0, 130);     // 2 answers.
  const TemporalGraph graph = builder.Build();

  std::printf("Graph: %d nodes, %d events, %zu static edges\n\n",
              graph.num_nodes(), graph.num_events(),
              graph.num_static_edges());

  // 1. Vanilla counting: all 3-event, <=3-node motifs within a 60s window.
  EnumerationOptions vanilla;
  vanilla.num_events = 3;
  vanilla.max_nodes = 3;
  vanilla.timing = TimingConstraints::OnlyDeltaW(60);
  const MotifCounts counts = CountMotifs(graph, vanilla);
  std::printf("Vanilla 3-event motifs (dW=60s): %llu instances\n%s\n",
              static_cast<unsigned long long>(counts.total()),
              RenderMotifCounts(counts).c_str());

  // 2. The four published models on the same graph.
  std::printf("Model comparison (3-event motifs, dC=30s / dW=60s):\n");
  for (const ModelId model : kAllModels) {
    const EnumerationOptions options = OptionsForModel(model, 3, 3, 30, 60);
    std::printf("  %-18s %llu motifs\n", GetModelAspects(model).name,
                static_cast<unsigned long long>(
                    CountInstances(graph, options)));
  }

  // 3. The event-pair lens: what kinds of consecutive interactions make up
  // the motifs?
  const EventPairStats pairs = CollectEventPairStats(graph, vanilla);
  std::printf("\nEvent pairs inside motifs: %s\n",
              RenderPairRatios(pairs).c_str());
  return 0;
}
