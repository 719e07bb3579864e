#include "core/models/zhao.h"

#include "common/check.h"
#include "core/timing.h"

namespace tmotif {
namespace {

/// Checks the pairwise constraint: every node-sharing pair of instance
/// events is at most delta_t apart. The sharing relation is connected over
/// the instance (connectivity = sharing), so the whole instance spans at
/// most (k-1) * delta_t — used as the enumeration window below.
bool PairwiseSharingWithin(const TemporalGraph& graph,
                           const MotifInstance& instance, Timestamp delta_t) {
  for (int i = 0; i < instance.num_events; ++i) {
    const Event& a = graph.event(instance.event_indices[i]);
    for (int j = i + 1; j < instance.num_events; ++j) {
      const Event& b = graph.event(instance.event_indices[j]);
      const bool share = a.src == b.src || a.src == b.dst ||
                         a.dst == b.src || a.dst == b.dst;
      if (share && b.time - a.time > delta_t) return false;
    }
  }
  return true;
}

}  // namespace

std::unordered_map<StaticForm, std::uint64_t> CountCommunicationMotifs(
    const TemporalGraph& graph, const ZhaoConfig& config) {
  TMOTIF_CHECK(config.delta_t >= 0);
  EnumerationOptions options;
  options.num_events = config.num_events;
  options.max_nodes = config.max_nodes;
  options.timing = TimingConstraints::OnlyDeltaW(
      LooseWindowBound(config.delta_t, config.num_events));
  std::unordered_map<StaticForm, std::uint64_t> counts;
  EnumerateInstances(graph, options, [&](const MotifInstance& instance) {
    if (!PairwiseSharingWithin(graph, instance, config.delta_t)) return;
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(static_cast<std::size_t>(instance.num_events));
    for (int i = 0; i < instance.num_events; ++i) {
      const Event& e = graph.event(instance.event_indices[i]);
      edges.emplace_back(e.src, e.dst);
    }
    ++counts[CanonicalStaticForm(edges)];
  });
  return counts;
}

}  // namespace tmotif
