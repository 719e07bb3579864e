#include "core/enumerator.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "core/enumerate_core.h"
#include "core/fast_paths/fast_path.h"
#include "core/packed_table.h"

namespace tmotif {

namespace {

/// Sink bridging the devirtualized core to the public std::function-based
/// visitor API: the packed code is spelled out into a stack buffer once per
/// *emitted* instance (the inner DFS never touches strings).
class VisitorSink {
 public:
  explicit VisitorSink(const InstanceVisitor& visit) : visit_(visit) {}

  void Emit(const EventIndex* chosen, int num_events, std::uint64_t packed,
            const NodeId*, int) {
    const int len = internal::PackedCodeToChars(packed, num_events, buf_);
    MotifInstance instance;
    instance.event_indices = chosen;
    instance.num_events = num_events;
    instance.code = std::string_view(buf_, static_cast<std::size_t>(len));
    visit_(instance);
  }

 private:
  const InstanceVisitor& visit_;
  char buf_[2 * internal::kMaxCoreEvents];
};

}  // namespace

std::uint64_t EnumerateInstances(const TemporalGraph& graph,
                                 const EnumerationOptions& options,
                                 const InstanceVisitor& visit) {
  internal::ValidateEnumerationOptions(options);
  VisitorSink sink(visit);
  return internal::EnumerateCore(graph, options, 0, graph.num_events(), sink);
}

std::uint64_t CountInstances(const TemporalGraph& graph,
                             const EnumerationOptions& options) {
  return CountInstancesInRange(graph, options, 0, graph.num_events());
}

std::uint64_t CountInstancesInRange(const TemporalGraph& graph,
                                    const EnumerationOptions& options,
                                    EventIndex first_begin,
                                    EventIndex first_end) {
  internal::ValidateEnumerationOptions(options);
  first_begin = std::max<EventIndex>(first_begin, 0);
  first_end = std::min<EventIndex>(first_end, graph.num_events());
  if (first_begin >= first_end) return 0;
  if (internal::fast_paths::FastPathSupported(options)) {
    internal::fast_paths::NoteDispatch(true);
    internal::PackedMotifTable table;
    internal::fast_paths::CountRangeInto(graph, options, first_begin,
                                         first_end, &table);
    return table.total();
  }
  internal::fast_paths::NoteDispatch(false);
  internal::CountOnlySink sink;
  return internal::EnumerateCore(graph, options, first_begin, first_end, sink);
}

bool IsValidInstance(const TemporalGraph& graph,
                     const std::vector<EventIndex>& event_indices,
                     const EnumerationOptions& options) {
  const int k = options.num_events;
  if (static_cast<int>(event_indices.size()) != k || k < 1) return false;

  // Strictly increasing indices and timestamps.
  for (std::size_t i = 0; i < event_indices.size(); ++i) {
    if (event_indices[i] < 0 || event_indices[i] >= graph.num_events()) {
      return false;
    }
    if (i > 0) {
      if (event_indices[i] <= event_indices[i - 1]) return false;
      if (graph.event(event_indices[i]).time <=
          graph.event(event_indices[i - 1]).time) {
        return false;
      }
    }
  }

  // Single-component growth and node cap.
  std::vector<NodeId> node_set;
  const Event& first = graph.event(event_indices[0]);
  node_set.push_back(first.src);
  node_set.push_back(first.dst);
  const auto in_set = [&](NodeId n) {
    return std::find(node_set.begin(), node_set.end(), n) != node_set.end();
  };
  for (std::size_t i = 1; i < event_indices.size(); ++i) {
    const Event& e = graph.event(event_indices[i]);
    const bool src_in = in_set(e.src);
    const bool dst_in = in_set(e.dst);
    if (!src_in && !dst_in) return false;
    if (!src_in) node_set.push_back(e.src);
    if (!dst_in) node_set.push_back(e.dst);
  }
  if (static_cast<int>(node_set.size()) > options.max_nodes) return false;

  // Timing. Bounds saturate (common/types.h): near the Timestamp extremes
  // a plain difference or end time would wrap.
  const Timestamp t_first = graph.event(event_indices.front()).time;
  const Timestamp t_last = graph.event(event_indices.back()).time;
  if (options.timing.delta_w.has_value() &&
      t_last > SatAdd(t_first, *options.timing.delta_w)) {
    return false;
  }
  if (options.timing.delta_c.has_value()) {
    for (std::size_t i = 1; i < event_indices.size(); ++i) {
      const Event& prev = graph.event(event_indices[i - 1]);
      const Timestamp base = options.duration_aware_gaps
                                 ? SatAdd(prev.time, prev.duration)
                                 : prev.time;
      if (graph.event(event_indices[i]).time >
          SatAdd(base, *options.timing.delta_c)) {
        return false;
      }
    }
  }

  // Consecutive-events restriction.
  if (options.consecutive_events_restriction) {
    for (const NodeId node : node_set) {
      EventIndex prev_touch = -1;
      for (const EventIndex idx : event_indices) {
        const Event& e = graph.event(idx);
        if (e.src != node && e.dst != node) continue;
        if (prev_touch >= 0 &&
            graph.CountIncidentInIndexRange(node, prev_touch, idx) > 0) {
          return false;
        }
        prev_touch = idx;
      }
    }
  }

  // Constrained-dynamic-graphlet restriction.
  if (options.cdg_restriction) {
    for (std::size_t i = 1; i < event_indices.size(); ++i) {
      const Event& a = graph.event(event_indices[i - 1]);
      const Event& b = graph.event(event_indices[i]);
      if (a.src == b.src && a.dst == b.dst) continue;
      if (graph.CountEdgeEventsInTimeRange(b.src, b.dst, a.time, b.time) > 1) {
        return false;
      }
    }
  }

  // Inducedness.
  if (options.inducedness != Inducedness::kNone) {
    std::vector<StaticEdge> used;
    for (const EventIndex idx : event_indices) {
      const Event& e = graph.event(idx);
      used.push_back({e.src, e.dst});
    }
    const auto edge_used = [&](NodeId a, NodeId b) {
      return std::find(used.begin(), used.end(), StaticEdge{a, b}) !=
             used.end();
    };
    if (options.inducedness == Inducedness::kStatic) {
      for (const NodeId a : node_set) {
        for (const NodeId b : node_set) {
          if (a == b || edge_used(a, b)) continue;
          if (graph.HasStaticEdge(a, b)) return false;
        }
      }
    } else {
      int total = 0;
      for (const NodeId a : node_set) {
        for (const NodeId b : node_set) {
          if (a == b) continue;
          total += graph.CountEdgeEventsInTimeRange(a, b, t_first, t_last);
        }
      }
      if (total != k) return false;
    }
  }
  return true;
}

}  // namespace tmotif
