#include "graph/temporal_graph.h"

#include <algorithm>

#include "common/check.h"

namespace tmotif {

IncidentSpan TemporalGraph::incident(NodeId node) const {
  TMOTIF_CHECK(node >= 0 && node < num_nodes_);
  const std::size_t n = static_cast<std::size_t>(node);
  const IncidentEntry* base = incident_entries_.data();
  return IncidentSpan(base + incident_offsets_[n],
                      base + incident_offsets_[n + 1]);
}

IncidentIterator TemporalGraph::IncidentUpperBound(NodeId node,
                                                   EventIndex after) const {
  TMOTIF_CHECK(node >= 0 && node < num_nodes_);
  const std::size_t n = static_cast<std::size_t>(node);
  const EventIndex* slim = incident_events_.data();
  const EventIndex* pos = std::upper_bound(slim + incident_offsets_[n],
                                           slim + incident_offsets_[n + 1],
                                           after);
  return IncidentIterator(incident_entries_.data() +
                          (pos - incident_events_.data()));
}

TemporalGraph::EdgeHandle TemporalGraph::FindEdge(NodeId src,
                                                  NodeId dst) const {
  if (src < 0 || src >= num_nodes_) return kNoEdgeHandle;
  const std::size_t s = static_cast<std::size_t>(src);
  const NodeId* base = neighbor_dsts_.data();
  const NodeId* begin = base + neighbor_offsets_[s];
  const NodeId* end = base + neighbor_offsets_[s + 1];
  const NodeId* it = std::lower_bound(begin, end, dst);
  if (it == end || *it != dst) return kNoEdgeHandle;
  return static_cast<EdgeHandle>(it - base);
}

EdgeOccurrenceRange TemporalGraph::edge_occurrences(EdgeHandle edge) const {
  const std::size_t s = static_cast<std::size_t>(edge);
  const EventIndex* idx = edge_occurrences_.data();
  const Timestamp* t = edge_occurrence_times_.data();
  return EdgeOccurrenceRange(
      EdgeOccurrenceIterator(idx + edge_offsets_[s], t + edge_offsets_[s]),
      EdgeOccurrenceIterator(idx + edge_offsets_[s + 1],
                             t + edge_offsets_[s + 1]));
}

std::size_t TemporalGraph::EdgeLowerRank(EdgeHandle edge, Timestamp t) const {
  const std::size_t s = static_cast<std::size_t>(edge);
  const Timestamp* begin = edge_occurrence_times_.data() + edge_offsets_[s];
  const Timestamp* end = edge_occurrence_times_.data() + edge_offsets_[s + 1];
  return static_cast<std::size_t>(std::lower_bound(begin, end, t) - begin);
}

std::size_t TemporalGraph::EdgeUpperRank(EdgeHandle edge, Timestamp t) const {
  const std::size_t s = static_cast<std::size_t>(edge);
  const Timestamp* begin = edge_occurrence_times_.data() + edge_offsets_[s];
  const Timestamp* end = edge_occurrence_times_.data() + edge_offsets_[s + 1];
  return static_cast<std::size_t>(std::upper_bound(begin, end, t) - begin);
}

int TemporalGraph::CountEdgeEventsInTimeRange(EdgeHandle edge, Timestamp t_lo,
                                              Timestamp t_hi) const {
  if (t_hi < t_lo) return 0;
  return static_cast<int>(EdgeUpperRank(edge, t_hi) -
                          EdgeLowerRank(edge, t_lo));
}

int TemporalGraph::CountIncidentInIndexRange(NodeId node, EventIndex lo,
                                             EventIndex hi) const {
  if (hi <= lo) return 0;
  TMOTIF_CHECK(node >= 0 && node < num_nodes_);
  const std::size_t n = static_cast<std::size_t>(node);
  const EventIndex* begin = incident_events_.data() + incident_offsets_[n];
  const EventIndex* end = incident_events_.data() + incident_offsets_[n + 1];
  const auto first = std::upper_bound(begin, end, lo);
  const auto last = std::lower_bound(begin, end, hi);
  return static_cast<int>(last - first);
}

bool TemporalGraph::HasIncidentInIndexRange(NodeId node, EventIndex lo,
                                            EventIndex hi) const {
  if (hi <= lo) return false;
  TMOTIF_CHECK(node >= 0 && node < num_nodes_);
  const std::size_t n = static_cast<std::size_t>(node);
  const EventIndex* begin = incident_events_.data() + incident_offsets_[n];
  const EventIndex* end = incident_events_.data() + incident_offsets_[n + 1];
  const auto first = std::upper_bound(begin, end, lo);
  return first != end && *first < hi;
}

int TemporalGraph::CountEdgeEventsInTimeRange(NodeId src, NodeId dst,
                                              Timestamp t_lo,
                                              Timestamp t_hi) const {
  const EdgeHandle edge = FindEdge(src, dst);
  if (edge == kNoEdgeHandle) return 0;
  return CountEdgeEventsInTimeRange(edge, t_lo, t_hi);
}

EventIndex TemporalGraph::UpperBoundTime(Timestamp t) const {
  const auto it = std::upper_bound(
      events_.begin(), events_.end(), t,
      [](Timestamp value, const Event& e) { return value < e.time; });
  return static_cast<EventIndex>(it - events_.begin());
}

TemporalGraphBuilder& TemporalGraphBuilder::AddEvent(NodeId src, NodeId dst,
                                                     Timestamp time,
                                                     Duration duration) {
  return AddEvent(Event{src, dst, time, duration});
}

TemporalGraphBuilder& TemporalGraphBuilder::AddEvent(const Event& event) {
  TMOTIF_CHECK_MSG(event.src >= 0 && event.dst >= 0, "negative node id");
  TMOTIF_CHECK_MSG(event.src != event.dst, "self-loop events are not allowed");
  TMOTIF_CHECK_MSG(event.duration >= 0, "negative duration");
  events_.push_back(event);
  return *this;
}

TemporalGraphBuilder& TemporalGraphBuilder::SetMinNumNodes(NodeId num_nodes) {
  TMOTIF_CHECK(num_nodes >= 0);
  min_num_nodes_ = std::max(min_num_nodes_, num_nodes);
  return *this;
}

TemporalGraph TemporalGraphBuilder::Build() {
  TemporalGraph graph;
  // Time-ordered input (every SaveEdgeList file) is already what the
  // stable sort would leave.
  if (!std::is_sorted(events_.begin(), events_.end(), EventTimeLess)) {
    std::stable_sort(events_.begin(), events_.end(), EventTimeLess);
  }
  graph.events_ = std::move(events_);
  events_.clear();

  NodeId max_node = min_num_nodes_ - 1;
  for (const Event& e : graph.events_) {
    max_node = std::max(max_node, std::max(e.src, e.dst));
  }
  graph.num_nodes_ = max_node + 1;

  const std::size_t num_nodes = static_cast<std::size_t>(graph.num_nodes_);
  const std::size_t num_events = graph.events_.size();

  graph.event_hot_.reserve(num_events);
  for (const Event& e : graph.events_) {
    graph.event_hot_.push_back({e.time, NodePairKey(e.src, e.dst)});
  }

  // Incident index: count per node, prefix-sum, then fill in event order so
  // every per-node run stays ascending.
  graph.incident_offsets_.assign(num_nodes + 1, 0);
  for (const Event& e : graph.events_) {
    ++graph.incident_offsets_[static_cast<std::size_t>(e.src) + 1];
    ++graph.incident_offsets_[static_cast<std::size_t>(e.dst) + 1];
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    graph.incident_offsets_[n + 1] += graph.incident_offsets_[n];
  }
  graph.incident_entries_.resize(2 * num_events);
  graph.incident_events_.resize(2 * num_events);
  {
    std::vector<std::size_t> cursor(graph.incident_offsets_.begin(),
                                    graph.incident_offsets_.end() - 1);
    for (EventIndex i = 0; i < graph.num_events(); ++i) {
      const Event& e = graph.event(i);
      const IncidentEntry entry{e.time, NodePairKey(e.src, e.dst), i};
      for (const NodeId n : {e.src, e.dst}) {
        const std::size_t at = cursor[static_cast<std::size_t>(n)]++;
        graph.incident_entries_[at] = entry;
        graph.incident_events_[at] = i;
      }
    }
  }

  // Edge indices: one sort of (key, event index) pairs yields the distinct
  // edges in (src, dst) order — which is exactly the neighbor-CSR payload
  // order, so an edge's first-occurrence position assigns its slot — plus
  // the per-slot occurrence runs and their SoA timestamp mirror in a single
  // pass (pair comparison keeps indices, hence times, ascending per slot).
  {
    std::vector<std::pair<std::uint64_t, EventIndex>> keyed;
    keyed.reserve(num_events);
    for (EventIndex i = 0; i < graph.num_events(); ++i) {
      const Event& e = graph.event(i);
      keyed.emplace_back(NodePairKey(e.src, e.dst), i);
    }
    std::sort(keyed.begin(), keyed.end());
    graph.neighbor_offsets_.assign(num_nodes + 1, 0);
    graph.edge_occurrences_.resize(num_events);
    graph.edge_occurrence_times_.resize(num_events);
    graph.event_edge_slot_.resize(num_events);
    graph.event_edge_rank_.resize(num_events);
    for (std::size_t i = 0; i < keyed.size(); ++i) {
      if (i == 0 || keyed[i].first != keyed[i - 1].first) {
        const std::size_t src =
            static_cast<std::size_t>(keyed[i].first >> 32);
        ++graph.neighbor_offsets_[src + 1];
        graph.neighbor_dsts_.push_back(
            static_cast<NodeId>(keyed[i].first & 0xffffffffu));
        graph.edge_offsets_.push_back(i);
      }
      const std::size_t slot = graph.neighbor_dsts_.size() - 1;
      const std::size_t event = static_cast<std::size_t>(keyed[i].second);
      graph.edge_occurrences_[i] = keyed[i].second;
      graph.edge_occurrence_times_[i] = graph.event_time(keyed[i].second);
      graph.event_edge_slot_[event] =
          static_cast<TemporalGraph::EdgeHandle>(slot);
      graph.event_edge_rank_[event] =
          static_cast<std::uint32_t>(i - graph.edge_offsets_[slot]);
    }
    graph.edge_offsets_.push_back(num_events);
    for (std::size_t n = 0; n < num_nodes; ++n) {
      graph.neighbor_offsets_[n + 1] += graph.neighbor_offsets_[n];
    }
  }

  min_num_nodes_ = 0;
  return graph;
}

TemporalGraph GraphFromEvents(const std::vector<Event>& events) {
  TemporalGraphBuilder builder;
  for (const Event& e : events) builder.AddEvent(e);
  return builder.Build();
}

}  // namespace tmotif
