#ifndef TMOTIF_GRAPH_TEMPORAL_GRAPH_H_
#define TMOTIF_GRAPH_TEMPORAL_GRAPH_H_

#include <cstdint>
#include <iterator>
#include <vector>

#include "common/types.h"
#include "graph/event.h"

namespace tmotif {

/// One record of the per-node incident CSR payload: the event's index plus
/// its hot fields (timestamp, NodePairKey-packed endpoints) inlined, so the
/// enumeration core's candidate merge reads everything it needs from the
/// sequential run it is already streaming — no random per-candidate event
/// lookups.
struct IncidentEntry {
  Timestamp time;
  std::uint64_t pair;
  EventIndex idx;
};

/// Random-access iterator over an incident run. Dereferencing yields the
/// event *index* (so ordering, binary searches, and existing callers keep
/// working); `time()` / `src()` / `dst()` expose the inlined hot fields of
/// the fronted entry without touching the event arrays.
class IncidentIterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = EventIndex;
  using difference_type = std::ptrdiff_t;
  using pointer = const EventIndex*;
  using reference = EventIndex;

  IncidentIterator() = default;
  explicit IncidentIterator(const IncidentEntry* p) : p_(p) {}

  EventIndex operator*() const { return p_->idx; }
  EventIndex operator[](difference_type n) const { return p_[n].idx; }
  Timestamp time() const { return p_->time; }
  NodeId src() const { return static_cast<NodeId>(p_->pair >> 32); }
  NodeId dst() const { return static_cast<NodeId>(p_->pair & 0xffffffffu); }

  IncidentIterator& operator++() { ++p_; return *this; }
  IncidentIterator operator++(int) { IncidentIterator t = *this; ++p_; return t; }
  IncidentIterator& operator--() { --p_; return *this; }
  IncidentIterator& operator+=(difference_type n) { p_ += n; return *this; }
  IncidentIterator& operator-=(difference_type n) { p_ -= n; return *this; }
  friend IncidentIterator operator+(IncidentIterator a, difference_type n) {
    a += n;
    return a;
  }
  friend IncidentIterator operator+(difference_type n, IncidentIterator a) {
    a += n;
    return a;
  }
  friend IncidentIterator operator-(IncidentIterator a, difference_type n) {
    a -= n;
    return a;
  }
  friend difference_type operator-(const IncidentIterator& a,
                                   const IncidentIterator& b) {
    return a.p_ - b.p_;
  }
  friend bool operator==(const IncidentIterator& a,
                         const IncidentIterator& b) {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const IncidentIterator& a,
                         const IncidentIterator& b) {
    return a.p_ != b.p_;
  }
  friend bool operator<(const IncidentIterator& a, const IncidentIterator& b) {
    return a.p_ < b.p_;
  }

 private:
  const IncidentEntry* p_ = nullptr;
};

/// Non-owning view of one node's incident run; iteration yields ascending
/// event indices (see `IncidentIterator`).
class IncidentSpan {
 public:
  using value_type = EventIndex;
  using const_iterator = IncidentIterator;

  IncidentSpan() = default;
  IncidentSpan(const IncidentEntry* begin, const IncidentEntry* end)
      : begin_(begin), end_(end) {}

  IncidentIterator begin() const { return IncidentIterator(begin_); }
  IncidentIterator end() const { return IncidentIterator(end_); }
  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  EventIndex operator[](std::size_t i) const { return begin_[i].idx; }
  EventIndex front() const { return begin_->idx; }
  EventIndex back() const { return (end_ - 1)->idx; }

 private:
  const IncidentEntry* begin_ = nullptr;
  const IncidentEntry* end_ = nullptr;
};

/// Random-access iterator over one edge slot's occurrence run, pairing each
/// event index with its timestamp (two parallel contiguous arrays advanced
/// in lockstep). Dereferencing yields the event index; `time()` the
/// timestamp.
class EdgeOccurrenceIterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = EventIndex;
  using difference_type = std::ptrdiff_t;
  using pointer = const EventIndex*;
  using reference = EventIndex;

  EdgeOccurrenceIterator() = default;
  EdgeOccurrenceIterator(const EventIndex* idx, const Timestamp* t)
      : idx_(idx), t_(t) {}

  EventIndex operator*() const { return *idx_; }
  EventIndex operator[](difference_type n) const { return idx_[n]; }
  Timestamp time() const { return *t_; }

  EdgeOccurrenceIterator& operator++() { ++idx_; ++t_; return *this; }
  EdgeOccurrenceIterator& operator+=(difference_type n) {
    idx_ += n;
    t_ += n;
    return *this;
  }
  friend EdgeOccurrenceIterator operator+(EdgeOccurrenceIterator a,
                                          difference_type n) {
    a += n;
    return a;
  }
  friend difference_type operator-(const EdgeOccurrenceIterator& a,
                                   const EdgeOccurrenceIterator& b) {
    return a.idx_ - b.idx_;
  }
  friend bool operator==(const EdgeOccurrenceIterator& a,
                         const EdgeOccurrenceIterator& b) {
    return a.idx_ == b.idx_;
  }
  friend bool operator!=(const EdgeOccurrenceIterator& a,
                         const EdgeOccurrenceIterator& b) {
    return a.idx_ != b.idx_;
  }

 private:
  const EventIndex* idx_ = nullptr;
  const Timestamp* t_ = nullptr;
};

/// Non-owning view of one edge slot's occurrence run (index + timestamp in
/// lockstep), ascending by index hence by time.
class EdgeOccurrenceRange {
 public:
  EdgeOccurrenceRange() = default;
  EdgeOccurrenceRange(EdgeOccurrenceIterator begin, EdgeOccurrenceIterator end)
      : begin_(begin), end_(end) {}
  EdgeOccurrenceIterator begin() const { return begin_; }
  EdgeOccurrenceIterator end() const { return end_; }
  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }

 private:
  EdgeOccurrenceIterator begin_;
  EdgeOccurrenceIterator end_;
};

/// Immutable temporal network G(V, E): a time-ordered list of events plus
/// the indices the motif models need:
///   * per-node incident-event lists (ascending event index),
///   * a per-node neighbor CSR over the static projection: the distinct
///     directed edges leaving node `src` occupy one contiguous sorted run
///     of `neighbor_dsts_`, and an edge's position in that array IS its
///     `EdgeHandle` (the edge slot),
///   * per-edge-slot occurrence lists plus an SoA timestamp mirror (for the
///     constrained-dynamic-graphlet restriction and the inducedness
///     checks).
///
/// All indices are CSR-flattened: one offset table plus one contiguous
/// payload array per index. Edge lookup resolves inside one small per-node
/// neighbor run instead of a graph-global sorted key array, so a
/// `FindEdge` costs O(log out-degree) — effectively O(1) on sparse data —
/// and repeated queries against a resolved `EdgeHandle` are O(1) rank
/// computations on flat timestamp arrays (the enumeration core caches
/// handles per digit pair; see core/enumerate_core.h).
///
/// Build instances through `TemporalGraphBuilder`.
class TemporalGraph {
 public:
  /// Resolved slot of a distinct directed static edge: the index of its
  /// (src, dst) entry in the neighbor CSR, in [0, num_static_edges()).
  /// Handles stay valid for the lifetime of the graph.
  using EdgeHandle = std::uint32_t;
  /// Sentinel returned by `FindEdge` when the edge never occurs.
  static constexpr EdgeHandle kNoEdgeHandle = 0xffffffffu;

  /// Number of nodes (ids are dense in [0, num_nodes)).
  NodeId num_nodes() const { return num_nodes_; }
  /// Number of events, time-ordered.
  EventIndex num_events() const { return static_cast<EventIndex>(events_.size()); }
  /// Number of distinct directed static edges.
  std::size_t num_static_edges() const { return neighbor_dsts_.size(); }

  const std::vector<Event>& events() const { return events_; }
  const Event& event(EventIndex i) const { return events_[static_cast<std::size_t>(i)]; }

  /// Hot-path accessors: each event's timestamp and NodePairKey-packed
  /// endpoints live together in one dense 16-byte record, so a candidate's
  /// time check and digit lookups touch a single cache line (vs two with
  /// split side arrays, vs four loading whole `Event` records).
  Timestamp event_time(EventIndex i) const {
    return event_hot_[static_cast<std::size_t>(i)].time;
  }
  NodeId event_src(EventIndex i) const {
    return static_cast<NodeId>(event_hot_[static_cast<std::size_t>(i)].pair >>
                               32);
  }
  NodeId event_dst(EventIndex i) const {
    return static_cast<NodeId>(event_hot_[static_cast<std::size_t>(i)].pair &
                               0xffffffffu);
  }

  /// Events incident to `node` (as source or target), ascending by index,
  /// with each entry's hot fields inlined (see `IncidentEntry`).
  IncidentSpan incident(NodeId node) const;

  /// Iterator into `incident(node)` fronting the first entry with event
  /// index > `after` (the run's end when none). The search runs on a slim
  /// 4-byte index mirror — binary searching the fat entries would touch 6x
  /// the cache lines.
  IncidentIterator IncidentUpperBound(NodeId node, EventIndex after) const;

  /// Resolves the directed static edge (src, dst) to its slot via the
  /// per-node neighbor CSR; `kNoEdgeHandle` when the edge never occurs.
  /// Out-of-range node ids resolve to `kNoEdgeHandle`.
  EdgeHandle FindEdge(NodeId src, NodeId dst) const;

  /// Occurrence run of the resolved edge with timestamps in lockstep — the
  /// scope-saturated enumeration path iterates these instead of incident
  /// runs. `edge` must be a valid handle.
  EdgeOccurrenceRange edge_occurrences(EdgeHandle edge) const;

  /// Number of the resolved edge's occurrences with time < t (lower rank)
  /// or time <= t (upper rank). `CountEdgeEventsInTimeRange(e, a, b)` ==
  /// `EdgeUpperRank(e, b) - EdgeLowerRank(e, a)`; the enumeration core
  /// caches lower ranks per (edge, first-event) pair.
  std::size_t EdgeLowerRank(EdgeHandle edge, Timestamp t) const;
  std::size_t EdgeUpperRank(EdgeHandle edge, Timestamp t) const;

  /// Number of the resolved edge's occurrences with timestamp in
  /// [t_lo, t_hi] (inclusive).
  int CountEdgeEventsInTimeRange(EdgeHandle edge, Timestamp t_lo,
                                 Timestamp t_hi) const;

  /// True when another event on the same directed edge as event `c` has
  /// timestamp in [t_lo, t_hi]; `c`'s own timestamp must lie inside the
  /// range. O(1): each event knows its edge slot and occurrence rank, and
  /// the in-range occurrences form a contiguous run around `c`, so only
  /// the two rank neighbors need a look. This is the whole CDG restriction
  /// check (count-in-range > 1 given `c` itself is in range).
  bool HasAdjacentEdgeEventInRange(EventIndex c, Timestamp t_lo,
                                   Timestamp t_hi) const {
    const std::size_t i = static_cast<std::size_t>(c);
    const std::size_t base =
        edge_offsets_[static_cast<std::size_t>(event_edge_slot_[i])];
    const std::size_t size =
        edge_offsets_[static_cast<std::size_t>(event_edge_slot_[i]) + 1] -
        base;
    const std::size_t rank = event_edge_rank_[i];
    const Timestamp* times = edge_occurrence_times_.data() + base;
    return (rank > 0 && times[rank - 1] >= t_lo) ||
           (rank + 1 < size && times[rank + 1] <= t_hi);
  }

  /// True when the directed static edge (src, dst) occurs at least once.
  bool HasStaticEdge(NodeId src, NodeId dst) const {
    return FindEdge(src, dst) != kNoEdgeHandle;
  }

  /// Number of events incident to `node` with event index strictly inside
  /// (`lo`, `hi`). Used by the Kovanen consecutive-events restriction.
  int CountIncidentInIndexRange(NodeId node, EventIndex lo, EventIndex hi) const;

  /// Existence-only variant of the count above (one binary search instead
  /// of two) — the enumerator's consecutive-events check only needs a
  /// yes/no answer.
  bool HasIncidentInIndexRange(NodeId node, EventIndex lo, EventIndex hi) const;

  /// Number of events on edge (src, dst) with timestamp in [t_lo, t_hi]
  /// (inclusive). Used by the constrained-dynamic-graphlet restriction.
  int CountEdgeEventsInTimeRange(NodeId src, NodeId dst, Timestamp t_lo,
                                 Timestamp t_hi) const;

  /// Earliest / latest timestamps (0 when empty).
  Timestamp min_time() const { return events_.empty() ? 0 : events_.front().time; }
  Timestamp max_time() const { return events_.empty() ? 0 : events_.back().time; }

  /// First event index with time > t (num_events() when none).
  EventIndex UpperBoundTime(Timestamp t) const;

 private:
  friend class TemporalGraphBuilder;

  /// Dense hot mirror of one event: timestamp + NodePairKey-packed
  /// endpoints, 16 bytes.
  struct HotEvent {
    Timestamp time;
    std::uint64_t pair;
  };

  NodeId num_nodes_ = 0;
  std::vector<Event> events_;
  /// Dense hot mirror of events_ (see the accessor comment above).
  std::vector<HotEvent> event_hot_;
  /// CSR incident index: events touching node n (either endpoint) are
  /// incident_entries_[incident_offsets_[n] .. incident_offsets_[n + 1]),
  /// each entry carrying the event's hot fields inline. incident_events_
  /// is a slim 4-byte mirror of the entry indices (same offsets); it is
  /// never iterated, only binary-searched by IncidentUpperBound and
  /// HasIncidentInIndexRange, which would touch 6x the cache lines on the
  /// fat entries.
  std::vector<std::size_t> incident_offsets_;
  std::vector<IncidentEntry> incident_entries_;
  std::vector<EventIndex> incident_events_;
  /// Per-node neighbor CSR over the static projection: the distinct targets
  /// of edges leaving src are neighbor_dsts_[neighbor_offsets_[src] ..
  /// neighbor_offsets_[src + 1]), sorted ascending. An edge's index in
  /// neighbor_dsts_ is its EdgeHandle (slots ascend in (src, dst) order, so
  /// they coincide with the occurrence-index slot order below).
  std::vector<std::size_t> neighbor_offsets_;
  std::vector<NodeId> neighbor_dsts_;
  /// CSR edge-occurrence index: occurrences of edge slot s are
  /// edge_occurrences_[edge_offsets_[s] .. edge_offsets_[s + 1]), with
  /// edge_occurrence_times_ the SoA timestamp mirror so range counts search
  /// flat Timestamp memory instead of chasing event records.
  std::vector<std::size_t> edge_offsets_;
  std::vector<EventIndex> edge_occurrences_;
  std::vector<Timestamp> edge_occurrence_times_;
  /// Per-event edge-slot cache: each event's resolved slot and its rank in
  /// that slot's occurrence run, so same-edge adjacency queries skip both
  /// the lookup and the binary searches.
  std::vector<EdgeHandle> event_edge_slot_;
  std::vector<std::uint32_t> event_edge_rank_;
};

/// Accumulates events and produces an immutable `TemporalGraph`. Events may
/// be added in any order; `Build` sorts them chronologically (deterministic
/// tie-breaking) and constructs all indices.
class TemporalGraphBuilder {
 public:
  /// Adds one event. Self-loops are rejected (motif models assume u != v);
  /// callers ingesting raw data should drop self-loops first (the edge-list
  /// loader does this).
  TemporalGraphBuilder& AddEvent(NodeId src, NodeId dst, Timestamp time,
                                 Duration duration = 0);
  TemporalGraphBuilder& AddEvent(const Event& event);

  /// Forces the node-count lower bound (ids seen in events also count).
  TemporalGraphBuilder& SetMinNumNodes(NodeId num_nodes);

  std::size_t num_events() const { return events_.size(); }

  /// Builds the graph. The builder can be reused afterwards (it is reset).
  TemporalGraph Build();

 private:
  std::vector<Event> events_;
  NodeId min_num_nodes_ = 0;
};

/// Convenience for tests and examples: builds a graph from an event list.
TemporalGraph GraphFromEvents(const std::vector<Event>& events);

}  // namespace tmotif

#endif  // TMOTIF_GRAPH_TEMPORAL_GRAPH_H_
