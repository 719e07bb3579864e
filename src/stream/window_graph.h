#ifndef TMOTIF_STREAM_WINDOW_GRAPH_H_
#define TMOTIF_STREAM_WINDOW_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/event.h"

namespace tmotif {

/// Eviction policy of a sliding event window.
enum class WindowPolicyKind {
  /// Keep the most recent `max_events` events.
  kCountBased,
  /// Keep events with time > t_latest - horizon, where t_latest is the
  /// largest timestamp seen so far (the window is the half-open time range
  /// (t_latest - horizon, t_latest]).
  kTimeBased,
};

struct WindowPolicy {
  WindowPolicyKind kind = WindowPolicyKind::kCountBased;
  /// Capacity for kCountBased (>= 1).
  std::int64_t max_events = 0;
  /// Lookback for kTimeBased (>= 1 second).
  Timestamp horizon = 0;

  static WindowPolicy CountBased(std::int64_t max_events);
  static WindowPolicy TimeBased(Timestamp horizon);

  /// "last 4096 events" / "last 3600s" style description.
  std::string ToString() const;
};

/// How one sorted batch changes the window: which prefix of the current
/// window expires and which suffix of the batch actually enters (batch
/// events that the policy would expire immediately are dropped up front,
/// which is equivalent to inserting and evicting them in the same step).
struct IngestPlan {
  /// Number of events to evict from the front of the window.
  std::size_t num_evict = 0;
  /// First batch index that enters the window (earlier ones are dropped).
  std::size_t batch_begin = 0;
};

/// The one live sliding window of an event stream: its events, its policy
/// and stream clock, and the per-node / per-edge indices over them — the
/// streaming counterpart of `TemporalGraph`'s CSR indices, exposing the
/// accessor subset the devirtualized enumeration core
/// (core/enumerate_core.h) needs, so every streaming count runs directly on
/// the live window without building a graph.
///
/// The events are kept in the same canonical order as
/// `TemporalGraphBuilder::Build` (EventTimeLess with stable ties, older
/// arrivals first). Every batch merges into canonical position (an
/// in-order batch behind the trailing tie group, a late one wherever its
/// times fall) and eviction always removes a canonical prefix, so the
/// window is at every point exactly the policy-selected suffix of the
/// canonically sorted stream history — a graph built from `events()`
/// equals the graph built from scratch on the same event set (the
/// invariant the streaming counter's differential tests assert).
///
/// The static projection mirrors `TemporalGraph`'s per-node neighbor CSR
/// incrementally: each source node owns a small array of `EdgeCell`s (one
/// per live distinct directed edge), each holding the edge's occurrence ids
/// plus an SoA timestamp mirror. `FindEdge` scans the source's cells —
/// window out-degrees are small, so lookup is O(out-degree) with no hashing
/// — and a resolved `EdgeHandle` answers time-range counts with binary
/// searches over the flat timestamp deque.
///
/// Index entries are monotone *ids*: the event at window position `p`
/// always has id `first_id() + p`, where `first_id()` advances by the
/// number of evicted events. Evicting the canonical prefix therefore
/// renumbers nothing (ids stay put, `first_id()` moves), and appends assign
/// fresh contiguous ids. The one wrinkle is the merge: an entering event
/// shifts the positions of every resident ordered after it — for an
/// in-order batch only the window's final shared-timestamp run (the
/// EventTimeLess tiebreak orders by endpoints), for a late one everything
/// newer than it. `Apply` pops those residents (they are the tail of every
/// list they appear in) and re-appends the merged tail in the same walk,
/// so each batch costs O(evicted + popped + entered) index operations —
/// never O(window) for an in-order batch. `Apply` and `Restore` are the
/// only mutators.
class WindowGraph {
 public:
  using IdList = std::deque<std::uint64_t>;

  /// One live distinct directed static edge of the window: its target, the
  /// monotone ids of its occurrences, and the SoA timestamp mirror kept in
  /// lockstep (times[i] is the timestamp of the event with id ids[i]).
  struct EdgeCell {
    NodeId dst = kInvalidNode;
    IdList ids;
    std::deque<Timestamp> times;
  };

  /// Resolved edge: pointer to the live cell. Valid only until the next
  /// mutation (Apply / Restore) — the enumeration core resolves and uses
  /// handles strictly within one enumeration pass over a quiescent graph.
  using EdgeHandle = const EdgeCell*;
  static constexpr EdgeHandle kNoEdgeHandle = nullptr;

  /// Random-access iterator over an id list that yields current window
  /// positions (id - offset). Satisfies what std::upper_bound and the
  /// enumeration core's k-way merge need.
  class IndexIterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = EventIndex;
    using difference_type = std::ptrdiff_t;
    using pointer = const EventIndex*;
    using reference = EventIndex;

    IndexIterator() = default;
    IndexIterator(IdList::const_iterator it, std::uint64_t offset,
                  const std::deque<Event>* events)
        : it_(it), offset_(offset), events_(events) {}

    EventIndex operator*() const {
      return static_cast<EventIndex>(*it_ - offset_);
    }
    EventIndex operator[](difference_type n) const {
      return static_cast<EventIndex>(it_[n] - offset_);
    }
    /// Hot fields of the fronted event (same surface as
    /// TemporalGraph::IncidentIterator; resolved through the window's event
    /// deque — the streaming side has no inlined mirror).
    Timestamp time() const { return Fronted().time; }
    NodeId src() const { return Fronted().src; }
    NodeId dst() const { return Fronted().dst; }
    IndexIterator& operator++() { ++it_; return *this; }
    IndexIterator operator++(int) { IndexIterator t = *this; ++it_; return t; }
    IndexIterator& operator--() { --it_; return *this; }
    IndexIterator& operator+=(difference_type n) { it_ += n; return *this; }
    IndexIterator& operator-=(difference_type n) { it_ -= n; return *this; }
    friend IndexIterator operator+(IndexIterator a, difference_type n) {
      a += n;
      return a;
    }
    friend IndexIterator operator+(difference_type n, IndexIterator a) {
      a += n;
      return a;
    }
    friend IndexIterator operator-(IndexIterator a, difference_type n) {
      a -= n;
      return a;
    }
    friend difference_type operator-(const IndexIterator& a,
                                     const IndexIterator& b) {
      return a.it_ - b.it_;
    }
    friend bool operator==(const IndexIterator& a, const IndexIterator& b) {
      return a.it_ == b.it_;
    }
    friend bool operator!=(const IndexIterator& a, const IndexIterator& b) {
      return a.it_ != b.it_;
    }
    friend bool operator<(const IndexIterator& a, const IndexIterator& b) {
      return a.it_ < b.it_;
    }

   private:
    const Event& Fronted() const {
      return (*events_)[static_cast<std::size_t>(*it_ - offset_)];
    }

    IdList::const_iterator it_{};
    std::uint64_t offset_ = 0;
    const std::deque<Event>* events_ = nullptr;
  };

  class IndexRange {
   public:
    IndexRange(IndexIterator begin, IndexIterator end)
        : begin_(begin), end_(end) {}
    IndexIterator begin() const { return begin_; }
    IndexIterator end() const { return end_; }
    std::size_t size() const {
      return static_cast<std::size_t>(end_ - begin_);
    }
    bool empty() const { return begin_ == end_; }

   private:
    IndexIterator begin_;
    IndexIterator end_;
  };

  /// An empty window under `policy`.
  explicit WindowGraph(const WindowPolicy& policy);

  // --- The window and its stream clock. ---
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  /// The window's events in canonical order (position p = events()[p]).
  const std::deque<Event>& events() const { return events_; }
  /// Largest timestamp ever ingested (not just in the current window);
  /// 0 before the first event. Time-based eviction measures from here.
  Timestamp max_time_seen() const { return max_time_seen_; }
  /// Whether max_time_seen() is meaningful (streams may live in negative
  /// time, so the zero default cannot distinguish "no events yet").
  bool saw_any_event() const { return saw_any_event_; }
  /// Monotone id of the event at window position 0 (the total evictions
  /// since construction or the last Restore).
  std::uint64_t first_id() const { return offset_; }

  // --- TemporalGraph-compatible accessor subset (enumeration core). ---
  EventIndex num_events() const {
    return static_cast<EventIndex>(events_.size());
  }
  const Event& event(EventIndex i) const {
    return events_[static_cast<std::size_t>(i)];
  }
  Timestamp event_time(EventIndex i) const { return event(i).time; }
  NodeId event_src(EventIndex i) const { return event(i).src; }
  NodeId event_dst(EventIndex i) const { return event(i).dst; }

  /// Window positions of events incident to `node`, ascending. Nodes the
  /// window has never seen yield an empty range.
  IndexRange incident(NodeId node) const;

  /// Iterator into `incident(node)` fronting the first position > `after`
  /// (same contract as TemporalGraph::IncidentUpperBound).
  IndexIterator IncidentUpperBound(NodeId node, EventIndex after) const {
    const IndexRange range = incident(node);
    return std::upper_bound(range.begin(), range.end(), after);
  }

  /// Random-access iterator over one live edge's occurrence run: yields
  /// window positions, with `time()` from the cell's timestamp mirror in
  /// lockstep (same surface as TemporalGraph::EdgeOccurrenceIterator).
  class EdgeOccurrenceIterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = EventIndex;
    using difference_type = std::ptrdiff_t;
    using pointer = const EventIndex*;
    using reference = EventIndex;

    EdgeOccurrenceIterator() = default;
    EdgeOccurrenceIterator(IdList::const_iterator id,
                           std::deque<Timestamp>::const_iterator t,
                           std::uint64_t offset)
        : id_(id), t_(t), offset_(offset) {}

    EventIndex operator*() const {
      return static_cast<EventIndex>(*id_ - offset_);
    }
    EventIndex operator[](difference_type n) const {
      return static_cast<EventIndex>(id_[n] - offset_);
    }
    Timestamp time() const { return *t_; }

    EdgeOccurrenceIterator& operator++() { ++id_; ++t_; return *this; }
    EdgeOccurrenceIterator& operator+=(difference_type n) {
      id_ += n;
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
      return a.id_ - b.id_;
    }
    friend bool operator==(const EdgeOccurrenceIterator& a,
                           const EdgeOccurrenceIterator& b) {
      return a.id_ == b.id_;
    }
    friend bool operator!=(const EdgeOccurrenceIterator& a,
                           const EdgeOccurrenceIterator& b) {
      return a.id_ != b.id_;
    }

   private:
    IdList::const_iterator id_{};
    std::deque<Timestamp>::const_iterator t_{};
    std::uint64_t offset_ = 0;
  };

  class EdgeOccurrenceRange {
   public:
    EdgeOccurrenceRange() = default;
    EdgeOccurrenceRange(EdgeOccurrenceIterator begin,
                        EdgeOccurrenceIterator end)
        : begin_(begin), end_(end) {}
    EdgeOccurrenceIterator begin() const { return begin_; }
    EdgeOccurrenceIterator end() const { return end_; }
    std::size_t size() const {
      return static_cast<std::size_t>(end_ - begin_);
    }
    bool empty() const { return begin_ == end_; }

   private:
    EdgeOccurrenceIterator begin_;
    EdgeOccurrenceIterator end_;
  };

  /// Resolves the directed static edge (src, dst) against the live window;
  /// `kNoEdgeHandle` when absent. Out-of-range ids resolve to absent.
  EdgeHandle FindEdge(NodeId src, NodeId dst) const;

  /// Occurrence run of the resolved edge (window positions + timestamps in
  /// lockstep), ascending.
  EdgeOccurrenceRange edge_occurrences(EdgeHandle edge) const {
    return EdgeOccurrenceRange(
        EdgeOccurrenceIterator(edge->ids.begin(), edge->times.begin(),
                               offset_),
        EdgeOccurrenceIterator(edge->ids.end(), edge->times.end(), offset_));
  }

  /// Number of the resolved edge's window occurrences with time < t / <= t
  /// (same rank contract as TemporalGraph).
  std::size_t EdgeLowerRank(EdgeHandle edge, Timestamp t) const;
  std::size_t EdgeUpperRank(EdgeHandle edge, Timestamp t) const;
  /// Occurrence count of the resolved edge with timestamp in [t_lo, t_hi].
  int CountEdgeEventsInTimeRange(EdgeHandle edge, Timestamp t_lo,
                                 Timestamp t_hi) const;

  /// True when another window event on the same directed edge as event `c`
  /// has timestamp in [t_lo, t_hi] (`c`'s own timestamp must lie inside the
  /// range): one id search to find `c`'s rank, then a look at the two rank
  /// neighbors. Same contract as TemporalGraph::HasAdjacentEdgeEventInRange.
  bool HasAdjacentEdgeEventInRange(EventIndex c, Timestamp t_lo,
                                   Timestamp t_hi) const;

  /// Occurrence count of the directed static edge in the current window.
  std::size_t NumEdgeEvents(NodeId src, NodeId dst) const;

  bool HasIncidentInIndexRange(NodeId node, EventIndex lo,
                               EventIndex hi) const;

  /// First window position with time >= t / > t (num_events() when none).
  EventIndex LowerBoundTime(Timestamp t) const;
  EventIndex UpperBoundTime(Timestamp t) const;

  // --- Mutation. ---

  /// Computes the policy's response to `batch` (sorted by EventTimeLess)
  /// without applying it. Count-based windows evict the merged canonical
  /// prefix — batch events falling inside it are dropped via
  /// `batch_begin`, exactly as if they had arrived and already expired.
  /// Time-based windows measure from the clock the batch leaves
  /// (max_time_seen() or its newest time); a late batch (every time below
  /// max_time_seen()) moves no clock, so it evicts nothing and only drops
  /// its events at or below the horizon threshold.
  IngestPlan PlanIngest(const std::vector<Event>& batch) const;

  /// Applies a plan to the events and the indices in one walk: evicts
  /// `plan.num_evict` events from the front, pops every resident not
  /// ordered before the first entering event — the trailing tie group for
  /// an in-order batch — and re-appends it merged with
  /// batch[plan.batch_begin:] (within a shared key, EventTimeLess ties are
  /// broken with older arrivals first, matching a stable sort of the whole
  /// history). The clock never moves back. When `new_positions` is
  /// non-null it receives the final window positions of the entered batch
  /// events, ascending.
  void Apply(const IngestPlan& plan, const std::vector<Event>& batch,
             std::vector<std::size_t>* new_positions = nullptr);

  /// Replaces the window wholesale and builds the indices once, with ids
  /// restarting at zero — the checkpoint-restore path (stream/checkpoint.h).
  /// `events` must be canonically ordered and policy-consistent, and
  /// `max_time_seen`/`saw_any_event` must describe the stream they were
  /// captured from; the decoder validates all of this before calling.
  void Restore(const std::vector<Event>& events, Timestamp max_time_seen,
               bool saw_any_event);

 private:
  void PopFrontEntry(IdList* list, std::uint64_t id);
  void PopBackEntry(IdList* list, std::uint64_t id);
  EdgeCell* MutableEdge(NodeId src, NodeId dst);
  void EraseEdgeIfEmpty(NodeId src, EdgeCell* cell);
  void PopEdgeFront(NodeId src, NodeId dst, std::uint64_t id);
  void PopEdgeBack(NodeId src, NodeId dst, std::uint64_t id);
  /// Appends `e` at the back of the window and of every index.
  void Append(const Event& e);

  // The indices and the events, which every enumeration step reads, come
  // first; the policy and the clock, read once per batch, last.
  /// Id of the event at window position 0 (see first_id()).
  std::uint64_t offset_ = 0;
  /// Per-node incident id lists (grown on demand; nodes whose events all
  /// expired keep an empty list).
  std::vector<IdList> incident_;
  /// Per-source adjacency cells of the live static projection (grown on
  /// demand; cells are erased when their occurrence list drains so
  /// FindEdge stays exact). Cell order within a source is arbitrary.
  std::vector<std::vector<EdgeCell>> adjacency_;
  std::deque<Event> events_;
  WindowPolicy policy_;
  Timestamp max_time_seen_ = 0;
  bool saw_any_event_ = false;
  /// Apply's scratch: the popped residents, in canonical order.
  std::vector<Event> tail_;
};

}  // namespace tmotif

#endif  // TMOTIF_STREAM_WINDOW_GRAPH_H_
