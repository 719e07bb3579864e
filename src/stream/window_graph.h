#ifndef TMOTIF_STREAM_WINDOW_GRAPH_H_
#define TMOTIF_STREAM_WINDOW_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <vector>

#include "common/types.h"
#include "graph/event.h"
#include "stream/stream_window.h"

namespace tmotif {

/// Incrementally maintained per-node / per-edge indices over a
/// `StreamWindow` — the streaming counterpart of `TemporalGraph`'s CSR
/// indices, exposing the accessor subset the devirtualized enumeration core
/// (core/enumerate_core.h) needs, so the delta path counts directly on the
/// live window without rebuilding a graph per batch.
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
/// always has id `offset_ + p`, where `offset_` advances by the number of
/// evicted events. Evicting the canonical prefix therefore renumbers
/// nothing (ids stay put, `offset_` moves), and appends assign fresh
/// contiguous ids. The one wrinkle is the merge: an entering event shifts
/// the positions of every resident ordered after it — for an in-order
/// batch only the window's final shared-timestamp run (the EventTimeLess
/// tiebreak orders by endpoints), for a late one everything newer than it.
/// `BeginUpdate` pops those residents' entries (they are the tail of every
/// list they appear in) and `FinishUpdate` re-appends the merged tail, so
/// each batch costs O(evicted + popped + entered) index operations — never
/// O(window) for an in-order batch.
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
  /// mutation (Reset / BeginUpdate / FinishUpdate) — the enumeration core
  /// resolves and uses handles strictly within one enumeration pass over a
  /// quiescent graph.
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
                  const StreamWindow* window)
        : it_(it), offset_(offset), window_(window) {}

    EventIndex operator*() const {
      return static_cast<EventIndex>(*it_ - offset_);
    }
    EventIndex operator[](difference_type n) const {
      return static_cast<EventIndex>(it_[n] - offset_);
    }
    /// Hot fields of the fronted event (same surface as
    /// TemporalGraph::IncidentIterator; resolved through the backing window
    /// — the streaming side has no inlined mirror).
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
      return window_->event(static_cast<std::size_t>(*it_ - offset_));
    }

    IdList::const_iterator it_{};
    std::uint64_t offset_ = 0;
    const StreamWindow* window_ = nullptr;
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

  /// `window` must outlive this graph; the graph mirrors it via
  /// Reset / BeginUpdate / FinishUpdate.
  explicit WindowGraph(const StreamWindow* window);

  // --- TemporalGraph-compatible accessor subset (enumeration core). ---
  EventIndex num_events() const {
    return static_cast<EventIndex>(window_->size());
  }
  const Event& event(EventIndex i) const {
    return window_->event(static_cast<std::size_t>(i));
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

  bool HasStaticEdge(NodeId src, NodeId dst) const {
    return FindEdge(src, dst) != kNoEdgeHandle;
  }
  /// Occurrence count of the directed static edge in the current window.
  std::size_t NumEdgeEvents(NodeId src, NodeId dst) const;

  bool HasIncidentInIndexRange(NodeId node, EventIndex lo,
                               EventIndex hi) const;
  int CountEdgeEventsInTimeRange(NodeId src, NodeId dst, Timestamp t_lo,
                                 Timestamp t_hi) const;
  /// Occurrence count of edge (src, dst) with window position strictly
  /// inside (lo, hi) — the index-range sibling, mirroring TemporalGraph.
  int CountEdgeEventsInIndexRange(NodeId src, NodeId dst, EventIndex lo,
                                  EventIndex hi) const;

  /// First window position with time >= t / > t (num_events() when none).
  EventIndex LowerBoundTime(Timestamp t) const;
  EventIndex UpperBoundTime(Timestamp t) const;

  // --- Incremental maintenance. ---

  /// Rebuilds every index from the backing window in O(window). Used at
  /// construction and by the full-recount fallbacks.
  void Reset();

  /// Pre-Apply half of a batch update: must be called with the same plan
  /// and sorted batch that will be passed to StreamWindow::Apply, *before*
  /// Apply mutates the window. Evicts the canonical prefix and pops every
  /// resident the merge renumbers (not ordered before the first entering
  /// event).
  void BeginUpdate(const IngestPlan& plan, const std::vector<Event>& batch);

  /// Post-Apply half: re-appends the merged tail (renumbered residents +
  /// entered batch events) from the updated window.
  void FinishUpdate();

 private:
  void PopFrontEntry(IdList* list, std::uint64_t id);
  void PopBackEntry(IdList* list, std::uint64_t id);
  EdgeCell* MutableEdge(NodeId src, NodeId dst);
  void EraseEdgeIfEmpty(NodeId src, EdgeCell* cell);
  void PopEdgeFront(NodeId src, NodeId dst, std::uint64_t id);
  void PopEdgeBack(NodeId src, NodeId dst, std::uint64_t id);
  void AppendEntry(const Event& e, std::uint64_t id);

  const StreamWindow* window_;
  /// Id of the event at window position 0 (total evictions so far).
  std::uint64_t offset_ = 0;
  /// Per-node incident id lists (grown on demand; nodes whose events all
  /// expired keep an empty list).
  std::vector<IdList> incident_;
  /// Per-source adjacency cells of the live static projection (grown on
  /// demand; cells are erased when their occurrence list drains so
  /// HasStaticEdge stays exact). Cell order within a source is arbitrary.
  std::vector<std::vector<EdgeCell>> adjacency_;
  /// Between BeginUpdate and FinishUpdate: first post-Apply position whose
  /// index entries must be (re-)appended.
  std::size_t append_from_ = 0;
  bool pending_ = false;
};

}  // namespace tmotif

#endif  // TMOTIF_STREAM_WINDOW_GRAPH_H_
