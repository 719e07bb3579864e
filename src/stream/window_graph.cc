#include "stream/window_graph.h"

#include <algorithm>

#include "common/check.h"

namespace tmotif {

namespace {
const WindowGraph::IdList kEmptyIdList;
}  // namespace

WindowGraph::WindowGraph(const StreamWindow* window) : window_(window) {
  TMOTIF_CHECK(window_ != nullptr);
  Reset();
}

WindowGraph::IndexRange WindowGraph::incident(NodeId node) const {
  const IdList* list = &kEmptyIdList;
  if (node >= 0 && static_cast<std::size_t>(node) < incident_.size()) {
    list = &incident_[static_cast<std::size_t>(node)];
  }
  return IndexRange(IndexIterator(list->begin(), offset_, window_),
                    IndexIterator(list->end(), offset_, window_));
}

WindowGraph::EdgeHandle WindowGraph::FindEdge(NodeId src, NodeId dst) const {
  if (src < 0 || static_cast<std::size_t>(src) >= adjacency_.size()) {
    return kNoEdgeHandle;
  }
  for (const EdgeCell& cell : adjacency_[static_cast<std::size_t>(src)]) {
    if (cell.dst == dst) return &cell;
  }
  return kNoEdgeHandle;
}

std::size_t WindowGraph::EdgeLowerRank(EdgeHandle edge, Timestamp t) const {
  return static_cast<std::size_t>(
      std::lower_bound(edge->times.begin(), edge->times.end(), t) -
      edge->times.begin());
}

std::size_t WindowGraph::EdgeUpperRank(EdgeHandle edge, Timestamp t) const {
  return static_cast<std::size_t>(
      std::upper_bound(edge->times.begin(), edge->times.end(), t) -
      edge->times.begin());
}

int WindowGraph::CountEdgeEventsInTimeRange(EdgeHandle edge, Timestamp t_lo,
                                            Timestamp t_hi) const {
  if (t_hi < t_lo) return 0;
  return static_cast<int>(EdgeUpperRank(edge, t_hi) -
                          EdgeLowerRank(edge, t_lo));
}

bool WindowGraph::HasAdjacentEdgeEventInRange(EventIndex c, Timestamp t_lo,
                                              Timestamp t_hi) const {
  const EdgeHandle edge = FindEdge(event_src(c), event_dst(c));
  TMOTIF_CHECK(edge != kNoEdgeHandle);  // c itself lies on the edge.
  const std::uint64_t id = offset_ + static_cast<std::uint64_t>(c);
  const auto it = std::lower_bound(edge->ids.begin(), edge->ids.end(), id);
  const std::size_t rank =
      static_cast<std::size_t>(it - edge->ids.begin());
  return (rank > 0 && edge->times[rank - 1] >= t_lo) ||
         (rank + 1 < edge->ids.size() && edge->times[rank + 1] <= t_hi);
}

std::size_t WindowGraph::NumEdgeEvents(NodeId src, NodeId dst) const {
  const EdgeHandle edge = FindEdge(src, dst);
  return edge == kNoEdgeHandle ? 0 : edge->ids.size();
}

bool WindowGraph::HasIncidentInIndexRange(NodeId node, EventIndex lo,
                                          EventIndex hi) const {
  if (hi <= lo) return false;
  const IndexRange range = incident(node);
  const auto first = std::upper_bound(range.begin(), range.end(), lo);
  return first != range.end() && *first < hi;
}

int WindowGraph::CountEdgeEventsInTimeRange(NodeId src, NodeId dst,
                                            Timestamp t_lo,
                                            Timestamp t_hi) const {
  const EdgeHandle edge = FindEdge(src, dst);
  if (edge == kNoEdgeHandle) return 0;
  return CountEdgeEventsInTimeRange(edge, t_lo, t_hi);
}

int WindowGraph::CountEdgeEventsInIndexRange(NodeId src, NodeId dst,
                                             EventIndex lo,
                                             EventIndex hi) const {
  if (hi <= lo) return 0;
  const EdgeHandle edge = FindEdge(src, dst);
  if (edge == kNoEdgeHandle) return 0;
  // Ids are monotone and position = id - offset, so position bounds map to
  // id bounds directly (negative bounds clamp to the list front: every
  // position is >= 0).
  const IdList& ids = edge->ids;
  const auto first =
      lo < 0 ? ids.begin()
             : std::upper_bound(ids.begin(), ids.end(),
                                offset_ + static_cast<std::uint64_t>(lo));
  const auto last =
      hi < 0 ? ids.begin()
             : std::lower_bound(ids.begin(), ids.end(),
                                offset_ + static_cast<std::uint64_t>(hi));
  return static_cast<int>(last - first);
}

EventIndex WindowGraph::LowerBoundTime(Timestamp t) const {
  const std::deque<Event>& events = window_->events();
  const auto it = std::lower_bound(
      events.begin(), events.end(), t,
      [](const Event& e, Timestamp value) { return e.time < value; });
  return static_cast<EventIndex>(it - events.begin());
}

EventIndex WindowGraph::UpperBoundTime(Timestamp t) const {
  const std::deque<Event>& events = window_->events();
  const auto it = std::upper_bound(
      events.begin(), events.end(), t,
      [](Timestamp value, const Event& e) { return value < e.time; });
  return static_cast<EventIndex>(it - events.begin());
}

void WindowGraph::Reset() {
  offset_ = 0;
  for (std::vector<EdgeCell>& cells : adjacency_) cells.clear();
  for (IdList& list : incident_) list.clear();
  pending_ = false;
  const std::size_t size = window_->size();
  for (std::size_t p = 0; p < size; ++p) {
    AppendEntry(window_->event(p), static_cast<std::uint64_t>(p));
  }
}

void WindowGraph::PopFrontEntry(IdList* list, std::uint64_t id) {
  TMOTIF_CHECK(!list->empty() && list->front() == id);
  list->pop_front();
}

void WindowGraph::PopBackEntry(IdList* list, std::uint64_t id) {
  TMOTIF_CHECK(!list->empty() && list->back() == id);
  list->pop_back();
}

WindowGraph::EdgeCell* WindowGraph::MutableEdge(NodeId src, NodeId dst) {
  TMOTIF_CHECK(src >= 0 && static_cast<std::size_t>(src) < adjacency_.size());
  for (EdgeCell& cell : adjacency_[static_cast<std::size_t>(src)]) {
    if (cell.dst == dst) return &cell;
  }
  return nullptr;
}

void WindowGraph::EraseEdgeIfEmpty(NodeId src, EdgeCell* cell) {
  if (!cell->ids.empty()) return;
  std::vector<EdgeCell>& cells = adjacency_[static_cast<std::size_t>(src)];
  // Order within a source is arbitrary: swap-remove (guarding against the
  // self-move when the drained cell already sits at the back).
  if (cell != &cells.back()) *cell = std::move(cells.back());
  cells.pop_back();
}

void WindowGraph::PopEdgeFront(NodeId src, NodeId dst, std::uint64_t id) {
  EdgeCell* cell = MutableEdge(src, dst);
  TMOTIF_CHECK(cell != nullptr);
  PopFrontEntry(&cell->ids, id);
  cell->times.pop_front();
  EraseEdgeIfEmpty(src, cell);
}

void WindowGraph::PopEdgeBack(NodeId src, NodeId dst, std::uint64_t id) {
  EdgeCell* cell = MutableEdge(src, dst);
  TMOTIF_CHECK(cell != nullptr);
  PopBackEntry(&cell->ids, id);
  cell->times.pop_back();
  EraseEdgeIfEmpty(src, cell);
}

void WindowGraph::AppendEntry(const Event& e, std::uint64_t id) {
  const std::size_t needed =
      static_cast<std::size_t>(std::max(e.src, e.dst)) + 1;
  if (incident_.size() < needed) incident_.resize(needed);
  if (adjacency_.size() < needed) adjacency_.resize(needed);
  incident_[static_cast<std::size_t>(e.src)].push_back(id);
  incident_[static_cast<std::size_t>(e.dst)].push_back(id);
  EdgeCell* cell = MutableEdge(e.src, e.dst);
  if (cell == nullptr) {
    adjacency_[static_cast<std::size_t>(e.src)].emplace_back();
    cell = &adjacency_[static_cast<std::size_t>(e.src)].back();
    cell->dst = e.dst;
  }
  cell->ids.push_back(id);
  cell->times.push_back(e.time);
}

void WindowGraph::BeginUpdate(const IngestPlan& plan,
                              const std::vector<Event>& batch) {
  TMOTIF_CHECK(!pending_);
  const std::size_t old_size = window_->size();
  TMOTIF_CHECK(plan.num_evict <= old_size);

  // Evict the canonical prefix: every evicted id fronts each list it
  // appears in (ids ascend within every list).
  for (std::size_t p = 0; p < plan.num_evict; ++p) {
    const Event& e = window_->event(p);
    const std::uint64_t id = offset_ + p;
    PopFrontEntry(&incident_[static_cast<std::size_t>(e.src)], id);
    PopFrontEntry(&incident_[static_cast<std::size_t>(e.dst)], id);
    PopEdgeFront(e.src, e.dst, id);
  }

  // Pop every resident the merge renumbers (every event not strictly
  // before the first entering batch event: the trailing tie group of an
  // in-order batch). Walking backwards keeps each popped id at the back of
  // its lists.
  std::size_t keep_end = old_size;
  if (plan.batch_begin < batch.size()) {
    const Event& first_new = batch[plan.batch_begin];
    while (keep_end > plan.num_evict &&
           !EventTimeLess(window_->event(keep_end - 1), first_new)) {
      const Event& e = window_->event(keep_end - 1);
      const std::uint64_t id = offset_ + (keep_end - 1);
      PopBackEntry(&incident_[static_cast<std::size_t>(e.src)], id);
      PopBackEntry(&incident_[static_cast<std::size_t>(e.dst)], id);
      PopEdgeBack(e.src, e.dst, id);
      --keep_end;
    }
  }

  offset_ += plan.num_evict;
  append_from_ = keep_end - plan.num_evict;
  pending_ = true;
}

void WindowGraph::FinishUpdate() {
  TMOTIF_CHECK(pending_);
  const std::size_t size = window_->size();
  for (std::size_t p = append_from_; p < size; ++p) {
    AppendEntry(window_->event(p), offset_ + p);
  }
  pending_ = false;
}

}  // namespace tmotif
