#include "stream/window_graph.h"

#include <algorithm>

#include "common/check.h"

namespace tmotif {

namespace {
const WindowGraph::IdList kEmptyIdList;
}  // namespace

WindowPolicy WindowPolicy::CountBased(std::int64_t max_events) {
  TMOTIF_CHECK_MSG(max_events >= 1, "count-based window needs capacity >= 1");
  WindowPolicy policy;
  policy.kind = WindowPolicyKind::kCountBased;
  policy.max_events = max_events;
  return policy;
}

WindowPolicy WindowPolicy::TimeBased(Timestamp horizon) {
  TMOTIF_CHECK_MSG(horizon >= 1, "time-based window needs horizon >= 1s");
  WindowPolicy policy;
  policy.kind = WindowPolicyKind::kTimeBased;
  policy.horizon = horizon;
  return policy;
}

std::string WindowPolicy::ToString() const {
  if (kind == WindowPolicyKind::kCountBased) {
    return "last " + std::to_string(max_events) + " events";
  }
  return "last " + std::to_string(horizon) + "s";
}

WindowGraph::WindowGraph(const WindowPolicy& policy) : policy_(policy) {
  if (policy_.kind == WindowPolicyKind::kCountBased) {
    TMOTIF_CHECK(policy_.max_events >= 1);
  } else {
    TMOTIF_CHECK(policy_.horizon >= 1);
  }
}

WindowGraph::IndexRange WindowGraph::incident(NodeId node) const {
  const IdList* list = &kEmptyIdList;
  if (node >= 0 && static_cast<std::size_t>(node) < incident_.size()) {
    list = &incident_[static_cast<std::size_t>(node)];
  }
  return IndexRange(IndexIterator(list->begin(), offset_, &events_),
                    IndexIterator(list->end(), offset_, &events_));
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

EventIndex WindowGraph::LowerBoundTime(Timestamp t) const {
  const auto it = std::lower_bound(
      events_.begin(), events_.end(), t,
      [](const Event& e, Timestamp value) { return e.time < value; });
  return static_cast<EventIndex>(it - events_.begin());
}

EventIndex WindowGraph::UpperBoundTime(Timestamp t) const {
  const auto it = std::upper_bound(
      events_.begin(), events_.end(), t,
      [](Timestamp value, const Event& e) { return value < e.time; });
  return static_cast<EventIndex>(it - events_.begin());
}

IngestPlan WindowGraph::PlanIngest(const std::vector<Event>& batch) const {
  IngestPlan plan;
  if (batch.empty()) return plan;
  TMOTIF_CHECK_MSG(std::is_sorted(batch.begin(), batch.end(), EventTimeLess),
                   "streaming ingest requires canonically sorted batches");

  if (policy_.kind == WindowPolicyKind::kCountBased) {
    const std::size_t cap = static_cast<std::size_t>(policy_.max_events);
    const std::size_t total = events_.size() + batch.size();
    if (total <= cap) return plan;
    // The window must end as the last `cap` events of the *merged*
    // canonical sequence. Both sides are sorted, so the overflow is a
    // prefix of each: walk the merge (ties prefer the window side, exactly
    // as Apply merges) and split the first `total - cap` steps.
    std::size_t overflow = total - cap;
    while (overflow > 0) {
      if (plan.num_evict < events_.size() &&
          (plan.batch_begin >= batch.size() ||
           !EventTimeLess(batch[plan.batch_begin], events_[plan.num_evict]))) {
        ++plan.num_evict;
      } else {
        ++plan.batch_begin;
      }
      --overflow;
    }
    return plan;
  }

  // Before any event, the stream clock is the batch itself (timestamps may
  // be negative; a zero-initialized clock must not win the max).
  const Timestamp t_latest = saw_any_event_
                                 ? std::max(max_time_seen_, batch.back().time)
                                 : batch.back().time;
  const Timestamp threshold = SatSub(t_latest, policy_.horizon);
  // Keep events with time > threshold; both the window and the batch are
  // sorted by time, so the cut points are binary searches.
  plan.num_evict = static_cast<std::size_t>(UpperBoundTime(threshold));
  plan.batch_begin = static_cast<std::size_t>(
      std::upper_bound(batch.begin(), batch.end(), threshold,
                       [](Timestamp t, const Event& e) { return t < e.time; }) -
      batch.begin());
  return plan;
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

void WindowGraph::Append(const Event& e) {
  const std::uint64_t id = offset_ + events_.size();
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
  events_.push_back(e);
}

void WindowGraph::Apply(const IngestPlan& plan,
                        const std::vector<Event>& batch,
                        std::vector<std::size_t>* new_positions) {
  TMOTIF_CHECK(plan.num_evict <= events_.size());
  TMOTIF_CHECK(plan.batch_begin <= batch.size());
  if (new_positions != nullptr) new_positions->clear();

  // Evict the canonical prefix: every evicted id fronts each list it
  // appears in (ids ascend within every list), and the survivors keep
  // their ids while first_id() moves past the evicted ones.
  for (std::size_t i = 0; i < plan.num_evict; ++i) {
    const Event& e = events_.front();
    PopFrontEntry(&incident_[static_cast<std::size_t>(e.src)], offset_);
    PopFrontEntry(&incident_[static_cast<std::size_t>(e.dst)], offset_);
    PopEdgeFront(e.src, e.dst, offset_);
    events_.pop_front();
    ++offset_;
  }
  if (!batch.empty()) {
    max_time_seen_ = saw_any_event_
                         ? std::max(max_time_seen_, batch.back().time)
                         : batch.back().time;
    saw_any_event_ = true;
  }
  if (plan.batch_begin >= batch.size()) return;

  // Residents ordered before the first entering event keep their
  // positions. Pop the rest (for an in-order batch, the trailing tie
  // group); walking backwards keeps each popped id at the back of its
  // lists.
  const Event& first_new = batch[plan.batch_begin];
  tail_.clear();
  while (!events_.empty() && !EventTimeLess(events_.back(), first_new)) {
    const Event& e = events_.back();
    const std::uint64_t id = offset_ + events_.size() - 1;
    PopBackEntry(&incident_[static_cast<std::size_t>(e.src)], id);
    PopBackEntry(&incident_[static_cast<std::size_t>(e.dst)], id);
    PopEdgeBack(e.src, e.dst, id);
    tail_.push_back(e);
    events_.pop_back();
  }
  std::reverse(tail_.begin(), tail_.end());

  // Merge and re-append; ties prefer the window side (older arrivals
  // first, matching a stable sort of the whole history).
  std::size_t old_it = 0;
  std::size_t new_it = plan.batch_begin;
  while (old_it < tail_.size() || new_it < batch.size()) {
    if (old_it < tail_.size() &&
        (new_it >= batch.size() ||
         !EventTimeLess(batch[new_it], tail_[old_it]))) {
      Append(tail_[old_it++]);
    } else {
      if (new_positions != nullptr) new_positions->push_back(events_.size());
      Append(batch[new_it++]);
    }
  }
}

void WindowGraph::Restore(const std::vector<Event>& events,
                          Timestamp max_time_seen, bool saw_any_event) {
  events_.clear();
  offset_ = 0;
  for (std::vector<EdgeCell>& cells : adjacency_) cells.clear();
  for (IdList& list : incident_) list.clear();
  for (const Event& e : events) Append(e);
  max_time_seen_ = max_time_seen;
  saw_any_event_ = saw_any_event;
}

}  // namespace tmotif
