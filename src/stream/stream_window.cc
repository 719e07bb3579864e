#include "stream/stream_window.h"

#include <algorithm>

#include "common/check.h"

namespace tmotif {

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

StreamWindow::StreamWindow(const WindowPolicy& policy) : policy_(policy) {
  if (policy_.kind == WindowPolicyKind::kCountBased) {
    TMOTIF_CHECK(policy_.max_events >= 1);
  } else {
    TMOTIF_CHECK(policy_.horizon >= 1);
  }
}

IngestPlan StreamWindow::PlanIngest(const std::vector<Event>& batch) const {
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
  plan.num_evict = static_cast<std::size_t>(
      std::upper_bound(events_.begin(), events_.end(), threshold,
                       [](Timestamp t, const Event& e) { return t < e.time; }) -
      events_.begin());
  plan.batch_begin = static_cast<std::size_t>(
      std::upper_bound(batch.begin(), batch.end(), threshold,
                       [](Timestamp t, const Event& e) { return t < e.time; }) -
      batch.begin());
  return plan;
}

void StreamWindow::Apply(const IngestPlan& plan,
                         const std::vector<Event>& batch,
                         std::vector<std::size_t>* new_positions) {
  TMOTIF_CHECK(plan.num_evict <= events_.size());
  TMOTIF_CHECK(plan.batch_begin <= batch.size());
  if (new_positions != nullptr) new_positions->clear();
  events_.erase(events_.begin(),
                events_.begin() + static_cast<std::ptrdiff_t>(plan.num_evict));
  if (!batch.empty()) {
    max_time_seen_ = saw_any_event_
                         ? std::max(max_time_seen_, batch.back().time)
                         : batch.back().time;
    saw_any_event_ = true;
  }
  if (plan.batch_begin >= batch.size()) return;

  // Residents ordered before the first entering event keep their
  // positions. Pull off the rest (for an in-order batch, the trailing tie
  // group), merge (ties prefer the window side = older arrivals, matching
  // a stable sort of the whole history), and push the merged tail back.
  const Event& first_new = batch[plan.batch_begin];
  std::vector<Event> tail;
  while (!events_.empty() && !EventTimeLess(events_.back(), first_new)) {
    tail.push_back(events_.back());
    events_.pop_back();
  }
  std::reverse(tail.begin(), tail.end());
  std::size_t position = events_.size();
  std::size_t old_it = 0;
  std::size_t new_it = plan.batch_begin;
  while (old_it < tail.size() || new_it < batch.size()) {
    // Ties prefer the window side (older arrivals first).
    if (old_it < tail.size() &&
        (new_it >= batch.size() || !EventTimeLess(batch[new_it], tail[old_it]))) {
      events_.push_back(tail[old_it++]);
    } else {
      if (new_positions != nullptr) new_positions->push_back(position);
      events_.push_back(batch[new_it++]);
    }
    ++position;
  }
}

void StreamWindow::Clear() { events_.clear(); }

void StreamWindow::Restore(const std::vector<Event>& events,
                           Timestamp max_time_seen, bool saw_any_event) {
  events_.assign(events.begin(), events.end());
  max_time_seen_ = max_time_seen;
  saw_any_event_ = saw_any_event;
}

}  // namespace tmotif
