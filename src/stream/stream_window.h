#ifndef TMOTIF_STREAM_STREAM_WINDOW_H_
#define TMOTIF_STREAM_STREAM_WINDOW_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

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

/// A sliding window over an event stream, kept in the same canonical order
/// as `TemporalGraphBuilder::Build` (EventTimeLess with stable ties, older
/// arrivals first). Every batch merges into canonical position (an
/// in-order batch behind the trailing tie group, a late one wherever its
/// times fall) and eviction always removes a canonical prefix, so the
/// window is at every point exactly the policy-selected suffix of the
/// canonically sorted stream history — a graph built from `events()`
/// equals the graph built from scratch on the same event set (the
/// invariant the streaming counter's differential tests assert).
class StreamWindow {
 public:
  explicit StreamWindow(const WindowPolicy& policy);

  const WindowPolicy& policy() const { return policy_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const std::deque<Event>& events() const { return events_; }
  const Event& event(std::size_t i) const { return events_[i]; }

  /// Largest timestamp ever ingested (not just in the current window);
  /// 0 before the first event. Time-based eviction measures from here.
  Timestamp max_time_seen() const { return max_time_seen_; }
  /// Whether max_time_seen() is meaningful (streams may live in negative
  /// time, so the zero default cannot distinguish "no events yet").
  bool saw_any_event() const { return saw_any_event_; }

  /// Computes the policy's response to `batch` (sorted by EventTimeLess)
  /// without applying it. Count-based windows evict the merged canonical
  /// prefix — batch events falling inside it are dropped via
  /// `batch_begin`, exactly as if they had arrived and already expired.
  /// Time-based windows measure from the clock the batch leaves
  /// (max_time_seen() or its newest time); a late batch (every time below
  /// max_time_seen()) moves no clock, so it evicts nothing and only drops
  /// its events at or below the horizon threshold.
  IngestPlan PlanIngest(const std::vector<Event>& batch) const;

  /// Applies a plan: evicts `plan.num_evict` events from the front and
  /// merges batch[plan.batch_begin:] into canonical position. The merge
  /// pops every resident not ordered before the first entering event — the
  /// trailing tie group for an in-order batch — and pushes the merged run
  /// back (within a shared key, EventTimeLess ties are broken with older
  /// arrivals first, matching stable sort of the whole history). The clock
  /// never moves back. When `new_positions` is non-null it receives the
  /// final window positions of the entered batch events, ascending.
  void Apply(const IngestPlan& plan, const std::vector<Event>& batch,
             std::vector<std::size_t>* new_positions = nullptr);

  /// Drops every event (the policy and max_time_seen are kept).
  void Clear();

  /// Replaces the window contents wholesale — the checkpoint-restore path
  /// (stream/checkpoint.h). `events` must be canonically ordered and
  /// policy-consistent, and `max_time_seen`/`saw_any_event` must describe
  /// the stream they were captured from; the decoder validates all of this
  /// before calling.
  void Restore(const std::vector<Event>& events, Timestamp max_time_seen,
               bool saw_any_event);

 private:
  WindowPolicy policy_;
  std::deque<Event> events_;
  Timestamp max_time_seen_ = 0;
  bool saw_any_event_ = false;
};

}  // namespace tmotif

#endif  // TMOTIF_STREAM_STREAM_WINDOW_H_
