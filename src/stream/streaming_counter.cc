#include "stream/streaming_counter.h"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_set>

#include "common/check.h"
#include "common/fault_points.h"
#include "core/enumerate_core.h"
#include "core/fast_paths/fast_path.h"
#include "core/packed_table.h"
#include "core/parallel.h"
#include "obs/trace.h"

namespace tmotif {

namespace {

/// Cached registry handles for the streaming instrumentation. Looked up
/// once per process; the increments themselves are relaxed atomic adds.
struct StreamMetrics {
  // Whole-batch + per-phase latency histograms (nanoseconds).
  obs::Histogram* ingest_latency;
  obs::Histogram* phase1_retract;
  obs::Histogram* phase2_evict_tie;
  obs::Histogram* phase3_append_tie;
  obs::Histogram* phase4_apply;
  obs::Histogram* phase5_append_add;
  obs::Histogram* phase6_arrivals;
  obs::Histogram* store_flips;
  obs::Histogram* splice_apply;
  obs::Histogram* late_ingest;
  obs::Histogram* recount;
  /// Batch sizes (events per Ingest call).
  obs::Histogram* batch_events;
  // Point-in-time window/store levels, refreshed once per batch.
  obs::Gauge* window_events;
  obs::Gauge* store_entries;
  obs::Gauge* store_bytes;
  /// Store state (StoreMode numeric value: 0 store on, 2 store off).
  obs::Gauge* store_mode;
  // One counter per IngestStats field (mirrored as deltas per batch).
  obs::Counter* batches;
  obs::Counter* events_ingested;
  obs::Counter* events_dropped;
  obs::Counter* events_evicted;
  obs::Counter* instances_added;
  obs::Counter* instances_retracted;
  obs::Counter* tie_corrections;
  obs::Counter* full_recounts;
  obs::Counter* static_fallbacks;
  obs::Counter* scoped_static_recounts;
  obs::Counter* scoped_recount_roots;
  obs::Counter* store_flip_batches;
  obs::Counter* store_entries_touched;
  obs::Counter* store_admitted;
  obs::Counter* store_retired;
  obs::Counter* store_order_rechecks;
  obs::Counter* store_demotions_recount;
  obs::Counter* store_promotions_full;
  /// Mirrors LiveInstanceStore::compactions() (not an IngestStats field).
  obs::Counter* store_compactions;
  obs::Counter* late_events;
  obs::Counter* late_dropped;
  obs::Counter* late_splices;
  obs::Counter* late_recounts;

  static StreamMetrics& Get() {
    static StreamMetrics m = [] {
      obs::MetricsRegistry& r = obs::GlobalMetrics();
      StreamMetrics n;
      n.ingest_latency = r.GetHistogram("stream.ingest_latency_ns");
      n.phase1_retract = r.GetHistogram("stream.phase1_retract_latency_ns");
      n.phase2_evict_tie =
          r.GetHistogram("stream.phase2_evict_tie_latency_ns");
      n.phase3_append_tie =
          r.GetHistogram("stream.phase3_append_tie_latency_ns");
      n.phase4_apply = r.GetHistogram("stream.phase4_apply_latency_ns");
      n.phase5_append_add =
          r.GetHistogram("stream.phase5_append_add_latency_ns");
      n.phase6_arrivals =
          r.GetHistogram("stream.phase6_arrivals_latency_ns");
      n.store_flips = r.GetHistogram("stream.store_flips_latency_ns");
      n.splice_apply = r.GetHistogram("stream.splice_apply_latency_ns");
      n.late_ingest = r.GetHistogram("stream.late_ingest_latency_ns");
      n.recount = r.GetHistogram("stream.recount_latency_ns");
      n.batch_events = r.GetHistogram("stream.batch_events");
      n.window_events = r.GetGauge("stream.window_events");
      n.store_entries = r.GetGauge("stream.store_entries");
      n.store_bytes = r.GetGauge("stream.store_bytes");
      n.store_mode = r.GetGauge("stream.store_mode");
      n.batches = r.GetCounter("stream.batches");
      n.events_ingested = r.GetCounter("stream.events_ingested");
      n.events_dropped = r.GetCounter("stream.events_dropped");
      n.events_evicted = r.GetCounter("stream.events_evicted");
      n.instances_added = r.GetCounter("stream.instances_added");
      n.instances_retracted = r.GetCounter("stream.instances_retracted");
      n.tie_corrections = r.GetCounter("stream.tie_corrections");
      n.full_recounts = r.GetCounter("stream.full_recounts");
      n.static_fallbacks = r.GetCounter("stream.static_fallbacks");
      n.scoped_static_recounts =
          r.GetCounter("stream.scoped_static_recounts");
      n.scoped_recount_roots = r.GetCounter("stream.scoped_recount_roots");
      n.store_flip_batches = r.GetCounter("stream.store_flip_batches");
      n.store_entries_touched =
          r.GetCounter("stream.store_entries_touched");
      n.store_admitted = r.GetCounter("stream.store_admitted");
      n.store_retired = r.GetCounter("stream.store_retired");
      n.store_order_rechecks = r.GetCounter("stream.store_order_rechecks");
      n.store_demotions_recount =
          r.GetCounter("stream.store_demotions_recount");
      n.store_promotions_full = r.GetCounter("stream.store_promotions_full");
      n.store_compactions = r.GetCounter("stream.store_compactions");
      n.late_events = r.GetCounter("stream.late_events");
      n.late_dropped = r.GetCounter("stream.late_dropped");
      n.late_splices = r.GetCounter("stream.late_splices");
      n.late_recounts = r.GetCounter("stream.late_recounts");
      return n;
    }();
    return m;
  }
};

/// First event position from which an instance whose last event is at or
/// after `last_time` can start (0 when timing imposes no timespan bound).
EventIndex FirstPossibleStart(const WindowGraph& graph, Timestamp last_time,
                              const std::optional<Timestamp>& span) {
  if (!span.has_value()) return 0;
  return graph.LowerBoundTime(SaturatingSubtract(last_time, *span));
}

/// Sink forwarding the full instance-identity emit (event indices + digit
/// node assignment) to a lambda — the store-population shape
/// (internal::MakeFnSink drops the node arguments).
template <typename Fn>
struct NodeFnSink {
  Fn fn;
  void Emit(const EventIndex* chosen, int num_events, std::uint64_t packed,
            const NodeId* nodes, int num_nodes) {
    fn(chosen, num_events, packed, nodes, num_nodes);
  }
};

template <typename Fn>
NodeFnSink<Fn> MakeNodeFnSink(Fn fn) {
  return NodeFnSink<Fn>{std::move(fn)};
}

/// Directed static edges among `nodes[0..num_nodes)` in the current window
/// — the scope side of the static coverage check, recomputed on demand
/// (num_nodes <= 9, so at most 72 O(out-degree) lookups; typically 6).
int ScopeStaticEdges(const WindowGraph& graph, const NodeId* nodes,
                     int num_nodes) {
  int count = 0;
  for (int a = 0; a < num_nodes; ++a) {
    for (int b = 0; b < num_nodes; ++b) {
      if (a == b) continue;
      if (graph.FindEdge(nodes[a], nodes[b]) != WindowGraph::kNoEdgeHandle) {
        ++count;
      }
    }
  }
  return count;
}

/// Subtract-half of the append-side boundary correction: removes survivors
/// whose last event timestamp equals `t_b`, evaluated on the survivors
/// (the evicted prefix has already left `graph`, the arrivals not yet
/// entered it).
void SubtractAppendTies(const WindowGraph& graph,
                        const EnumerationOptions& options, EventIndex lo,
                        Timestamp t_b, MotifCounts* counts) {
  internal::PackedMotifTable table;
  auto sink = internal::MakeFnSink(
      [&](const EventIndex* chosen, int k, std::uint64_t packed) {
        if (graph.event_time(chosen[k - 1]) == t_b) table.Add(packed);
      });
  internal::EnumerateCore(graph, options, lo, graph.num_events(), sink);
  counts->SubtractTable(table);
}

/// The counted-set changes of one store pass: entries whose cached verdicts
/// moved them into or out of the counts.
struct CountedChanges {
  internal::PackedMotifTable admitted;
  internal::PackedMotifTable retired;

  /// Re-derives `entry.counted` from its cached verdicts; records a change.
  void Update(LiveInstanceStore* store, LiveInstanceStore::Entry& entry) {
    const bool counted = entry.covered && entry.order_valid;
    if (counted == entry.counted) return;
    entry.counted = counted;
    store->NoteCountedChange(counted);
    (counted ? admitted : retired).Add(entry.packed);
  }

  /// Folds the changes into `counts` and the admitted/retired stats.
  void Apply(MotifCounts* counts, IngestStats* stats) const {
    stats->store_admitted += admitted.total();
    stats->store_retired += retired.total();
    counts->AddTable(admitted);
    counts->SubtractTable(retired);
  }
};

/// Sink of the arrival path: keeps instances whose last event entered with
/// the current batch.
struct NewInstanceSink {
  const std::vector<char>* is_new;
  internal::PackedMotifTable* table;
  void Emit(const EventIndex* chosen, int k, std::uint64_t packed,
            const NodeId*, int) {
    if (!(*is_new)[static_cast<std::size_t>(chosen[k - 1])]) return;
    table->Add(packed);
  }
};

/// Incident-entry scan budget of one scoped-correction root collection: a few
/// multiples of the window (a full recount visits every window event, so a
/// ball search costing much more than that has lost already). The floor
/// keeps tiny windows from starving the search.
std::int64_t ScopedWorkBudget(std::size_t window_size) {
  return std::max<std::int64_t>(256,
                                4 * static_cast<std::int64_t>(window_size));
}

/// True when the instance's node set contains both endpoints of at least
/// one flipped pair — the exact "affected by a static-edge flip" predicate
/// (static inducedness reads HasStaticEdge only on intra-instance pairs).
bool InstanceSpansFlippedPair(
    const WindowGraph& graph, const EventIndex* chosen, int k,
    const std::vector<std::pair<NodeId, NodeId>>& flips) {
  NodeId nodes[2 * internal::kMaxCoreEvents];
  int num_nodes = 0;
  for (int i = 0; i < k; ++i) {
    for (const NodeId n : {graph.event_src(chosen[i]),
                           graph.event_dst(chosen[i])}) {
      bool seen = false;
      for (int j = 0; j < num_nodes; ++j) {
        if (nodes[j] == n) {
          seen = true;
          break;
        }
      }
      if (!seen) nodes[num_nodes++] = n;
    }
  }
  for (const auto& [u, v] : flips) {
    bool has_u = false;
    bool has_v = false;
    for (int j = 0; j < num_nodes; ++j) {
      has_u = has_u || nodes[j] == u;
      has_v = has_v || nodes[j] == v;
    }
    if (has_u && has_v) return true;
  }
  return false;
}

/// Nodes within undirected hop distance `radius` of `center` over the
/// window's incident event lists (the instance-connectivity relation).
/// `work_budget` bounds the incident entries scanned (shared across calls,
/// decremented in place); returns false — with the ball left partial — when
/// the budget runs out, signalling the caller to fall back.
bool CollectBall(const WindowGraph& graph, NodeId center, int radius,
                 std::int64_t* work_budget, std::unordered_set<NodeId>* out) {
  out->clear();
  out->insert(center);
  std::vector<NodeId> frontier{center};
  for (int hop = 0; hop < radius && !frontier.empty(); ++hop) {
    std::vector<NodeId> next;
    for (const NodeId node : frontier) {
      const auto incident = graph.incident(node);
      *work_budget -= static_cast<std::int64_t>(incident.size());
      if (*work_budget < 0) return false;
      for (const EventIndex idx : incident) {
        const NodeId src = graph.event_src(idx);
        const NodeId other = src == node ? graph.event_dst(idx) : src;
        if (out->insert(other).second) next.push_back(other);
      }
    }
    frontier = std::move(next);
  }
  return true;
}

/// First-event candidates (within [first_begin, first_end)) of instances
/// whose node set can contain both `u` and `v`: an instance spanning the
/// pair keeps every node — in particular its first event's endpoints —
/// within hop distance `radius` of *each* endpoint, so roots are events
/// with both endpoints inside the intersected balls. Returns false when
/// `work_budget` runs out.
bool AppendScopedRoots(const WindowGraph& graph, NodeId u, NodeId v,
                       int radius, EventIndex first_begin,
                       EventIndex first_end, std::int64_t* work_budget,
                       std::vector<EventIndex>* roots) {
  std::unordered_set<NodeId> ball_u;
  std::unordered_set<NodeId> ball_v;
  if (!CollectBall(graph, u, radius, work_budget, &ball_u) ||
      !CollectBall(graph, v, radius, work_budget, &ball_v)) {
    return false;
  }
  const std::unordered_set<NodeId>& small =
      ball_u.size() <= ball_v.size() ? ball_u : ball_v;
  const std::unordered_set<NodeId>& large =
      ball_u.size() <= ball_v.size() ? ball_v : ball_u;
  const auto in_both = [&](NodeId n) {
    return small.count(n) != 0 && large.count(n) != 0;
  };
  for (const NodeId node : small) {
    if (large.count(node) == 0) continue;
    const auto incident = graph.incident(node);
    *work_budget -= static_cast<std::int64_t>(incident.size());
    if (*work_budget < 0) return false;
    for (const EventIndex idx : incident) {
      if (idx < first_begin || idx >= first_end) continue;
      const NodeId src = graph.event_src(idx);
      const NodeId other = src == node ? graph.event_dst(idx) : src;
      // Dedupe events whose both endpoints are in the intersection by
      // emitting them from their source endpoint only.
      if (src != node && in_both(src)) continue;
      if (in_both(other)) roots->push_back(idx);
    }
  }
  return true;
}

}  // namespace

struct StreamingMotifCounter::DeltaScratch {
  DeltaScratch(const WindowGraph& live, const EnumerationOptions& options) {
    if (internal::fast_paths::FastPathSupported(options)) {
      fast.emplace(live, options);
    }
  }

  /// The fast-path counter over the live window (engaged iff the options
  /// dispatch to the fast paths) and its window-difference accumulator.
  std::optional<internal::fast_paths::WindowCounter<WindowGraph>> fast;
  internal::fast_paths::CodeDeltas deltas;
  /// (directed node-pair key, +1 entering / -1 leaving) per event of a
  /// batch's edge delta, and the resulting flip list.
  std::vector<std::pair<std::uint64_t, int>> edge_deltas;
  std::vector<std::pair<NodeId, NodeId>> flips;
};

StreamingMotifCounter::StreamingMotifCounter(const StreamConfig& config)
    : config_(config), window_(config.window), live_(&window_) {
  TMOTIF_CHECK_MSG(config_.options.max_instances == 0,
                   "max_instances is not supported in streaming counting");
  TMOTIF_CHECK(config_.num_threads >= 1);
  TMOTIF_CHECK_MSG(config_.lateness >= 0, "lateness must be >= 0");
  internal::ValidateEnumerationOptions(config_.options);
  has_nonlocal_ = config_.options.consecutive_events_restriction ||
                  config_.options.cdg_restriction ||
                  config_.options.inducedness != Inducedness::kNone;
  uses_static_inducedness_ =
      config_.options.inducedness == Inducedness::kStatic;
  // The store factorizes validity into a purely instance-local candidate
  // predicate (connectivity, node cap, timing) and cached per-entry flags
  // for everything non-local: the static coverage check (re-evaluated per
  // flipped pair via the node-pair buckets) and, when set, the
  // consecutive/CDG order predicates (re-evaluated only at the window
  // boundaries that can change them — see IngestOrdered's store path).
  track_tails_ = uses_static_inducedness_ &&
                 (config_.options.consecutive_events_restriction ||
                  config_.options.cdg_restriction) &&
                 config_.options.num_events >= 2;
  candidate_options_ = config_.options;
  if (uses_static_inducedness_) {
    candidate_options_.inducedness = Inducedness::kNone;
    candidate_options_.consecutive_events_restriction = false;
    candidate_options_.cdg_restriction = false;
    store_.SetTrackTails(track_tails_);
  }
  scratch_ = std::make_unique<DeltaScratch>(live_, config_.options);
}

StreamingMotifCounter::~StreamingMotifCounter() = default;

std::vector<std::pair<MotifCode, std::uint64_t>>
StreamingMotifCounter::TopMotifs(std::size_t limit) const {
  auto sorted = counts_.SortedByCount();
  if (limit > 0 && sorted.size() > limit) sorted.resize(limit);
  return sorted;
}

TimespanProfile StreamingMotifCounter::WindowTimespans(
    const MotifCode& code, int num_bins, Timestamp unbounded_hi) const {
  return CollectTimespans(window_graph(), config_.options, code, num_bins,
                          unbounded_hi);
}

void StreamingMotifCounter::InvalidateSnapshot() {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_valid_ = false;
}

const TemporalGraph& StreamingMotifCounter::window_graph() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  if (!snapshot_valid_) {
    TemporalGraphBuilder builder;
    for (const Event& e : window_.events()) builder.AddEvent(e);
    // The window is canonically sorted, so builder.Build()'s stable sort is
    // the identity and graph indices equal window positions.
    snapshot_ = builder.Build();
    snapshot_valid_ = true;
  }
  return snapshot_;
}

std::optional<Timestamp> StreamingMotifCounter::SpanBound() const {
  std::optional<Timestamp> bound;
  if (options().timing.delta_w.has_value()) bound = *options().timing.delta_w;
  if (options().timing.delta_c.has_value() && options().num_events > 1) {
    Timestamp per_gap = *options().timing.delta_c;
    if (options().duration_aware_gaps) {
      // Gaps are measured from event end times, so each may stretch by the
      // longest duration ever seen (conservative but safe).
      if (per_gap >
          std::numeric_limits<Timestamp>::max() - max_duration_seen_) {
        return bound;
      }
      per_gap += max_duration_seen_;
    }
    const Timestamp gaps = options().num_events - 1;
    if (per_gap > std::numeric_limits<Timestamp>::max() / gaps) return bound;
    const Timestamp loose = per_gap * gaps;
    bound = bound.has_value() ? std::min(*bound, loose) : loose;
  }
  return bound;
}

const std::vector<std::pair<NodeId, NodeId>>&
StreamingMotifCounter::CollectStaticEdgeFlips(std::size_t num_evict,
                                              const std::vector<Event>& added,
                                              std::size_t added_begin,
                                              bool* evicts_edge) {
  std::vector<std::pair<std::uint64_t, int>>& records = scratch_->edge_deltas;
  std::vector<std::pair<NodeId, NodeId>>& flips = scratch_->flips;
  records.clear();
  flips.clear();
  if (evicts_edge != nullptr) *evicts_edge = false;
  if (!uses_static_inducedness_) return flips;
  for (std::size_t i = 0; i < num_evict; ++i) {
    const Event& e = window_.event(i);
    records.emplace_back(NodePairKey(e.src, e.dst), -1);
  }
  for (std::size_t i = added_begin; i < added.size(); ++i) {
    const Event& e = added[i];
    records.emplace_back(NodePairKey(e.src, e.dst), +1);
  }
  // Sorting by pair key keeps the flip list deterministic.
  std::sort(records.begin(), records.end());
  for (std::size_t i = 0; i < records.size();) {
    const std::uint64_t key = records[i].first;
    std::int64_t delta = 0;
    std::int64_t evicted = 0;
    for (; i < records.size() && records[i].first == key; ++i) {
      delta += records[i].second;
      if (records[i].second < 0) ++evicted;
    }
    const NodeId src = static_cast<NodeId>(key >> 32);
    const NodeId dst = static_cast<NodeId>(static_cast<std::uint32_t>(key));
    const std::int64_t before =
        static_cast<std::int64_t>(live_.NumEdgeEvents(src, dst));
    const std::int64_t after = before + delta;
    if ((before > 0) != (after > 0)) flips.emplace_back(src, dst);
    if (evicts_edge != nullptr && evicted > 0 && evicted == before) {
      *evicts_edge = true;
    }
  }
  return flips;
}

bool StreamingMotifCounter::CollectFlipRoots(
    const std::vector<std::pair<NodeId, NodeId>>& flips,
    EventIndex first_begin, EventIndex first_end, std::int64_t* work_budget,
    std::vector<EventIndex>* roots) const {
  const int radius = options().max_nodes - 1;
  roots->clear();
  for (const auto& [u, v] : flips) {
    if (!AppendScopedRoots(live_, u, v, radius, first_begin, first_end,
                           work_budget, roots)) {
      return false;
    }
  }
  std::sort(roots->begin(), roots->end());
  roots->erase(std::unique(roots->begin(), roots->end()), roots->end());
  return true;
}

void StreamingMotifCounter::SubtractFlipAffected(
    const std::vector<std::pair<NodeId, NodeId>>& flips,
    const std::vector<EventIndex>& roots) {
  stats_.scoped_recount_roots += roots.size();
  internal::PackedMotifTable removed;
  auto sink = internal::MakeFnSink(
      [&](const EventIndex* chosen, int k, std::uint64_t packed) {
        if (InstanceSpansFlippedPair(live_, chosen, k, flips)) {
          removed.Add(packed);
        }
      });
  internal::EnumerateCoreAtRoots(live_, config_.options, roots, sink);
  counts_.SubtractTable(removed);
}

bool StreamingMotifCounter::AddFlipAffected(
    const std::vector<std::pair<NodeId, NodeId>>& flips,
    EventIndex first_new) {
  std::int64_t budget = ScopedWorkBudget(window_.size());
  std::vector<EventIndex> roots;
  // Roots past `first_new` can only anchor instances whose last event is
  // new — the sink would discard every one of them (phase 6 owns arriving
  // instances), so collecting them would just burn budget and inflate the
  // locality estimate.
  if (!CollectFlipRoots(flips, 0, first_new, &budget, &roots) ||
      2 * roots.size() >= window_.size()) {
    return false;
  }
  stats_.scoped_recount_roots += roots.size();
  internal::PackedMotifTable added;
  auto sink = internal::MakeFnSink(
      [&](const EventIndex* chosen, int k, std::uint64_t packed) {
        // Instances ending in a new event are phase 6's: they were never
        // counted before this batch, under either edge set.
        if (is_new_[static_cast<std::size_t>(chosen[k - 1])]) return;
        if (InstanceSpansFlippedPair(live_, chosen, k, flips)) {
          added.Add(packed);
        }
      });
  internal::EnumerateCoreAtRoots(live_, config_.options, roots, sink);
  counts_.AddTable(added);
  return true;
}

void StreamingMotifCounter::RecountWindow() {
  obs::PhaseTimer span(StreamMetrics::Get().recount, "stream.recount");
  live_.Reset();
  id_offset_ = 0;
  counts_ = MotifCounts();
  ++stats_.full_recounts;
  if (store_active()) {
    RebuildStore();
  } else if (scratch_->fast) {
    internal::fast_paths::NoteDispatch(true);
    internal::PackedMotifTable table;
    scratch_->fast->Count(
        0, live_.num_events(), [](EventIndex) { return true; },
        [&](std::uint64_t code, std::uint64_t n) { table.Add(code, n); });
    counts_.AddTable(table);
  } else {
    counts_.AddTable(internal::CountPackedSharded(live_, config_.options, 0,
                                                  live_.num_events(),
                                                  config_.num_threads));
  }
}

void StreamingMotifCounter::ApplyAndRecount(const IngestPlan& plan,
                                            const std::vector<Event>& batch,
                                            bool is_static_fallback) {
  window_.Apply(plan, batch);
  InvalidateSnapshot();
  RecountWindow();
  if (is_static_fallback) ++stats_.static_fallbacks;
}

void StreamingMotifCounter::AddNewInstances(EventIndex begin) {
  internal::PackedMotifTable added;
  if (scratch_->fast) {
    internal::fast_paths::NoteDispatch(true);
    // Suffix difference with an exclude-new filter: every instance that
    // contains a new event ends in one (no old event follows a new one in
    // time), so [begin, N) counted over all events minus the same window
    // counted over old events only is exactly the arrivals, per code.
    const EventIndex n = live_.num_events();
    const auto all = [](EventIndex) { return true; };
    const auto old_only = [this](EventIndex i) {
      return is_new_[static_cast<std::size_t>(i)] == 0;
    };
    internal::fast_paths::CodeDeltas& deltas = scratch_->deltas;
    deltas.Clear();
    scratch_->fast->Accumulate(begin, n, all, +1, &deltas);
    scratch_->fast->Accumulate(begin, n, old_only, -1, &deltas);
    for (const auto& [code, delta] : deltas) {
      TMOTIF_CHECK(delta >= 0);
      if (delta > 0) added.Add(code, static_cast<std::uint64_t>(delta));
    }
  } else {
    internal::fast_paths::NoteDispatch(false);
    NewInstanceSink sink{&is_new_, &added};
    internal::EnumerateCore(live_, config_.options, begin, live_.num_events(),
                            sink);
  }
  stats_.instances_added += added.total();
  counts_.AddTable(added);
}

// --- Live-instance store path. ---

void StreamingMotifCounter::RebuildStore() {
  // Anchors restart at the current id base (zero on the recount path; the
  // live offset on promotion/restore rebuilds, where the window survives).
  store_.Reset(id_offset_);
  // A rebuild is a recount, not delta churn: instances_added stays
  // untouched, matching the non-store recount path.
  StoreAddCandidates(0, live_.num_events(),
                     [](const EventIndex*, int) { return true; },
                     /*count_churn=*/false);
}

template <typename Keep>
void StreamingMotifCounter::StoreAddCandidates(EventIndex lo, EventIndex hi,
                                               Keep keep, bool count_churn) {
  internal::PackedMotifTable added;
  std::array<std::uint64_t, internal::kMaxCoreEvents> ids{};
  auto sink = MakeNodeFnSink([&](const EventIndex* chosen, int k,
                                 std::uint64_t packed, const NodeId* nodes,
                                 int num_nodes) {
    if (!keep(chosen, k)) return;
    for (int i = 0; i < k; ++i) {
      ids[static_cast<std::size_t>(i)] =
          id_offset_ + static_cast<std::uint64_t>(chosen[i]);
    }
    const int distinct = internal::PackedDistinctPairCount(packed, k);
    const bool covered =
        distinct == ScopeStaticEdges(live_, nodes, num_nodes);
    const bool order_valid =
        !track_tails_ || OrderValidAt(chosen, k, nodes, num_nodes);
    store_.Insert(ids.data(), k, packed, nodes, num_nodes, distinct, covered,
                  order_valid);
    if (covered && order_valid) added.Add(packed);
  });
  internal::EnumerateCore(live_, candidate_options_, lo, hi, sink);
  if (count_churn) stats_.instances_added += added.total();
  counts_.AddTable(added);
}

void StreamingMotifCounter::StoreEvict(std::size_t num_evict) {
  internal::PackedMotifTable retired;
  store_.EvictFront(num_evict, [&](const LiveInstanceStore::Entry& entry) {
    if (entry.counted) retired.Add(entry.packed);
  });
  stats_.instances_retracted += retired.total();
  counts_.SubtractTable(retired);
}

void StreamingMotifCounter::StoreProcessFlips(
    const std::vector<std::pair<NodeId, NodeId>>& flips) {
  if (flips.empty()) return;
  const std::uint64_t stamp = store_.NextVisitStamp();
  CountedChanges changes;
  for (const auto& [u, v] : flips) {
    store_.ForEachTouching(u, v, [&](LiveInstanceStore::Entry& entry) {
      if (entry.visit_stamp == stamp) return;  // Touched via another flip.
      entry.visit_stamp = stamp;
      ++stats_.store_entries_touched;
      entry.covered =
          entry.distinct_pairs ==
          ScopeStaticEdges(live_, entry.nodes.data(), entry.num_nodes);
      changes.Update(&store_, entry);
    });
  }
  ++stats_.store_flip_batches;
  changes.Apply(&counts_, &stats_);
}

bool StreamingMotifCounter::OrderValidAt(const EventIndex* pos, int k,
                                         const NodeId* nodes,
                                         int num_nodes) const {
  // Mirrors the enumeration core's per-candidate checks exactly
  // (core/enumerate_core.h): CDG rejects another event on a gap's closing
  // edge inside the closed gap interval (same-edge gaps exempt);
  // consecutive rejects any interloper strictly between a node's successive
  // instance touches.
  if (config_.options.cdg_restriction) {
    for (int i = 1; i < k; ++i) {
      const EventIndex a = pos[i - 1];
      const EventIndex b = pos[i];
      if (live_.event_src(a) == live_.event_src(b) &&
          live_.event_dst(a) == live_.event_dst(b)) {
        continue;
      }
      if (live_.HasAdjacentEdgeEventInRange(b, live_.event_time(a),
                                            live_.event_time(b))) {
        return false;
      }
    }
  }
  if (config_.options.consecutive_events_restriction) {
    for (int d = 0; d < num_nodes; ++d) {
      const NodeId node = nodes[d];
      EventIndex prev = -1;
      for (int i = 0; i < k; ++i) {
        const EventIndex p = pos[i];
        if (live_.event_src(p) != node && live_.event_dst(p) != node) {
          continue;
        }
        if (prev >= 0 && live_.HasIncidentInIndexRange(node, prev, p)) {
          return false;
        }
        prev = p;
      }
    }
  }
  return true;
}

void StreamingMotifCounter::ReevaluateOrder(std::uint64_t id_begin,
                                            std::uint64_t id_end,
                                            bool by_tail) {
  CountedChanges changes;
  const auto recheck = [&](LiveInstanceStore::Entry& entry) {
    ++stats_.store_order_rechecks;
    EventIndex pos[internal::kMaxCoreEvents];
    for (int i = 0; i < entry.num_events; ++i) {
      pos[i] = static_cast<EventIndex>(
          entry.event_ids[static_cast<std::size_t>(i)] - id_offset_);
    }
    entry.order_valid = OrderValidAt(pos, entry.num_events,
                                     entry.nodes.data(), entry.num_nodes);
    changes.Update(&store_, entry);
  };
  if (by_tail) {
    store_.ForEachTailAnchored(
        id_begin, id_end,
        [&](LiveInstanceStore::Entry& entry, std::uint64_t tail_id) {
          // The tail slot is positional truth: interleaved arrivals shifted
          // this entry's last event in lockstep with the slot.
          entry.event_ids[static_cast<std::size_t>(entry.num_events - 1)] =
              tail_id;
          recheck(entry);
        });
  } else {
    store_.ForEachAnchoredInRange(id_begin, id_end, recheck);
  }
  changes.Apply(&counts_, &stats_);
}

// --- Ingestion. ---

void StreamingMotifCounter::Ingest(std::vector<Event> batch) {
  StreamMetrics& metrics = StreamMetrics::Get();
  metrics.batch_events->Record(batch.size());
  obs::PhaseTimer ingest_span(metrics.ingest_latency, "stream.ingest");
  std::stable_sort(batch.begin(), batch.end(), EventTimeLess);
  for (const Event& e : batch) {
    TMOTIF_CHECK_MSG(e.src != e.dst,
                     "self-loop events must be filtered before ingestion");
  }
  ++stats_.batches;
  stats_.events_ingested += batch.size();

  // Split off genuinely late events (strictly behind the stream clock):
  // in-horizon ones are spliced, the rest dropped. The remainder is the
  // in-order suffix the standard delta path ingests.
  std::size_t ordered_begin = 0;
  if (window_.saw_any_event()) {
    const Timestamp clock = window_.max_time_seen();
    while (ordered_begin < batch.size() &&
           batch[ordered_begin].time < clock) {
      ++ordered_begin;
    }
    if (ordered_begin > 0) {
      const Timestamp cutoff = SaturatingSubtract(clock, config_.lateness);
      std::size_t accept_begin = 0;
      while (accept_begin < ordered_begin &&
             batch[accept_begin].time < cutoff) {
        ++accept_begin;
      }
      stats_.late_dropped += accept_begin;
      if (accept_begin < ordered_begin) {
        IngestLate(std::vector<Event>(
            batch.begin() + static_cast<std::ptrdiff_t>(accept_begin),
            batch.begin() + static_cast<std::ptrdiff_t>(ordered_begin)));
      }
    }
  }
  if (ordered_begin == 0) {
    IngestOrdered(batch);
  } else if (ordered_begin < batch.size()) {
    IngestOrdered(std::vector<Event>(
        batch.begin() + static_cast<std::ptrdiff_t>(ordered_begin),
        batch.end()));
  }
  EnforceStoreBudget();
  PublishTelemetry();
}

void StreamingMotifCounter::PublishTelemetry() {
  StreamMetrics& metrics = StreamMetrics::Get();
#define TMOTIF_PUBLISH_FIELD(field) \
  metrics.field->Add(stats_.field - published_stats_.field)
  TMOTIF_PUBLISH_FIELD(batches);
  TMOTIF_PUBLISH_FIELD(events_ingested);
  TMOTIF_PUBLISH_FIELD(events_dropped);
  TMOTIF_PUBLISH_FIELD(events_evicted);
  TMOTIF_PUBLISH_FIELD(instances_added);
  TMOTIF_PUBLISH_FIELD(instances_retracted);
  TMOTIF_PUBLISH_FIELD(tie_corrections);
  TMOTIF_PUBLISH_FIELD(full_recounts);
  TMOTIF_PUBLISH_FIELD(static_fallbacks);
  TMOTIF_PUBLISH_FIELD(scoped_static_recounts);
  TMOTIF_PUBLISH_FIELD(scoped_recount_roots);
  TMOTIF_PUBLISH_FIELD(store_flip_batches);
  TMOTIF_PUBLISH_FIELD(store_entries_touched);
  TMOTIF_PUBLISH_FIELD(store_admitted);
  TMOTIF_PUBLISH_FIELD(store_retired);
  TMOTIF_PUBLISH_FIELD(store_order_rechecks);
  TMOTIF_PUBLISH_FIELD(store_demotions_recount);
  TMOTIF_PUBLISH_FIELD(store_promotions_full);
  TMOTIF_PUBLISH_FIELD(late_events);
  TMOTIF_PUBLISH_FIELD(late_dropped);
  TMOTIF_PUBLISH_FIELD(late_splices);
  TMOTIF_PUBLISH_FIELD(late_recounts);
#undef TMOTIF_PUBLISH_FIELD
  published_stats_ = stats_;
  metrics.store_compactions->Add(store_.compactions() -
                                 published_store_compactions_);
  published_store_compactions_ = store_.compactions();
  metrics.window_events->Set(static_cast<std::int64_t>(window_.size()));
  metrics.store_entries->Set(static_cast<std::int64_t>(store_.size()));
  metrics.store_bytes->Set(
      static_cast<std::int64_t>(store_active() ? store_.ApproxBytes() : 0));
  metrics.store_mode->Set(static_cast<std::int64_t>(store_mode_));
}

void StreamingMotifCounter::IngestOrdered(const std::vector<Event>& batch) {
  StreamMetrics& metrics = StreamMetrics::Get();
  const IngestPlan plan = window_.PlanIngest(batch);
  const std::size_t old_size = window_.size();
  const std::size_t num_new = batch.size() - plan.batch_begin;
  stats_.events_dropped += plan.batch_begin;
  stats_.events_evicted += plan.num_evict;
  // Only events that actually enter widen the duration-aware span bound;
  // a dropped outlier must not degrade every later delta range.
  for (std::size_t i = plan.batch_begin; i < batch.size(); ++i) {
    max_duration_seen_ = std::max(max_duration_seen_, batch[i].duration);
  }

  if (num_new == 0 && plan.num_evict == 0) {
    window_.Apply(plan, batch);  // Still advances the stream clock; the
    return;                      // window content (and indices) is unchanged.
  }

  // Full window turnover (including startup) recounts from scratch — there
  // is nothing incremental to preserve.
  if (plan.num_evict >= old_size) {
    ApplyAndRecount(plan, batch, /*is_static_fallback=*/false);
    return;
  }

  const std::optional<Timestamp> span = SpanBound();
  const EventIndex n_evict = static_cast<EventIndex>(plan.num_evict);
  // Survivors can only flip validity at shared boundary timestamps (or via
  // static-edge flips): an evicted or arriving event lies inside a
  // surviving instance's scope only when it ties the instance's first or
  // last timestamp. See docs/STREAMING.md for the case analysis.
  const bool evict_tie =
      n_evict > 0 && live_.event_time(n_evict - 1) == live_.event_time(n_evict);
  const Timestamp t_ev = n_evict > 0 ? live_.event_time(n_evict - 1) : 0;
  const Timestamp old_surviving_max =
      live_.event_time(static_cast<EventIndex>(old_size) - 1);
  const bool append_tie =
      num_new > 0 && batch[plan.batch_begin].time == old_surviving_max;

  if (store_active()) {
    // Store path: candidate validity is instance-local, so survivors never
    // flip as candidates. The store absorbs every static-edge flip by
    // retiring/admitting exactly the instances whose node set spans a
    // flipped pair, and caches the order predicates (consecutive/CDG) per
    // entry — those can only flip for entries whose first event ties the
    // eviction boundary (an evicted same-time interloper can un-violate a
    // CDG gap) or whose last event ties the arriving batch's earliest
    // timestamp (an interleaving arrival can violate the final gap), so
    // two boundary sweeps over the tie groups keep every flag exact. The
    // only enumerations left are the same retract/add deltas every model
    // pays.
    const std::vector<std::pair<NodeId, NodeId>>& flips =
        CollectStaticEdgeFlips(plan.num_evict, batch, plan.batch_begin);
    if (n_evict > 0) StoreEvict(plan.num_evict);
    {
      obs::PhaseTimer span(metrics.phase4_apply, "stream.phase4_apply");
      live_.BeginUpdate(plan, batch);
      window_.Apply(plan, batch, &new_positions_);
      live_.FinishUpdate();
    }
    id_offset_ += plan.num_evict;
    // Batch events interleaving within the trailing tie group renumber the
    // resident tie-group events; opening store slots at the entered ids
    // (ascending, so each insertion accounts for the previous) shifts the
    // anchored entries in lockstep — anchors for k == 1, tails always.
    for (const std::size_t p : new_positions_) {
      store_.SpliceSlot(id_offset_ + p);
    }
    InvalidateSnapshot();
    is_new_.assign(window_.size(), 0);
    for (const std::size_t p : new_positions_) is_new_[p] = 1;
    {
      obs::PhaseTimer span(metrics.store_flips, "stream.store_flips");
      StoreProcessFlips(flips);  // Post-apply edge state.
    }
    if (track_tails_ && append_tie) {
      ReevaluateOrder(
          id_offset_ + static_cast<std::uint64_t>(
                           live_.LowerBoundTime(old_surviving_max)),
          id_offset_ + static_cast<std::uint64_t>(
                           live_.UpperBoundTime(old_surviving_max)),
          /*by_tail=*/true);
    }
    if (track_tails_ && config_.options.cdg_restriction && evict_tie) {
      ReevaluateOrder(
          id_offset_,
          id_offset_ + static_cast<std::uint64_t>(live_.UpperBoundTime(t_ev)),
          /*by_tail=*/false);
    }
    if (num_new > 0) {
      obs::PhaseTimer phase_span(metrics.phase6_arrivals,
                                 "stream.phase6_arrivals");
      const Timestamp min_new_time = batch[plan.batch_begin].time;
      StoreAddCandidates(
          FirstPossibleStart(live_, min_new_time, span), live_.num_events(),
          [this](const EventIndex* chosen, int k) {
            return is_new_[static_cast<std::size_t>(chosen[k - 1])] != 0;
          });
    }
    return;
  }

  // Static inducedness with the store off (memory budget): when the
  // window's static edge set changes, survivor instances whose node set
  // spans a flipped pair change validity. The scoped correction subtracts
  // exactly those instances at pre-flip validity here and re-adds them at
  // post-flip validity after the window slides — a neighborhood-restricted
  // recount.
  // The full-window fallback remains for batches where a flip coincides
  // with a boundary tie (the two corrections would overlap), where the flip
  // set is too large to localize cheaply, or where the collected root set
  // approaches the window itself (the scoped passes would cost more than
  // one recount). A boundary tie also falls back when the eviction alone
  // removes an edge, even one the batch re-adds: the tie corrections run
  // on the survivors, whose edge set is then neither the old nor the new
  // one.
  bool evicts_edge = false;
  const std::vector<std::pair<NodeId, NodeId>>& flips = CollectStaticEdgeFlips(
      plan.num_evict, batch, plan.batch_begin, &evicts_edge);
  if (!flips.empty() || (evicts_edge && (evict_tie || append_tie))) {
    constexpr std::size_t kMaxScopedFlips = 32;
    std::vector<EventIndex> flip_roots;
    bool scoped = !evict_tie && !append_tie && flips.size() <= kMaxScopedFlips;
    if (scoped) {
      std::int64_t budget = ScopedWorkBudget(old_size);
      // The scoped correction enumerates each root twice (subtract + add);
      // a full recount enumerates every window event once.
      scoped = CollectFlipRoots(flips, n_evict,
                                static_cast<EventIndex>(old_size), &budget,
                                &flip_roots) &&
               2 * flip_roots.size() < old_size;
    }
    if (!scoped) {
      ApplyAndRecount(plan, batch, /*is_static_fallback=*/true);
      return;
    }
    SubtractFlipAffected(flips, flip_roots);
  }

  // Phase 1 — retire the evicted prefix. The evicted events form a
  // canonical prefix, so an instance loses an event exactly when its first
  // event is evicted; those are retracted on the pre-update indices. Under
  // a non-local predicate, survivors whose first event ties the eviction
  // boundary are removed too, at the validity they were counted with
  // (phase 2 re-adds them). Then the prefix leaves the window and the live
  // indices as an update of its own — an empty batch moves no clock and
  // pops no tie group — so phases 2 and 3 run on the survivors.
  const bool evict_correction = has_nonlocal_ && evict_tie;
  if (n_evict > 0) {
    obs::PhaseTimer phase_span(metrics.phase1_retract,
                               "stream.phase1_retract");
    internal::PackedMotifTable retracted;
    if (scratch_->fast) {
      internal::fast_paths::NoteDispatch(true);
      // Prefix-window difference: every instance anchored in [0, n_evict)
      // fits inside [0, hi1) (the span bound caps how far its last event
      // can reach), so counting that window with and without the evicted
      // prefix isolates exactly the retractions, per code.
      const EventIndex hi1 =
          span.has_value()
              ? live_.UpperBoundTime(internal::fast_paths::detail::SatAdd(
                    live_.event_time(n_evict - 1), *span))
              : live_.num_events();
      const auto all = [](EventIndex) { return true; };
      internal::fast_paths::CodeDeltas& deltas = scratch_->deltas;
      deltas.Clear();
      scratch_->fast->Accumulate(0, hi1, all, +1, &deltas);
      scratch_->fast->Accumulate(n_evict, hi1, all, -1, &deltas);
      for (const auto& [code, delta] : deltas) {
        TMOTIF_CHECK(delta >= 0);
        if (delta > 0) {
          retracted.Add(code, static_cast<std::uint64_t>(delta));
        }
      }
    } else {
      internal::PackedTableSink sink{&retracted};
      internal::EnumerateCore(live_, config_.options, 0, n_evict, sink);
    }
    stats_.instances_retracted += retracted.total();
    counts_.SubtractTable(retracted);
    if (evict_correction) {
      internal::PackedMotifTable table;
      internal::PackedTableSink sink{&table};
      internal::EnumerateCore(live_, config_.options, n_evict,
                              live_.UpperBoundTime(t_ev), sink);
      counts_.SubtractTable(table);
    }
    const IngestPlan evict{plan.num_evict, 0};
    live_.BeginUpdate(evict, {});
    window_.Apply(evict, {});
    live_.FinishUpdate();
    id_offset_ += plan.num_evict;
  }

  // Phase 2 — evict-side boundary correction, add-back half: the
  // tie-group survivors phase 1 removed re-enter at their validity without
  // the evicted tie events.
  if (evict_correction) {
    obs::PhaseTimer phase_span(metrics.phase2_evict_tie,
                               "stream.phase2_evict_tie");
    internal::PackedMotifTable table;
    internal::PackedTableSink sink{&table};
    internal::EnumerateCore(live_, config_.options, 0,
                            live_.UpperBoundTime(t_ev), sink);
    counts_.AddTable(table);
    ++stats_.tie_corrections;
  }

  // Phase 3 — append-side boundary correction, subtract half: survivors
  // whose last event ties the arriving batch's earliest timestamp are
  // removed at their pre-append validity (re-added at post-append validity
  // in phase 5). Timing bounds the first-event range.
  if (has_nonlocal_ && append_tie) {
    obs::PhaseTimer phase_span(metrics.phase3_append_tie,
                               "stream.phase3_append_tie");
    const Timestamp t_b = old_surviving_max;
    SubtractAppendTies(live_, config_.options,
                       FirstPossibleStart(live_, t_b, span), t_b, &counts_);
    ++stats_.tie_corrections;
  }

  // Phase 4 — enter the arrivals, advance the stream clock, and update the
  // live indices incrementally (O(tie group + entered); no window-graph
  // rebuild).
  {
    obs::PhaseTimer phase_span(metrics.phase4_apply, "stream.phase4_apply");
    const IngestPlan enter{0, plan.batch_begin};
    live_.BeginUpdate(enter, batch);
    window_.Apply(enter, batch, &new_positions_);
    live_.FinishUpdate();
  }
  InvalidateSnapshot();
  is_new_.assign(window_.size(), 0);
  for (const std::size_t p : new_positions_) is_new_[p] = 1;

  // Scoped static-flip correction, add-back half: flip-affected survivors
  // re-enter at their validity under the new edge set (instances with a new
  // last event are phase 6's, under the new edge set either way).
  if (!flips.empty()) {
    // Tie-free batch: the entering events are strictly later than every
    // survivor, so they occupy the window's suffix.
    const EventIndex first_new =
        static_cast<EventIndex>(window_.size() - num_new);
    if (!AddFlipAffected(flips, first_new)) {
      // The post-apply neighborhood blew its budget (rare: arrivals grew a
      // flip's ball past the locality threshold). The window has already
      // slid, so recount it outright — that subsumes phase 6.
      RecountWindow();
      ++stats_.static_fallbacks;
      return;
    }
    ++stats_.scoped_static_recounts;
  }

  // Phase 5 — append-side boundary correction, add-back half, evaluated on
  // the post-append window. An instance whose last event is old contains no
  // new event at all (no old event can follow a new one in time), so these
  // are exactly the survivors the subtract half removed.
  if (has_nonlocal_ && append_tie) {
    obs::PhaseTimer phase_span(metrics.phase5_append_add,
                               "stream.phase5_append_add");
    const Timestamp t_b = old_surviving_max;
    const EventIndex lo = FirstPossibleStart(live_, t_b, span);
    const EventIndex hi = live_.UpperBoundTime(t_b);
    internal::PackedMotifTable table;
    auto sink = internal::MakeFnSink(
        [&](const EventIndex* chosen, int k, std::uint64_t packed) {
          const EventIndex last = chosen[k - 1];
          if (is_new_[static_cast<std::size_t>(last)]) return;
          if (live_.event_time(last) == t_b) table.Add(packed);
        });
    internal::EnumerateCore(live_, config_.options, lo, hi, sink);
    counts_.AddTable(table);
  }

  // Phase 6 — count arriving instances: every instance that includes a new
  // event ends in one (the stream is time-ordered), so instances whose last
  // event is new are exactly the additions; timing bounds how far back
  // their first events can reach.
  if (num_new > 0) {
    obs::PhaseTimer phase_span(metrics.phase6_arrivals,
                               "stream.phase6_arrivals");
    const Timestamp min_new_time = batch[plan.batch_begin].time;
    AddNewInstances(FirstPossibleStart(live_, min_new_time, span));
  }
}

void StreamingMotifCounter::ApplySplice(std::size_t num_evict,
                                        const std::vector<Event>& late,
                                        std::size_t late_begin) {
  obs::PhaseTimer span(StreamMetrics::Get().splice_apply,
                       "stream.splice_apply");
  IngestPlan plan;
  plan.num_evict = num_evict;
  plan.batch_begin = late_begin;
  const std::size_t cut = window_.SpliceCut(plan, late);
  live_.BeginSplice(num_evict, cut);
  window_.Splice(plan, late, &spliced_positions_);
  live_.FinishUpdate();
  id_offset_ += num_evict;
  if (store_active()) {
    // Anchor slots shift in lockstep with the id renumbering (ascending
    // final positions: each insertion already accounts for the previous).
    for (const std::size_t p : spliced_positions_) {
      store_.SpliceSlot(id_offset_ + p);
    }
  }
  InvalidateSnapshot();
}

void StreamingMotifCounter::IngestLate(const std::vector<Event>& late) {
  obs::PhaseTimer late_span(StreamMetrics::Get().late_ingest,
                            "stream.late_ingest");
  const IngestPlan plan = window_.PlanSplice(late);
  stats_.events_dropped += plan.batch_begin;
  const std::size_t num_spliced = late.size() - plan.batch_begin;
  if (num_spliced == 0) return;
  stats_.events_evicted += plan.num_evict;
  stats_.late_events += num_spliced;
  // Spliced events enter the window, so their durations must widen the
  // span bound before any correction range is computed.
  for (std::size_t i = plan.batch_begin; i < late.size(); ++i) {
    max_duration_seen_ = std::max(max_duration_seen_, late[i].duration);
  }

  const std::optional<Timestamp> span = SpanBound();
  const Timestamp min_late_time = late[plan.batch_begin].time;
  const Timestamp max_late_time = late.back().time;

  const auto mark_spliced = [&]() -> EventIndex {
    is_late_.assign(window_.size(), 0);
    EventIndex max_pos = 0;
    for (const std::size_t p : spliced_positions_) {
      is_late_[p] = 1;
      max_pos = std::max(max_pos, static_cast<EventIndex>(p));
    }
    return max_pos;
  };

  if (store_active()) {
    if (track_tails_) {
      // A spliced event lands between resident events in both index and
      // time, so it can violate a consecutive/CDG gap of any entry in the
      // window — no boundary to sweep. Recount (late events are the rare
      // case the lateness horizon already bounds).
      ApplySplice(plan.num_evict, late, plan.batch_begin);
      RecountWindow();
      ++stats_.late_recounts;
      return;
    }
    // Fully incremental: evict, splice (slots realign), absorb the static
    // flips through the store, then add the candidates that contain a
    // spliced event (the only new ones — existing candidates are immune to
    // the splice, their validity being instance-local).
    const std::vector<std::pair<NodeId, NodeId>>& flips =
        CollectStaticEdgeFlips(plan.num_evict, late, plan.batch_begin);
    if (plan.num_evict > 0) StoreEvict(plan.num_evict);
    ApplySplice(plan.num_evict, late, plan.batch_begin);
    const EventIndex max_pos = mark_spliced();
    {
      obs::PhaseTimer span(StreamMetrics::Get().store_flips,
                           "stream.store_flips");
      StoreProcessFlips(flips);
    }
    StoreAddCandidates(FirstPossibleStart(live_, min_late_time, span),
                       max_pos + 1,
                       [this](const EventIndex* chosen, int k) {
                         for (int i = 0; i < k; ++i) {
                           if (is_late_[static_cast<std::size_t>(chosen[i])]) {
                             return true;
                           }
                         }
                         return false;
                       });
    ++stats_.late_splices;
    return;
  }

  // Without the store, two cases resist cheap localization: a static-edge
  // flip can strike instances far outside any time-bounded root range (the
  // spliced event creates/destroys an edge whose spanning instances live
  // anywhere in the window), and an eviction under a non-local predicate
  // would need the full boundary-tie machinery. Both take the windowed
  // recount; everything else is a bounded subtract/add around the splice.
  const std::vector<std::pair<NodeId, NodeId>>& flips =
      CollectStaticEdgeFlips(plan.num_evict, late, plan.batch_begin);
  if (!flips.empty() || (plan.num_evict > 0 && has_nonlocal_)) {
    ApplySplice(plan.num_evict, late, plan.batch_begin);
    RecountWindow();
    ++stats_.late_recounts;
    return;
  }

  const EventIndex n_evict = static_cast<EventIndex>(plan.num_evict);
  // Retract instances anchored at the evicted prefix (reached only with a
  // purely local predicate, so survivors cannot flip).
  if (n_evict > 0) {
    internal::PackedMotifTable retracted;
    internal::PackedTableSink sink{&retracted};
    internal::EnumerateCore(live_, config_.options, 0, n_evict, sink);
    stats_.instances_retracted += retracted.total();
    counts_.SubtractTable(retracted);
  }

  // Non-local predicates (consecutive, CDG, temporal-window inducedness):
  // a spliced event can only affect instances whose scope reaches its
  // timestamp, i.e. first-event time in [min_late - span, max_late]. The
  // subtract half removes everything in that range at pre-splice validity;
  // the add half below re-adds the range at post-splice validity — the
  // difference is exactly the splice's effect, containment included.
  const bool replace_range = has_nonlocal_;
  if (replace_range) {
    internal::PackedMotifTable removed;
    internal::PackedTableSink sink{&removed};
    internal::EnumerateCore(live_, config_.options,
                            FirstPossibleStart(live_, min_late_time, span),
                            live_.UpperBoundTime(max_late_time), sink);
    counts_.SubtractTable(removed);
  }

  ApplySplice(plan.num_evict, late, plan.batch_begin);
  const EventIndex max_pos = mark_spliced();

  if (replace_range) {
    internal::PackedMotifTable added;
    internal::PackedTableSink sink{&added};
    internal::EnumerateCore(live_, config_.options,
                            FirstPossibleStart(live_, min_late_time, span),
                            live_.UpperBoundTime(max_late_time), sink);
    counts_.AddTable(added);
  } else {
    // Purely local predicate: existing instances are untouched, so only
    // instances containing a spliced event are new.
    internal::PackedMotifTable added;
    auto sink = internal::MakeFnSink(
        [&](const EventIndex* chosen, int k, std::uint64_t packed) {
          for (int i = 0; i < k; ++i) {
            if (is_late_[static_cast<std::size_t>(chosen[i])]) {
              added.Add(packed);
              return;
            }
          }
        });
    internal::EnumerateCore(live_, config_.options,
                            FirstPossibleStart(live_, min_late_time, span),
                            max_pos + 1, sink);
    stats_.instances_added += added.total();
    counts_.AddTable(added);
  }
  ++stats_.late_splices;
}

// --- Memory-budget degradation. ---

void StreamingMotifCounter::EnforceStoreBudget() {
  if (!uses_static_inducedness_ || config_.store_budget_bytes == 0) return;
  // Promotion hysteresis: the store comes back on once its estimated
  // footprint fits under this fraction of the budget for this many
  // consecutive batches.
  constexpr double kPromoteFraction = 0.5;
  constexpr std::uint32_t kPromoteBatches = 4;
  std::size_t pressure = 0;
  if (const auto injected = fault::Consume("stream.budget_pressure")) {
    if (*injected > 0) pressure = static_cast<std::size_t>(*injected);
  }
  const std::size_t budget = config_.store_budget_bytes;
  const double window_events =
      static_cast<double>(std::max<std::size_t>(window_.size(), 1));

  // Demotion is immediate: a batch must never end over budget. It first
  // records the store's bytes per window event, so re-promotion can
  // estimate its cost without turning the store back on.
  const auto demote_if_over_budget = [&] {
    if (store_.ApproxBytes() + pressure <= budget) return;
    full_bytes_per_event_ =
        static_cast<double>(store_.ApproxBytes()) / window_events;
    store_.Reset(id_offset_);
    store_mode_ = StoreMode::kRecount;
    promote_streak_ = 0;
    ++stats_.store_demotions_recount;
  };
  if (store_mode_ == StoreMode::kFull) {
    demote_if_over_budget();
    return;
  }

  const double estimate =
      full_bytes_per_event_ * window_events + static_cast<double>(pressure);
  if (estimate > kPromoteFraction * static_cast<double>(budget)) {
    promote_streak_ = 0;
    return;
  }
  if (++promote_streak_ < kPromoteBatches) return;
  promote_streak_ = 0;
  PromoteStore();
  ++stats_.store_promotions_full;
  // The per-event estimate can be stale (denser window than when it was
  // recorded); the invariant that a batch never ends over budget wins, so
  // re-check and turn the store off again if the promotion overshot.
  demote_if_over_budget();
}

void StreamingMotifCounter::PromoteStore() {
  store_mode_ = StoreMode::kFull;
  // Rebuilding the store re-derives the counted set from scratch; the
  // counts were exact before the promotion, so the rebuild must reproduce
  // them bit-for-bit.
  MotifCounts saved = std::move(counts_);
  counts_ = MotifCounts();
  RebuildStore();
  TMOTIF_CHECK_MSG(counts_.raw() == saved.raw(),
                   "store promotion derived different counts");
}

// --- Checkpoint capture / restore. ---

StreamCheckpointState StreamingMotifCounter::CaptureCheckpointState() const {
  StreamCheckpointState state;
  state.window_events.assign(window_.events().begin(),
                             window_.events().end());
  state.max_time_seen = window_.max_time_seen();
  state.saw_any_event = window_.saw_any_event();
  state.max_duration_seen = max_duration_seen_;
  state.stats = stats_;
  state.counts.assign(counts_.raw().begin(), counts_.raw().end());
  std::sort(state.counts.begin(), state.counts.end());
  state.store_mode = store_mode_;
  state.promote_streak = promote_streak_;
  state.full_bytes_per_event = full_bytes_per_event_;
  return state;
}

bool StreamingMotifCounter::RestoreCheckpointState(
    const StreamCheckpointState& state, std::string* error) {
  window_.Restore(state.window_events, state.max_time_seen,
                  state.saw_any_event);
  live_.Reset();
  id_offset_ = 0;
  max_duration_seen_ = state.max_duration_seen;
  stats_ = state.stats;
  // Exported metrics are deltas against published_stats_; after a restore
  // they must reflect post-restore activity only, not replay history.
  published_stats_ = stats_;
  store_mode_ =
      uses_static_inducedness_ ? state.store_mode : StoreMode::kFull;
  promote_streak_ = state.promote_streak;
  full_bytes_per_event_ = state.full_bytes_per_event;
  MotifCounts restored;
  for (const auto& [packed, n] : state.counts) restored.AddPacked(packed, n);
  store_.Reset(0);
  if (!store_active()) {
    counts_ = std::move(restored);
  } else {
    // The store is not serialized; regenerate it from the window and
    // cross-check the re-derived counted set against the checkpoint.
    counts_ = MotifCounts();
    RebuildStore();
    if (counts_.raw() != restored.raw()) {
      if (error != nullptr) {
        *error =
            "regenerated instance store disagrees with the checkpointed "
            "counts";
      }
      return false;
    }
  }
  InvalidateSnapshot();
  return true;
}

}  // namespace tmotif
