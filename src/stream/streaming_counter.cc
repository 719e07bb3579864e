#include "stream/streaming_counter.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/check.h"
#include "common/fault_points.h"
#include "core/enumerate_core.h"
#include "core/fast_paths/fast_path.h"
#include "core/packed_table.h"
#include "core/parallel.h"
#include "core/timing.h"
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
  /// One counter per kIngestStatFields entry (mirrored as deltas per
  /// batch), in table order.
  std::array<obs::Counter*, kIngestStatFields.size()> stats;
  /// Mirrors LiveInstanceStore::compactions() (not an IngestStats field).
  obs::Counter* store_compactions;

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
      n.late_ingest = r.GetHistogram("stream.late_ingest_latency_ns");
      n.recount = r.GetHistogram("stream.recount_latency_ns");
      n.batch_events = r.GetHistogram("stream.batch_events");
      n.window_events = r.GetGauge("stream.window_events");
      n.store_entries = r.GetGauge("stream.store_entries");
      n.store_bytes = r.GetGauge("stream.store_bytes");
      n.store_mode = r.GetGauge("stream.store_mode");
      for (std::size_t i = 0; i < kIngestStatFields.size(); ++i) {
        n.stats[i] = r.GetCounter(kIngestStatFields[i].metric);
      }
      n.store_compactions = r.GetCounter("stream.store_compactions");
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
  return graph.LowerBoundTime(SatSub(last_time, *span));
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

/// True when one of an instance's `k` chosen window positions entered with
/// the current batch (`is_new` flags them). A late batch can enter events
/// anywhere in an instance, so every position is tested; the last one
/// first, where an in-order batch's events sit.
bool ContainsEntered(const std::vector<char>& is_new,
                     const EventIndex* chosen, int k) {
  for (int i = k - 1; i >= 0; --i) {
    if (is_new[static_cast<std::size_t>(chosen[i])]) return true;
  }
  return false;
}

}  // namespace

struct StreamingMotifCounter::DeltaScratch {
  DeltaScratch(const WindowGraph& live, const EnumerationOptions& options) {
    if (internal::fast_paths::FastPathSupported(options)) {
      fast.emplace(live, options);
    }
  }

  /// The fast-path counter over the live window (engaged iff the options
  /// dispatch to the fast paths).
  std::optional<internal::fast_paths::WindowCounter<WindowGraph>> fast;
  /// (directed node-pair key, +1 entering / -1 leaving) per event of a
  /// batch's edge delta, and the resulting flip list.
  std::vector<std::pair<std::uint64_t, int>> edge_deltas;
  std::vector<std::pair<NodeId, NodeId>> flips;
};

StreamingMotifCounter::StreamingMotifCounter(const StreamConfig& config)
    : config_(config), live_(config.window) {
  TMOTIF_CHECK(config_.num_threads >= 1);
  TMOTIF_CHECK_MSG(config_.lateness >= 0, "lateness must be >= 0");
  internal::ValidateEnumerationOptions(config_.options);
  has_order_predicate_ =
      config_.options.consecutive_events_restriction ||
      config_.options.cdg_restriction ||
      config_.options.inducedness == Inducedness::kTemporalWindow;
  uses_static_inducedness_ =
      config_.options.inducedness == Inducedness::kStatic;
  // The store factorizes validity into a purely instance-local candidate
  // predicate (connectivity, node cap, timing) and a cached per-entry
  // static coverage verdict, re-evaluated per flipped pair via the
  // node-pair buckets.
  uses_store_ = UsesInstanceStore(config_.options);
  candidate_options_ = config_.options;
  if (uses_store_) candidate_options_.inducedness = Inducedness::kNone;
  scratch_ = std::make_unique<DeltaScratch>(live_, config_.options);
}

StreamingMotifCounter::~StreamingMotifCounter() = default;

std::vector<std::pair<MotifCode, std::uint64_t>>
StreamingMotifCounter::TopMotifs(std::size_t limit) const {
  auto sorted = counts_.SortedByCount();
  if (limit > 0 && sorted.size() > limit) sorted.resize(limit);
  return sorted;
}

TemporalGraph StreamingMotifCounter::window_graph() const {
  TemporalGraphBuilder builder;
  for (const Event& e : live_.events()) builder.AddEvent(e);
  // The window is canonically sorted, so builder.Build()'s stable sort is
  // the identity and graph indices equal window positions.
  return builder.Build();
}

std::optional<Timestamp> StreamingMotifCounter::SpanBound() const {
  std::optional<Timestamp> bound;
  if (options().timing.delta_w.has_value()) bound = *options().timing.delta_w;
  if (options().timing.delta_c.has_value() && options().num_events > 1) {
    Timestamp per_gap = *options().timing.delta_c;
    if (options().duration_aware_gaps) {
      // Gaps are measured from event end times, so each may stretch by the
      // longest duration ever seen (conservative but safe).
      per_gap = SatAdd(per_gap, max_duration_seen_);
    }
    const Timestamp loose = LooseWindowBound(per_gap, options().num_events);
    if (loose == std::numeric_limits<Timestamp>::max()) return bound;
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
    const Event& e = live_.events()[i];
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

void StreamingMotifCounter::RecountWindow() {
  obs::PhaseTimer span(StreamMetrics::Get().recount, "stream.recount");
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

void StreamingMotifCounter::ApplyAndRecount(
    const IngestPlan& plan, const std::vector<Event>& batch,
    std::uint64_t IngestStats::*reason) {
  live_.Apply(plan, batch);
  RecountWindow();
  if (reason != nullptr) ++(stats_.*reason);
}

void StreamingMotifCounter::AddNewInstances(
    Timestamp t_min, Timestamp t_max, const std::optional<Timestamp>& span) {
  // An instance that contains an entered event starts at or after
  // t_min - span and ends at or before t_max + span.
  const EventIndex lo = FirstPossibleStart(live_, t_min, span);
  internal::PackedMotifTable added;
  if (scratch_->fast) {
    internal::fast_paths::NoteDispatch(true);
    // Window difference with an exclude-entered filter: every instance that
    // contains an entered event lies inside [lo, hi), so [lo, hi) counted
    // over all events minus the same window counted over old events only
    // is exactly the arrivals, per code.
    const EventIndex hi = span.has_value()
                              ? live_.UpperBoundTime(SatAdd(t_max, *span))
                              : live_.num_events();
    scratch_->fast->CountDifferenceInto(
        lo, lo, hi,
        [this](EventIndex i) {
          return is_new_[static_cast<std::size_t>(i)] == 0;
        },
        &added);
  } else {
    internal::fast_paths::NoteDispatch(false);
    // Such an instance also starts at or before t_max.
    auto sink = internal::MakeFnSink(
        [&](const EventIndex* chosen, int k, std::uint64_t packed) {
          if (ContainsEntered(is_new_, chosen, k)) added.Add(packed);
        });
    internal::EnumerateCore(live_, config_.options, lo,
                            live_.UpperBoundTime(t_max), sink);
  }
  stats_.instances_added += added.total();
  counts_.AddTable(added);
}

// --- Live-instance store path. ---

void StreamingMotifCounter::RebuildStore() {
  // Anchors restart at the window's current id base.
  store_.Reset(live_.first_id());
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
  auto sink = MakeNodeFnSink([&](const EventIndex* chosen, int k,
                                 std::uint64_t packed, const NodeId* nodes,
                                 int num_nodes) {
    if (!keep(chosen, k)) return;
    const int distinct = internal::PackedDistinctPairCount(packed, k);
    const bool covered =
        distinct == ScopeStaticEdges(live_, nodes, num_nodes);
    store_.Insert(live_.first_id() + static_cast<std::uint64_t>(chosen[0]),
                  packed, nodes, num_nodes, distinct, covered);
    if (covered) added.Add(packed);
  });
  internal::EnumerateCore(live_, candidate_options_, lo, hi, sink);
  if (count_churn) stats_.instances_added += added.total();
  counts_.AddTable(added);
}

void StreamingMotifCounter::StoreEvict(std::size_t num_evict) {
  internal::PackedMotifTable retired;
  store_.EvictFront(num_evict, [&](const LiveInstanceStore::Entry& entry) {
    if (entry.covered) retired.Add(entry.packed);
  });
  stats_.instances_retracted += retired.total();
  counts_.SubtractTable(retired);
}

void StreamingMotifCounter::StoreProcessFlips(
    const std::vector<std::pair<NodeId, NodeId>>& flips) {
  if (flips.empty()) return;
  const std::uint64_t stamp = store_.NextVisitStamp();
  internal::PackedMotifTable admitted;
  internal::PackedMotifTable retired;
  for (const auto& [u, v] : flips) {
    store_.ForEachTouching(u, v, [&](LiveInstanceStore::Entry& entry) {
      if (entry.visit_stamp == stamp) return;  // Touched via another flip.
      entry.visit_stamp = stamp;
      ++stats_.store_entries_touched;
      const bool covered =
          entry.distinct_pairs ==
          ScopeStaticEdges(live_, entry.nodes.data(), entry.num_nodes);
      if (covered == entry.covered) return;
      entry.covered = covered;
      (covered ? admitted : retired).Add(entry.packed);
    });
  }
  ++stats_.store_flip_batches;
  stats_.store_admitted += admitted.total();
  stats_.store_retired += retired.total();
  counts_.AddTable(admitted);
  counts_.SubtractTable(retired);
}

// --- Ingestion. ---

void StreamingMotifCounter::Ingest(std::vector<Event> batch) {
  StreamMetrics& metrics = StreamMetrics::Get();
  metrics.batch_events->Record(batch.size());
  obs::PhaseTimer ingest_span(metrics.ingest_latency, "stream.ingest");
  std::stable_sort(batch.begin(), batch.end(), EventTimeLess);
  for (const Event& e : batch) {
    TMOTIF_CHECK_MSG(e.src >= 0 && e.dst >= 0, "negative node id");
    TMOTIF_CHECK_MSG(e.src != e.dst,
                     "self-loop events must be filtered before ingestion");
    TMOTIF_CHECK_MSG(e.duration >= 0, "negative duration");
  }
  ++stats_.batches;
  stats_.events_ingested += batch.size();

  // Split off genuinely late events (strictly behind the stream clock):
  // beyond the lateness horizon they are dropped; the in-horizon ones take
  // the same delta path as the in-order suffix, ahead of it.
  std::size_t ordered_begin = 0;
  if (live_.saw_any_event()) {
    const Timestamp clock = live_.max_time_seen();
    while (ordered_begin < batch.size() &&
           batch[ordered_begin].time < clock) {
      ++ordered_begin;
    }
    if (ordered_begin > 0) {
      const Timestamp cutoff = SatSub(clock, config_.lateness);
      std::size_t accept_begin = 0;
      while (accept_begin < ordered_begin &&
             batch[accept_begin].time < cutoff) {
        ++accept_begin;
      }
      stats_.late_dropped += accept_begin;
      if (accept_begin < ordered_begin) {
        obs::PhaseTimer late_span(metrics.late_ingest, "stream.late_ingest");
        IngestSorted(
            std::vector<Event>(
                batch.begin() + static_cast<std::ptrdiff_t>(accept_begin),
                batch.begin() + static_cast<std::ptrdiff_t>(ordered_begin)),
            /*late=*/true);
      }
    }
  }
  if (ordered_begin == 0) {
    IngestSorted(batch, /*late=*/false);
  } else if (ordered_begin < batch.size()) {
    IngestSorted(std::vector<Event>(
                     batch.begin() + static_cast<std::ptrdiff_t>(ordered_begin),
                     batch.end()),
                 /*late=*/false);
  }
  EnforceStoreBudget();
  PublishTelemetry();
}

void StreamingMotifCounter::PublishTelemetry() {
  StreamMetrics& metrics = StreamMetrics::Get();
  for (std::size_t i = 0; i < kIngestStatFields.size(); ++i) {
    std::uint64_t IngestStats::*const field = kIngestStatFields[i].field;
    metrics.stats[i]->Add(stats_.*field - published_stats_.*field);
  }
  published_stats_ = stats_;
  metrics.store_compactions->Add(store_.compactions() -
                                 published_store_compactions_);
  published_store_compactions_ = store_.compactions();
  metrics.window_events->Set(static_cast<std::int64_t>(live_.size()));
  metrics.store_entries->Set(static_cast<std::int64_t>(store_.size()));
  metrics.store_bytes->Set(
      static_cast<std::int64_t>(store_active() ? store_.ApproxBytes() : 0));
  metrics.store_mode->Set(uses_store_ ? static_cast<std::int64_t>(store_mode_)
                                      : kNoStoreModeGauge);
}

void StreamingMotifCounter::IngestSorted(const std::vector<Event>& batch,
                                         bool late) {
  StreamMetrics& metrics = StreamMetrics::Get();
  const IngestPlan plan = live_.PlanIngest(batch);
  const std::size_t old_size = live_.size();
  const std::size_t num_new = batch.size() - plan.batch_begin;
  stats_.events_dropped += plan.batch_begin;
  if (num_new == 0 && plan.num_evict == 0) {
    live_.Apply(plan, batch);  // Still advances the stream clock; the
    return;                    // window content (and indices) is unchanged.
  }
  stats_.events_evicted += plan.num_evict;
  if (late) stats_.late_events += num_new;
  // Only events that actually enter widen the duration-aware span bound;
  // a dropped outlier must not degrade every later delta range.
  for (std::size_t i = plan.batch_begin; i < batch.size(); ++i) {
    max_duration_seen_ = std::max(max_duration_seen_, batch[i].duration);
  }

  // Full window turnover (including startup) recounts from scratch — there
  // is nothing incremental to preserve.
  if (plan.num_evict >= old_size) {
    ApplyAndRecount(plan, batch, late ? &IngestStats::late_recounts : nullptr);
    return;
  }

  const std::optional<Timestamp> span = SpanBound();
  const EventIndex n_evict = static_cast<EventIndex>(plan.num_evict);
  // Time range of the entered events (t_min meaningful when num_new > 0).
  const Timestamp t_min = num_new > 0 ? batch[plan.batch_begin].time : 0;
  const Timestamp t_max = batch.back().time;

  if (store_active()) {
    // Store path: candidate validity is instance-local, so survivors never
    // flip as candidates, and the store absorbs every static-edge flip by
    // retiring/admitting exactly the instances whose node set spans a
    // flipped pair. The only enumerations left are the same retract/add
    // deltas every model pays.
    const std::vector<std::pair<NodeId, NodeId>>& flips =
        CollectStaticEdgeFlips(plan.num_evict, batch, plan.batch_begin);
    if (n_evict > 0) StoreEvict(plan.num_evict);
    {
      obs::PhaseTimer phase_span(metrics.phase4_apply, "stream.phase4_apply");
      live_.Apply(plan, batch, &new_positions_);
    }
    // Each entered event renumbers the residents ordered after it (for an
    // in-order batch, only the trailing tie group); opening store slots at
    // the entered ids (ascending, so each insertion accounts for the
    // previous) shifts the entries anchored there in lockstep.
    for (const std::size_t p : new_positions_) {
      store_.SpliceSlot(live_.first_id() + p);
    }
    is_new_.assign(live_.size(), 0);
    for (const std::size_t p : new_positions_) is_new_[p] = 1;
    {
      obs::PhaseTimer phase_span(metrics.store_flips, "stream.store_flips");
      StoreProcessFlips(flips);  // Post-apply edge state.
    }
    if (num_new > 0) {
      obs::PhaseTimer phase_span(metrics.phase6_arrivals,
                                 "stream.phase6_arrivals");
      StoreAddCandidates(FirstPossibleStart(live_, t_min, span),
                         live_.UpperBoundTime(t_max),
                         [this](const EventIndex* chosen, int k) {
                           return ContainsEntered(is_new_, chosen, k);
                         });
    }
    if (late) ++stats_.late_splices;
    return;
  }

  // A surviving instance can flip validity only under an order predicate,
  // and only when an evicted or entered event lies inside its time span
  // [t_first, t_last] (or via static-edge flips). Evicted events form a
  // canonical prefix, so they reach a survivor only by tying its first
  // timestamp; entered events reach every survivor that ends at or after
  // t_min and starts at or before t_max. See docs/STREAMING.md.
  const bool evict_tie =
      n_evict > 0 && live_.event_time(n_evict - 1) == live_.event_time(n_evict);
  const Timestamp t_ev = n_evict > 0 ? live_.event_time(n_evict - 1) : 0;
  // The newest resident survives (num_evict < old_size), so it bounds every
  // survivor's last event.
  const Timestamp old_max =
      live_.event_time(static_cast<EventIndex>(old_size) - 1);
  const bool entry_overlap = num_new > 0 && old_max >= t_min;

  // Static inducedness without the store (an order predicate, or a memory
  // budget turned it off): a batch that flips a static edge changes the
  // validity of every survivor whose node set spans the flipped pair,
  // wherever it lies in the window, so it recounts the window. Otherwise
  // the edge set is the same before and after the batch. Under an order
  // predicate the survivor corrections also evaluate survivors between
  // eviction and entry, so a batch whose eviction alone removes an edge
  // (even one the batch re-adds) recounts when one of them runs.
  bool evicts_edge = false;
  const bool flips_edge =
      !CollectStaticEdgeFlips(plan.num_evict, batch, plan.batch_begin,
                              &evicts_edge)
           .empty();
  if (flips_edge || (has_order_predicate_ && evicts_edge &&
                     (evict_tie || entry_overlap))) {
    ApplyAndRecount(plan, batch,
                    late ? &IngestStats::late_recounts
                         : &IngestStats::static_fallbacks);
    return;
  }

  // Phase 1 — retire the evicted prefix. The evicted events form a
  // canonical prefix, so an instance loses an event exactly when its first
  // event is evicted; those are retracted on the pre-update indices. Under
  // an order predicate, survivors whose first event ties the eviction
  // boundary are removed too, at the validity they were counted with
  // (phase 2 re-adds them). Then the prefix leaves the window and the live
  // indices as an update of its own — an empty batch moves no clock and
  // pops no resident — so phases 2 and 3 run on the survivors.
  const bool evict_correction = has_order_predicate_ && evict_tie;
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
              ? live_.UpperBoundTime(
                    SatAdd(live_.event_time(n_evict - 1), *span))
              : live_.num_events();
      scratch_->fast->CountDifferenceInto(
          0, n_evict, hi1, [](EventIndex) { return true; }, &retracted);
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
    live_.Apply(IngestPlan{plan.num_evict, 0}, {});
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

  // Phases 3 and 5 — the entry-side correction. Under an order predicate
  // every survivor whose time span overlaps [t_min, t_max] is removed at
  // its validity on the survivors (phase 3) and re-added at its validity
  // with the entered events (phase 5). Such a survivor ends at or after
  // t_min and starts at or before min(t_max, old_max), and timing bounds
  // how far before t_min it can start. For an in-order batch t_min can
  // only tie old_max, so these are the append-tie survivors.
  const bool entry_correction = has_order_predicate_ && entry_overlap;
  const Timestamp overlap_hi_time = std::min(t_max, old_max);
  const auto ends_in_reach = [&](const EventIndex* chosen, int k) {
    return live_.event_time(chosen[k - 1]) >= t_min;
  };
  if (entry_correction) {
    obs::PhaseTimer phase_span(metrics.phase3_append_tie,
                               "stream.phase3_append_tie");
    internal::PackedMotifTable table;
    auto sink = internal::MakeFnSink(
        [&](const EventIndex* chosen, int k, std::uint64_t packed) {
          if (ends_in_reach(chosen, k)) table.Add(packed);
        });
    internal::EnumerateCore(live_, config_.options,
                            FirstPossibleStart(live_, t_min, span),
                            live_.UpperBoundTime(overlap_hi_time), sink);
    counts_.SubtractTable(table);
    ++stats_.tie_corrections;
  }

  // Phase 4 — enter the batch: merge it into the window and update the
  // live indices incrementally (O(residents ordered after the first
  // entered event + entered); no window-graph rebuild).
  {
    obs::PhaseTimer phase_span(metrics.phase4_apply, "stream.phase4_apply");
    live_.Apply(IngestPlan{0, plan.batch_begin}, batch, &new_positions_);
  }
  is_new_.assign(live_.size(), 0);
  for (const std::size_t p : new_positions_) is_new_[p] = 1;

  if (entry_correction) {
    obs::PhaseTimer phase_span(metrics.phase5_append_add,
                               "stream.phase5_append_add");
    internal::PackedMotifTable table;
    auto sink = internal::MakeFnSink(
        [&](const EventIndex* chosen, int k, std::uint64_t packed) {
          if (ContainsEntered(is_new_, chosen, k)) return;
          if (ends_in_reach(chosen, k)) table.Add(packed);
        });
    internal::EnumerateCore(live_, config_.options,
                            FirstPossibleStart(live_, t_min, span),
                            live_.UpperBoundTime(overlap_hi_time), sink);
    counts_.AddTable(table);
  }

  // Phase 6 — count the instances that contain an entered event.
  if (num_new > 0) {
    obs::PhaseTimer phase_span(metrics.phase6_arrivals,
                               "stream.phase6_arrivals");
    AddNewInstances(t_min, t_max, span);
  }
  if (late) ++stats_.late_splices;
}

// --- Memory-budget degradation. ---

void StreamingMotifCounter::EnforceStoreBudget() {
  if (!store_active() || config_.store_budget_bytes == 0) return;
  std::size_t pressure = 0;
  if (const auto injected = fault::Consume("stream.budget_pressure")) {
    if (*injected > 0) pressure = static_cast<std::size_t>(*injected);
  }
  // A batch must never end over budget. The switch is one-way: the store
  // stays off for the rest of the counter's life, and its memory goes back
  // to the allocator.
  if (store_.ApproxBytes() + pressure <= config_.store_budget_bytes) return;
  store_.Reset(live_.first_id());
  store_mode_ = StoreMode::kRecount;
  ++stats_.store_demotions_recount;
}

// --- Checkpoint capture / restore. ---

StreamCheckpointState StreamingMotifCounter::CaptureCheckpointState() const {
  StreamCheckpointState state;
  state.window_events.assign(live_.events().begin(), live_.events().end());
  state.max_time_seen = live_.max_time_seen();
  state.saw_any_event = live_.saw_any_event();
  state.max_duration_seen = max_duration_seen_;
  state.stats = stats_;
  state.counts.assign(counts_.raw().begin(), counts_.raw().end());
  std::sort(state.counts.begin(), state.counts.end());
  state.store_mode = store_mode_;
  return state;
}

bool StreamingMotifCounter::RestoreCheckpointState(
    const StreamCheckpointState& state, std::string* error) {
  live_.Restore(state.window_events, state.max_time_seen,
                state.saw_any_event);
  max_duration_seen_ = state.max_duration_seen;
  stats_ = state.stats;
  // Exported metrics are deltas against published_stats_; after a restore
  // they must reflect post-restore activity only, not replay history.
  published_stats_ = stats_;
  // Only a budget turns the store off (EnforceStoreBudget), so a store-off
  // state restored without one comes back store-on.
  store_mode_ = uses_store_ && config_.store_budget_bytes != 0
                    ? state.store_mode
                    : StoreMode::kFull;
  MotifCounts restored;
  for (const auto& [packed, n] : state.counts) restored.AddPacked(packed, n);
  store_.Reset(live_.first_id());
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
  return true;
}

}  // namespace tmotif
