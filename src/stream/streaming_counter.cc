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
      n.splice_apply = r.GetHistogram("stream.splice_apply_latency_ns");
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
  auto sink = MakeNodeFnSink([&](const EventIndex* chosen, int k,
                                 std::uint64_t packed, const NodeId* nodes,
                                 int num_nodes) {
    if (!keep(chosen, k)) return;
    const int distinct = internal::PackedDistinctPairCount(packed, k);
    const bool covered =
        distinct == ScopeStaticEdges(live_, nodes, num_nodes);
    store_.Insert(id_offset_ + static_cast<std::uint64_t>(chosen[0]), packed,
                  nodes, num_nodes, distinct, covered);
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
      const Timestamp cutoff = SatSub(clock, config_.lateness);
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
  for (std::size_t i = 0; i < kIngestStatFields.size(); ++i) {
    std::uint64_t IngestStats::*const field = kIngestStatFields[i].field;
    metrics.stats[i]->Add(stats_.*field - published_stats_.*field);
  }
  published_stats_ = stats_;
  metrics.store_compactions->Add(store_.compactions() -
                                 published_store_compactions_);
  published_store_compactions_ = store_.compactions();
  metrics.window_events->Set(static_cast<std::int64_t>(window_.size()));
  metrics.store_entries->Set(static_cast<std::int64_t>(store_.size()));
  metrics.store_bytes->Set(
      static_cast<std::int64_t>(store_active() ? store_.ApproxBytes() : 0));
  metrics.store_mode->Set(uses_store_ ? static_cast<std::int64_t>(store_mode_)
                                      : kNoStoreModeGauge);
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
      obs::PhaseTimer span(metrics.phase4_apply, "stream.phase4_apply");
      live_.BeginUpdate(plan, batch);
      window_.Apply(plan, batch, &new_positions_);
      live_.FinishUpdate();
    }
    id_offset_ += plan.num_evict;
    // Batch events interleaving within the trailing tie group renumber the
    // resident tie-group events; opening store slots at the entered ids
    // (ascending, so each insertion accounts for the previous) shifts the
    // entries anchored there in lockstep (only k = 1 entries can be).
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

  // Static inducedness without the store (an order predicate, or a memory
  // budget turned it off): a batch that flips a static edge changes the
  // validity of every survivor whose node set spans the flipped pair,
  // wherever it lies in the window, so it recounts the window. So does a
  // boundary-tie batch whose eviction alone removes an edge, even one the
  // batch re-adds: the tie corrections run on the survivors, whose edge
  // set is then neither the old nor the new one.
  bool evicts_edge = false;
  const bool flips_edge =
      !CollectStaticEdgeFlips(plan.num_evict, batch, plan.batch_begin,
                              &evicts_edge)
           .empty();
  if (flips_edge || (evicts_edge && (evict_tie || append_tie))) {
    ApplyAndRecount(plan, batch, /*is_static_fallback=*/true);
    return;
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
              ? live_.UpperBoundTime(
                    SatAdd(live_.event_time(n_evict - 1), *span))
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
  if (!uses_store_ || config_.store_budget_bytes == 0) return;
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
  // Only a budget can turn the store back on (EnforceStoreBudget), so a
  // store-off state restored without one comes back store-on.
  store_mode_ = uses_store_ && config_.store_budget_bytes != 0
                    ? state.store_mode
                    : StoreMode::kFull;
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
