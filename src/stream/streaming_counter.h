#ifndef TMOTIF_STREAM_STREAMING_COUNTER_H_
#define TMOTIF_STREAM_STREAMING_COUNTER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/counter.h"
#include "core/enumerator.h"
#include "graph/temporal_graph.h"
#include "stream/instance_store.h"
#include "stream/window_graph.h"

namespace tmotif {

/// State of the live-instance store (see docs/RESILIENCE.md). `kFull`: the
/// store is on and absorbs every static-edge flip. `kRecount`: a memory
/// budget turned the store off for the rest of the counter's life; every
/// flip batch recounts the window. The numeric values are the
/// `stream.store_mode` gauge and the checkpoint byte.
enum class StoreMode : std::uint8_t {
  kFull = 0,
  kRecount = 2,
};

/// `stream.store_mode` gauge value of a counter whose config keeps no store
/// (StreamingMotifCounter::UsesInstanceStore is false). No StoreMode takes
/// it, and the checkpoint byte never holds it.
inline constexpr std::int64_t kNoStoreModeGauge = 1;

/// Configuration of a streaming motif counter.
struct StreamConfig {
  /// Motif model of the maintained counts: any option set the batch stack
  /// supports.
  EnumerationOptions options;
  WindowPolicy window = WindowPolicy::CountBased(4096);
  /// Worker threads for store-off window recounts of configs without the
  /// k <= 3 fast path (internal::CountPackedSharded, core/parallel.h).
  /// Arrivals, corrections and the live-instance store fill run serially.
  int num_threads = 1;
  /// Bounded out-of-order ingestion: events arriving up to `lateness`
  /// seconds behind the stream clock (`max_time_seen`) enter the window at
  /// their canonical position through the same delta path as in-order
  /// events; later ones are dropped and counted in
  /// `IngestStats::late_dropped`. 0 (the default) accepts only in-order
  /// streams — late events are dropped, not fatal.
  Timestamp lateness = 0;
  /// Memory budget for the live-instance store, in approximate resident
  /// bytes (LiveInstanceStore::ApproxBytes). 0 (the default) = unlimited.
  /// The first batch that leaves the store over budget turns the store off
  /// (StoreMode::kRecount) for the rest of the counter's life and frees
  /// it, instead of letting it grow without bound. Counts are exact in
  /// both states. Not part of the checkpoint config fingerprint
  /// (operational, restorable across budget changes). Only configs that
  /// keep the store (StreamingMotifCounter::UsesInstanceStore) read it.
  std::size_t store_budget_bytes = 0;
};

/// Per-stream ingestion counters, exposed for tools and benchmarks.
struct IngestStats {
  std::uint64_t batches = 0;
  std::uint64_t events_ingested = 0;
  /// Batch events the window policy expired before they ever entered.
  std::uint64_t events_dropped = 0;
  std::uint64_t events_evicted = 0;
  /// Instance-level churn of the delta path.
  std::uint64_t instances_added = 0;
  std::uint64_t instances_retracted = 0;
  /// Order-predicate re-evaluation passes over survivors: an eviction tying
  /// a survivor's first timestamp, or entered events inside a survivor's
  /// time span (see docs/STREAMING.md).
  std::uint64_t tie_corrections = 0;
  /// Window recounted from scratch: startup, window turnover, or — store
  /// off only — a batch that flips a static edge, or that under an order
  /// predicate evicts an edge's last occurrence while a correction pass
  /// runs.
  std::uint64_t full_recounts = 0;
  /// In-order batches whose static-edge flip (or edge eviction) forced a
  /// full-window recount (store off only).
  std::uint64_t static_fallbacks = 0;
  /// Always 0: the scoped store-off correction that counted its batches
  /// and roots is gone. Kept only because pipebench/pipebench.cc reports
  /// them; neither serialized nor exported.
  std::uint64_t scoped_static_recounts = 0;
  std::uint64_t scoped_recount_roots = 0;
  /// Static-edge flip batches absorbed by the live-instance store, the
  /// store entries those flips re-evaluated, and the counted-set changes
  /// they caused (admissions re-enter the counts, retirements leave).
  std::uint64_t store_flip_batches = 0;
  std::uint64_t store_entries_touched = 0;
  std::uint64_t store_admitted = 0;
  std::uint64_t store_retired = 0;
  /// Memory-budget demotions (see docs/RESILIENCE.md): the store turned
  /// off.
  std::uint64_t store_demotions_recount = 0;
  /// Always 0: there is no counted-only store state. Kept only because
  /// pipebench/pipebench.cc reports it; neither serialized nor exported.
  std::uint64_t store_demotions_counted = 0;
  /// Out-of-order ingestion: late events that entered the window, late
  /// events beyond the lateness horizon (dropped), late sub-batches the
  /// delta path applied, and late sub-batches that recounted the window
  /// (a static flip with the store off, or window turnover).
  std::uint64_t late_events = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t late_splices = 0;
  std::uint64_t late_recounts = 0;
};

/// One exported `IngestStats` counter: its `stream.*` metric name and its
/// field.
struct IngestStatField {
  const char* metric;
  std::uint64_t IngestStats::*field;
};

/// The `IngestStats` counters PublishTelemetry mirrors into the metrics
/// registry, in the order the checkpoint's stats block stores them
/// (docs/RESILIENCE.md). The always-zero fields are in neither.
inline constexpr std::array<IngestStatField, 18> kIngestStatFields = {{
    {"stream.batches", &IngestStats::batches},
    {"stream.events_ingested", &IngestStats::events_ingested},
    {"stream.events_dropped", &IngestStats::events_dropped},
    {"stream.events_evicted", &IngestStats::events_evicted},
    {"stream.instances_added", &IngestStats::instances_added},
    {"stream.instances_retracted", &IngestStats::instances_retracted},
    {"stream.tie_corrections", &IngestStats::tie_corrections},
    {"stream.full_recounts", &IngestStats::full_recounts},
    {"stream.static_fallbacks", &IngestStats::static_fallbacks},
    {"stream.store_flip_batches", &IngestStats::store_flip_batches},
    {"stream.store_entries_touched", &IngestStats::store_entries_touched},
    {"stream.store_admitted", &IngestStats::store_admitted},
    {"stream.store_retired", &IngestStats::store_retired},
    {"stream.store_demotions_recount", &IngestStats::store_demotions_recount},
    {"stream.late_events", &IngestStats::late_events},
    {"stream.late_dropped", &IngestStats::late_dropped},
    {"stream.late_splices", &IngestStats::late_splices},
    {"stream.late_recounts", &IngestStats::late_recounts},
}};

/// Complete restorable state of a StreamingMotifCounter, as captured by
/// CaptureCheckpointState() — the in-memory form of the durable checkpoint
/// (stream/checkpoint.h owns the byte encoding and the file I/O). The live
/// window indices and the instance store are deliberately NOT part of the
/// state: both are regenerated from the window events on restore. The
/// monotone-id space restarts at zero then, which is unobservable — ids
/// only ever relate store entries to window positions.
struct StreamCheckpointState {
  /// The window, in canonical order (WindowGraph::events()).
  std::vector<Event> window_events;
  Timestamp max_time_seen = 0;
  bool saw_any_event = false;
  Duration max_duration_seen = 0;
  IngestStats stats;
  /// counts() as (packed code, count) pairs, ascending by packed code.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
  /// Store state (meaningful only for configs that keep the store; kFull
  /// otherwise).
  StoreMode store_mode = StoreMode::kFull;
};

/// Maintains exact per-motif counts over a sliding window of an event
/// stream. On arrival, only instances that include an entered event are
/// enumerated (timing bounds their first events to a range around the
/// entered ones); on expiry, only instances anchored at an evicted event
/// are retracted. The order predicates (consecutive events, CDG,
/// temporal-window inducedness) read events inside an instance's time
/// span, so surviving instances whose span reaches an evicted or entered
/// event are re-evaluated. Static inducedness without an order predicate
/// is handled by the node-pair live-instance store
/// (stream/instance_store.h) — every static edge flip retires/admits
/// exactly the affected instances, fully incremental at any batch size;
/// every other static config, and a store turned off by a memory budget,
/// recounts the window on each flip batch. The invariant —
/// asserted by tests/stream_test.cc across the oracle grid — is that after
/// every batch, `counts()` equals
/// `CountMotifs(GraphFromEvents(window events), options)` exactly.
///
/// The window is one `WindowGraph` (stream/window_graph.h): its events,
/// clock and incrementally maintained per-node / per-edge indices. Every
/// count — deltas and whole-window recounts alike — runs on the
/// devirtualized core (core/enumerate_core.h) or the fast paths directly
/// over those indices; no batch builds a graph or rebuilds the indices.
/// Every delta reaches `counts()` as a packed-code table through
/// MotifCounts::AddTable / SubtractTable; no code is spelled on the ingest
/// path. Only `window_graph()` builds a TemporalGraph of the window, on
/// every call, with no cache.
///
/// One writer: `Ingest` and `RestoreCheckpointState` must not overlap any
/// other call. Between batches, any number of threads may call the const
/// accessors concurrently.
///
/// Streams should be time-ordered: each batch's earliest timestamp at or
/// above the largest timestamp already ingested (equal is fine;
/// simultaneous events never share an instance but may interleave
/// arbitrarily across batches). Late events are tolerated up to
/// `StreamConfig::lateness`: each batch's late part enters the window at
/// its canonical position through the same delta path, ahead of the
/// in-order part; beyond the horizon they are dropped (`late_dropped`).
/// Events are checked like `TemporalGraphBuilder::AddEvent` checks them: a
/// negative node id or duration aborts, and so does a self-loop, which the
/// caller must filter (graph_io's loader does this).
class StreamingMotifCounter {
 public:
  explicit StreamingMotifCounter(const StreamConfig& config);
  ~StreamingMotifCounter();
  // The delta scratch refers to the window and the options, so a counter
  // never moves.
  StreamingMotifCounter(const StreamingMotifCounter&) = delete;
  StreamingMotifCounter& operator=(const StreamingMotifCounter&) = delete;

  /// Ingests one batch (any internal order; it is sorted canonically).
  void Ingest(std::vector<Event> batch);

  /// Current per-motif counts of the window; exact at every point.
  const MotifCounts& counts() const { return counts_; }
  std::uint64_t total() const { return counts_.total(); }

  /// The `limit` most frequent motifs (ties by code, deterministic);
  /// limit 0 = all.
  std::vector<std::pair<MotifCode, std::uint64_t>> TopMotifs(
      std::size_t limit) const;

  /// The window as a graph (canonical event order, identical to a
  /// from-scratch build of the same events), built from the window's
  /// events on every call, with no cache; the ingest path never builds it.
  /// Safe for concurrent const readers.
  TemporalGraph window_graph() const;
  std::size_t window_size() const { return live_.size(); }
  Timestamp window_min_time() const {
    return live_.empty() ? 0 : live_.events().front().time;
  }
  Timestamp window_max_time() const {
    return live_.empty() ? 0 : live_.events().back().time;
  }
  Timestamp max_time_seen() const { return live_.max_time_seen(); }

  const StreamConfig& config() const { return config_; }
  const IngestStats& stats() const { return stats_; }
  /// True when a counter with these options keeps the live-instance store:
  /// static inducedness without the consecutive-events or CDG restriction
  /// (docs/STREAMING.md, "Which configs use the store"). Every other config
  /// streams store-off and ignores `store_budget_bytes`.
  static bool UsesInstanceStore(const EnumerationOptions& options) {
    return options.inducedness == Inducedness::kStatic &&
           !options.consecutive_events_restriction && !options.cdg_restriction;
  }
  /// True when static flips are absorbed by the live-instance store (the
  /// config keeps one and the memory budget has not turned it off).
  bool store_active() const {
    return uses_store_ && store_mode_ == StoreMode::kFull;
  }
  /// Current store state (kFull unless a `store_budget_bytes` enforcement
  /// pass turned the store off).
  StoreMode store_mode() const { return store_mode_; }
  /// Live candidate instances held by the store (its memory driver; 0 when
  /// the store is inactive). See docs/STREAMING.md for the memory model.
  std::size_t store_size() const { return store_.size(); }
  /// Approximate resident bytes of the live-instance store (0 when
  /// inactive); see LiveInstanceStore::ApproxBytes.
  std::size_t store_approx_bytes() const {
    return store_active() ? store_.ApproxBytes() : 0;
  }

  /// Captures the complete restorable state (see StreamCheckpointState).
  /// Call only between batches.
  StreamCheckpointState CaptureCheckpointState() const;

  /// Restores captured state into this counter, which must have been
  /// constructed with an equivalent config (stream/checkpoint.h enforces
  /// that via the config fingerprint). The window is reloaded, the live
  /// indices and — when active — the instance store are regenerated, and
  /// the regenerated counted set is cross-checked against the checkpointed
  /// counts. A store-off state keeps the store off only when this counter
  /// has a `store_budget_bytes`; without one the store is on. Returns false
  /// (with `error` set, if non-null) when the state is internally
  /// inconsistent; the counter must then be discarded.
  bool RestoreCheckpointState(const StreamCheckpointState& state,
                              std::string* error);

 private:
  /// Upper bound on instance timespans implied by the timing constraints
  /// (nullopt when unbounded).
  std::optional<Timestamp> SpanBound() const;

  /// Directed static edges of the window whose existence flips (appears or
  /// disappears) when the `num_evict`-event canonical prefix leaves and
  /// `added[added_begin:]` enters; always empty without static inducedness.
  /// Deterministic order (sorted by node-pair key). The list lives in the
  /// delta scratch and stays valid until the next call. `evicts_edge`
  /// (optional) reports whether the prefix alone holds every occurrence of
  /// some edge, i.e. whether the survivors' edge set lacks one.
  const std::vector<std::pair<NodeId, NodeId>>& CollectStaticEdgeFlips(
      std::size_t num_evict, const std::vector<Event>& added,
      std::size_t added_begin, bool* evicts_edge = nullptr);

  /// The one delta path of Ingest: applies a canonically sorted batch —
  /// the in-order part (every time at or above the stream clock) or the
  /// in-horizon late part (`late`, every time below it) — and corrects the
  /// counts, or recounts the window where no delta pass can (startup,
  /// turnover, a store-off static flip).
  void IngestSorted(const std::vector<Event>& batch, bool late);

  // --- Live-instance store path (store_active()). ---

  /// Re-populates the store and counts from scratch on the live indices.
  void RebuildStore();
  /// Retires the store entries anchored at the `num_evict` oldest events.
  void StoreEvict(std::size_t num_evict);
  /// Re-evaluates the coverage check of every entry touching a flipped
  /// pair; retires/admits on change (post-apply edge state).
  void StoreProcessFlips(
      const std::vector<std::pair<NodeId, NodeId>>& flips);
  /// Enumerates candidates with first event in [lo, hi) accepted by
  /// `keep(chosen, k)`, inserts them, and counts the valid ones.
  /// `count_churn` feeds `instances_added` (false for rebuilds, which are
  /// recounts, matching the non-store recount path's stat semantics).
  template <typename Keep>
  void StoreAddCandidates(EventIndex lo, EventIndex hi, Keep keep,
                          bool count_churn = true);

  // --- Memory-budget degradation (docs/RESILIENCE.md). ---

  /// End-of-batch budget enforcement: turns the store off for good, and
  /// frees it, when its footprint exceeds `store_budget_bytes`. No-op
  /// without a budget or with the store already off.
  void EnforceStoreBudget();

  /// Applies the plan and recounts the whole window on the live indices
  /// (startup, full window turnover, or a store-off static-edge flip), and
  /// bumps `reason` (if non-null) besides `full_recounts`.
  void ApplyAndRecount(const IngestPlan& plan, const std::vector<Event>& batch,
                       std::uint64_t IngestStats::*reason);
  /// Recounts the window on the indices Apply already updated (store
  /// rebuild included when active). The store-off DFS recount is the one
  /// streaming path split over `StreamConfig::num_threads`.
  void RecountWindow();
  /// Adds the instances of the live window that contain an event flagged
  /// in `is_new_`; the entered events' times lie in [t_min, t_max].
  void AddNewInstances(Timestamp t_min, Timestamp t_max,
                       const std::optional<Timestamp>& span);

  /// Mirrors the IngestStats deltas since the last publish into the
  /// process-wide metrics registry (stream.* counters) and refreshes the
  /// window/store gauges. Runs once per Ingest. The struct stays the
  /// authoritative per-stream snapshot (callers hold references to it
  /// across batches).
  void PublishTelemetry();

  const EnumerationOptions& options() const { return config_.options; }

  /// Per-batch buffers of the delta path, reused by every batch (defined in
  /// the .cc, which keeps core/fast_paths out of this header).
  struct DeltaScratch;

  StreamConfig config_;
  /// Consecutive events, CDG or temporal-window inducedness: a predicate
  /// that reads the events inside an instance's time span, so evicted and
  /// entered events there can flip a surviving instance.
  bool has_order_predicate_ = false;
  /// Static inducedness: batches that flip a static edge need the store or
  /// a recount.
  bool uses_static_inducedness_ = false;
  /// UsesInstanceStore(options): the store handles flips whenever the
  /// memory budget has not turned it off (store_active()).
  bool uses_store_ = false;
  /// Store state; only EnforceStoreBudget and checkpoint restore move it,
  /// so it is stable within a batch.
  StoreMode store_mode_ = StoreMode::kFull;
  /// store_.compactions() at the last PublishTelemetry (delta mirroring).
  std::uint64_t published_store_compactions_ = 0;
  /// `options` with the static coverage check stripped — the candidate
  /// predicate the store path enumerates with (purely instance-local; the
  /// coverage verdict is cached per entry).
  EnumerationOptions candidate_options_;

  /// The window: events, clock and indices. Store anchors are its monotone
  /// ids (`live_.first_id() + position`).
  WindowGraph live_;
  LiveInstanceStore store_;
  MotifCounts counts_;
  IngestStats stats_;
  /// Value of stats_ at the last PublishTelemetry (delta mirroring).
  IngestStats published_stats_;
  /// Largest event duration ever ingested; feeds the duration-aware span
  /// bound (conservative: never shrinks as events expire).
  Duration max_duration_seen_ = 0;
  /// Scratch: window position -> entered with the current batch, and the
  /// entered positions (ascending) WindowGraph::Apply reports.
  std::vector<char> is_new_;
  std::vector<std::size_t> new_positions_;
  /// Holds references to live_ and config_.options; they stay valid because
  /// the class is neither copyable nor movable.
  std::unique_ptr<DeltaScratch> scratch_;
};

}  // namespace tmotif

#endif  // TMOTIF_STREAM_STREAMING_COUNTER_H_
