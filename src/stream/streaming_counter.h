#ifndef TMOTIF_STREAM_STREAMING_COUNTER_H_
#define TMOTIF_STREAM_STREAMING_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/timespan_analysis.h"
#include "core/counter.h"
#include "core/enumerator.h"
#include "graph/temporal_graph.h"
#include "stream/instance_store.h"
#include "stream/stream_window.h"
#include "stream/window_graph.h"

namespace tmotif {

/// State of the live-instance store under static inducedness (see
/// docs/RESILIENCE.md). `kFull`: the store is on and absorbs every
/// static-edge flip. `kRecount`: a memory budget turned the store off;
/// flip batches take the scoped neighborhood correction or, where that
/// cannot localize, a window recount, until pressure clears. The numeric
/// values are the `stream.store_mode` gauge and the checkpoint byte.
enum class StoreMode : std::uint8_t {
  kFull = 0,
  kRecount = 2,
};

/// Configuration of a streaming motif counter.
struct StreamConfig {
  /// Motif model of the maintained counts. Any option set the batch stack
  /// supports is allowed except `max_instances` (truncated enumerations
  /// cannot be maintained incrementally).
  EnumerationOptions options;
  WindowPolicy window = WindowPolicy::CountBased(4096);
  /// Worker threads for store-off window recounts of configs without the
  /// k <= 3 fast path (internal::CountPackedSharded, core/parallel.h).
  /// Arrivals, corrections and the live-instance store fill run serially.
  int num_threads = 1;
  /// Bounded out-of-order ingestion: events arriving up to `lateness`
  /// seconds behind the stream clock (`max_time_seen`) are spliced into the
  /// window at their canonical position and corrected for; later ones are
  /// dropped and counted in `IngestStats::late_dropped`. 0 (the default)
  /// accepts only in-order streams — late events are dropped, not fatal.
  Timestamp lateness = 0;
  /// Memory budget for the live-instance store, in approximate resident
  /// bytes (LiveInstanceStore::ApproxBytes). 0 (the default) = unlimited.
  /// When a batch leaves the store over budget the counter turns the store
  /// off (StoreMode::kRecount) instead of growing without bound, and turns
  /// it back on once its estimated footprint fits under half the budget
  /// for 4 consecutive batches. Counts are exact in both states. Not part
  /// of the checkpoint config fingerprint (operational, restorable across
  /// budget changes).
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
  /// Boundary-timestamp re-evaluation passes (see docs/STREAMING.md).
  std::uint64_t tie_corrections = 0;
  /// Window recounted from scratch (startup, window turnover, a late-event
  /// splice the delta passes cannot localize, or — store off only — a
  /// static-edge flip that coincided with a boundary tie or resisted
  /// localization).
  std::uint64_t full_recounts = 0;
  /// Static-edge flips that forced a full-window recount (store off only).
  std::uint64_t static_fallbacks = 0;
  /// Static-edge flips handled by the scoped, neighborhood-restricted
  /// correction (store off only; see docs/STREAMING.md).
  std::uint64_t scoped_static_recounts = 0;
  /// Roots enumerated by scoped recounts (both halves), for cost tracking.
  std::uint64_t scoped_recount_roots = 0;
  /// Static-edge flip batches absorbed by the live-instance store, the
  /// store entries those flips re-evaluated, and the counted-set changes
  /// they caused (admissions re-enter the counts, retirements leave).
  std::uint64_t store_flip_batches = 0;
  std::uint64_t store_entries_touched = 0;
  std::uint64_t store_admitted = 0;
  std::uint64_t store_retired = 0;
  /// Store entries whose consecutive/CDG verdict was re-evaluated at a
  /// window boundary (store on, with an order predicate).
  std::uint64_t store_order_rechecks = 0;
  /// Memory-budget transitions (see docs/RESILIENCE.md): the store turned
  /// off, and turned back on.
  std::uint64_t store_demotions_recount = 0;
  std::uint64_t store_promotions_full = 0;
  /// Always 0: there is no counted-only store state. Kept only because
  /// pipebench/pipebench.cc reports it; neither serialized nor exported.
  std::uint64_t store_demotions_counted = 0;
  /// Out-of-order ingestion: late events spliced into the window, late
  /// events beyond the lateness horizon (dropped), late batches applied as
  /// delta corrections, and late batches that recounted the window.
  std::uint64_t late_events = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t late_splices = 0;
  std::uint64_t late_recounts = 0;
};

/// Complete restorable state of a StreamingMotifCounter, as captured by
/// CaptureCheckpointState() — the in-memory form of the durable checkpoint
/// (stream/checkpoint.h owns the byte encoding and the file I/O). The live
/// window indices and the instance store are deliberately NOT part of the
/// state: both are regenerated from the window events on restore. The
/// monotone-id space restarts at zero then, which is unobservable — ids
/// only ever relate store entries to window positions.
struct StreamCheckpointState {
  /// The window, in canonical order (StreamWindow::events()).
  std::vector<Event> window_events;
  Timestamp max_time_seen = 0;
  bool saw_any_event = false;
  Duration max_duration_seen = 0;
  IngestStats stats;
  /// counts() as (packed code, count) pairs, ascending by packed code.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
  /// Store state and promotion hysteresis (meaningful only under static
  /// inducedness; defaults otherwise).
  StoreMode store_mode = StoreMode::kFull;
  std::uint32_t promote_streak = 0;
  double full_bytes_per_event = 0.0;
};

/// Maintains exact per-motif counts over a sliding window of an event
/// stream. On arrival, only instances that include an arriving event are
/// enumerated (every such instance ends in one, so a bounded first-event
/// range suffices); on expiry, only instances anchored at an evicted event
/// are retracted. Models whose instance predicate reads graph state outside
/// the instance (consecutive-events, CDG, inducedness) get targeted
/// boundary corrections. Static inducedness is handled by the node-pair
/// live-instance store (stream/instance_store.h) — every static edge flip
/// retires/admits exactly the affected instances, fully incremental at any
/// batch size — and, while a memory budget keeps the store off, by a scoped
/// neighborhood correction with a window-recount fallback. The invariant —
/// asserted by tests/stream_test.cc across the oracle grid — is that after
/// every batch, `counts()` equals
/// `CountMotifs(GraphFromEvents(window events), options)` exactly.
///
/// All delta-path enumeration runs on the devirtualized core
/// (core/enumerate_core.h) directly over incrementally maintained
/// per-node / per-edge window indices (stream/window_graph.h) — no
/// per-batch window-graph rebuild. Every delta reaches `counts()` as a
/// packed-code table through MotifCounts::AddTable / SubtractTable; no code
/// is spelled on the ingest path. A TemporalGraph snapshot of the window
/// is materialized lazily, only when `window_graph()` / `WindowTimespans()`
/// are called.
///
/// Streams should be time-ordered: each batch's earliest timestamp at or
/// above the largest timestamp already ingested (equal is fine;
/// simultaneous events never share an instance but may interleave
/// arbitrarily across batches). Late events are tolerated up to
/// `StreamConfig::lateness`: they are spliced into the window at their
/// canonical position and the counts corrected; beyond the horizon they
/// are dropped (`late_dropped`). Self-loop events must be filtered by the
/// caller (graph_io's loader does this).
class StreamingMotifCounter {
 public:
  explicit StreamingMotifCounter(const StreamConfig& config);
  ~StreamingMotifCounter();

  /// Ingests one batch (any internal order; it is sorted canonically).
  void Ingest(std::vector<Event> batch);

  /// Current per-motif counts of the window; exact at every point.
  const MotifCounts& counts() const { return counts_; }
  std::uint64_t total() const { return counts_.total(); }

  /// The `limit` most frequent motifs (ties by code, deterministic);
  /// limit 0 = all.
  std::vector<std::pair<MotifCode, std::uint64_t>> TopMotifs(
      std::size_t limit) const;

  /// Timespan distribution of one motif code over the current window
  /// (snapshot-time enumeration via analysis/timespan_analysis.h).
  TimespanProfile WindowTimespans(const MotifCode& code, int num_bins = 30,
                                  Timestamp unbounded_hi = 3600) const;

  /// The window as a graph (canonical event order, identical to a
  /// from-scratch build of the same events). Materialized lazily: the hot
  /// ingest path never builds it.
  const TemporalGraph& window_graph() const;
  std::size_t window_size() const { return window_.size(); }
  Timestamp window_min_time() const {
    return window_.empty() ? 0 : window_.event(0).time;
  }
  Timestamp window_max_time() const {
    return window_.empty() ? 0 : window_.event(window_.size() - 1).time;
  }
  Timestamp max_time_seen() const { return window_.max_time_seen(); }

  const StreamConfig& config() const { return config_; }
  const IngestStats& stats() const { return stats_; }
  /// True when static flips are absorbed by the live-instance store (static
  /// inducedness, store not turned off by the memory budget).
  bool store_active() const {
    return uses_static_inducedness_ && store_mode_ == StoreMode::kFull;
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
  /// counts. Returns false (with `error` set, if non-null) when the state
  /// is internally inconsistent; the counter must then be discarded.
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

  /// In-order ingestion (every time at or above the stream clock). The
  /// shared tail of Ingest.
  void IngestOrdered(const std::vector<Event>& batch);

  /// Splices in-horizon late events (`late`, canonically sorted, all times
  /// strictly below the stream clock) and applies delta corrections — or a
  /// windowed recount where the deltas cannot localize the damage (see
  /// docs/STREAMING.md).
  void IngestLate(const std::vector<Event>& late);

  /// Applies the splice to the window + live indices (+ store anchor slots
  /// when active) and records the post-splice positions of the entered
  /// events in `spliced_positions_`.
  void ApplySplice(std::size_t num_evict, const std::vector<Event>& late,
                   std::size_t late_begin);

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
  /// Order-predicate (consecutive/CDG) verdict of an instance given as
  /// current window positions + digit-ordered nodes, evaluated against the
  /// live indices — the cached-flag source of truth.
  bool OrderValidAt(const EventIndex* pos, int k, const NodeId* nodes,
                    int num_nodes) const;
  /// Re-evaluates the order verdict of every store entry whose LAST event
  /// id (`by_tail`) or FIRST event id lies in [id_begin, id_end); admits or
  /// retires on change. The tail pass covers the arriving batch's tie group
  /// (arrivals interleaving there are the only thing that shifts a stored
  /// last-event id, so it re-syncs that id from the tail slot first); the
  /// anchor pass covers the eviction boundary tie group, where an evicted
  /// same-time interloper can un-violate a CDG gap.
  void ReevaluateOrder(std::uint64_t id_begin, std::uint64_t id_end,
                       bool by_tail);

  // --- Memory-budget degradation (docs/RESILIENCE.md). ---

  /// End-of-batch budget enforcement: turns the store off when its
  /// footprint exceeds `store_budget_bytes`, and back on (with hysteresis)
  /// once its estimated footprint fits under half the budget for 4
  /// consecutive batches. No-op without a budget.
  void EnforceStoreBudget();
  /// Turns the store back on by rebuilding it from the live indices on a
  /// scratch counts table and cross-checking it against the maintained
  /// counts (promotion must never change a count).
  void PromoteStore();

  // --- Store-off static-flip correction (scoped neighborhood recount). ---

  /// Sorted, deduplicated first-event candidates (within
  /// [first_begin, first_end)) of instances whose node set can span a
  /// flipped pair — events inside the intersected hop-balls of each pair's
  /// endpoints. Returns false (roots unusable) when the ball search
  /// exhausts `work_budget` — the locality assumption failed and a full
  /// recount is cheaper.
  bool CollectFlipRoots(const std::vector<std::pair<NodeId, NodeId>>& flips,
                        EventIndex first_begin, EventIndex first_end,
                        std::int64_t* work_budget,
                        std::vector<EventIndex>* roots) const;

  /// Subtract-half of the scoped static-flip correction, run on the
  /// pre-apply window over the given roots: removes counted survivor
  /// instances whose node set spans a flipped pair.
  void SubtractFlipAffected(
      const std::vector<std::pair<NodeId, NodeId>>& flips,
      const std::vector<EventIndex>& roots);
  /// Add-half, run on the post-apply window: re-adds flip-affected
  /// survivors at their new validity. Root collection stops at
  /// `first_new` (survivors are entirely pre-batch; instances ending in a
  /// new event are phase 6's), keeping the cost gate honest. Returns false
  /// when root collection blows its budget or locality threshold
  /// post-apply; the caller must then recount the window.
  bool AddFlipAffected(const std::vector<std::pair<NodeId, NodeId>>& flips,
                       EventIndex first_new);

  /// Applies the plan and recounts the whole window on the live indices
  /// (startup, full window turnover, or a static-edge flip fallback).
  void ApplyAndRecount(const IngestPlan& plan, const std::vector<Event>& batch,
                       bool is_static_fallback);
  /// Recounts the already-updated window in place (store rebuild included
  /// when active). The store-off DFS recount is the one streaming path
  /// split over `StreamConfig::num_threads`.
  void RecountWindow();
  /// Adds instances of the live window whose first event lies in
  /// [begin, num_events) and whose last event is flagged in `is_new_`.
  void AddNewInstances(EventIndex begin);

  /// Marks the lazy TemporalGraph snapshot stale (under snapshot_mutex_).
  void InvalidateSnapshot();

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
  bool has_nonlocal_ = false;
  /// Static inducedness: the store handles flips whenever the memory budget
  /// has not turned it off (store_active()).
  bool uses_static_inducedness_ = false;
  /// Store state; only EnforceStoreBudget and checkpoint restore move it,
  /// so it is stable within a batch.
  StoreMode store_mode_ = StoreMode::kFull;
  /// Consecutive batches the promotion estimate fit under the hysteresis
  /// threshold.
  std::uint32_t promote_streak_ = 0;
  /// Store bytes per window event observed when the store was last turned
  /// off — the re-promotion cost estimate.
  double full_bytes_per_event_ = 0.0;
  /// store_.compactions() at the last PublishTelemetry (delta mirroring).
  std::uint64_t published_store_compactions_ = 0;
  /// Store path with an order predicate (consecutive/CDG, k >= 2): entries
  /// carry event ids and the store maintains a last-event (tail) index so
  /// order verdicts can be re-evaluated at the window boundaries.
  bool track_tails_ = false;
  /// `options` with the static coverage check and order predicates stripped
  /// — the candidate predicate the store path enumerates with (purely
  /// instance-local; the stripped parts are cached per entry).
  EnumerationOptions candidate_options_;

  StreamWindow window_;
  /// Incremental per-node / per-edge indices over window_ (declared after
  /// it: construction order matters).
  WindowGraph live_;
  LiveInstanceStore store_;
  /// Monotone id of the event at window position 0 — mirrors the
  /// WindowGraph id scheme so store anchor ids can be derived from
  /// positions (advances with evictions; splices renumber the tail without
  /// moving it).
  std::uint64_t id_offset_ = 0;
  MotifCounts counts_;
  IngestStats stats_;
  /// Value of stats_ at the last PublishTelemetry (delta mirroring).
  IngestStats published_stats_;
  /// Lazily materialized TemporalGraph of the window for snapshot APIs.
  /// The mutex makes concurrent const readers safe with each other and
  /// covers the validity flag; it does NOT make readers safe against a
  /// concurrent Ingest — like every other accessor of this class
  /// (counts(), window_size(), ...), snapshot reads must not overlap a
  /// write. Single-writer, read-between-batches is the supported model.
  mutable std::mutex snapshot_mutex_;
  mutable TemporalGraph snapshot_;
  mutable bool snapshot_valid_ = false;
  /// Largest event duration ever ingested; feeds the duration-aware span
  /// bound (conservative: never shrinks as events expire).
  Duration max_duration_seen_ = 0;
  /// Scratch: window position -> entered with the current batch.
  std::vector<char> is_new_;
  std::vector<std::size_t> new_positions_;
  /// Scratch: window position -> spliced in by the current late batch.
  std::vector<char> is_late_;
  std::vector<std::size_t> spliced_positions_;
  /// Holds references to live_ and config_.options; they stay valid because
  /// the class is neither copyable nor movable (snapshot_mutex_).
  std::unique_ptr<DeltaScratch> scratch_;
};

}  // namespace tmotif

#endif  // TMOTIF_STREAM_STREAMING_COUNTER_H_
