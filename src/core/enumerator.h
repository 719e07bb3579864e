#ifndef TMOTIF_CORE_ENUMERATOR_H_
#define TMOTIF_CORE_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "core/timing.h"
#include "graph/temporal_graph.h"

namespace tmotif {

/// Inducedness requirement imposed on motif instances (Section 4.1).
enum class Inducedness {
  /// No requirement (Kovanen, Song, and the paper's vanilla counting).
  kNone,
  /// Static inducedness: the instance's static edges must equal the static
  /// projection of the whole graph induced on the instance's node set
  /// (the survey's reading of Hulovatyy and Paranjape).
  kStatic,
  /// Temporal-window inducedness, the paper's formal Section 4.1 definition:
  /// the instance must consist of *all* events among its node set within its
  /// time interval (k consecutive events of the induced temporal subgraph).
  kTemporalWindow,
};

/// Configuration of the unified motif-instance enumerator. The four
/// published models are presets over these knobs (OptionsForModel in
/// core/models/model_info.h).
struct EnumerationOptions {
  /// Number of events per instance (the paper uses 3 and 4; the library
  /// supports up to 8 — motif codes are carried as one packed byte per
  /// event on the hot path).
  int num_events = 3;
  /// Maximum distinct nodes per instance (the paper's spectra: 3 for
  /// three-event motifs, 4 for four-event motifs).
  int max_nodes = 3;
  /// dC / dW constraints; either, both, or none.
  TimingConstraints timing;
  /// Kovanen et al.'s consecutive-events restriction (node-based temporal
  /// inducedness): a node of the motif may not have any graph event between
  /// two of its consecutive motif events.
  bool consecutive_events_restriction = false;
  /// Hulovatyy et al.'s constrained-dynamic-graphlet restriction: for
  /// consecutive motif events on different static edges (u1,v1) != (u2,v2),
  /// no graph event on (u2,v2) may exist with t1 <= t' <= t2.
  bool cdg_restriction = false;
  Inducedness inducedness = Inducedness::kNone;
  /// When true, the dC gap is measured from the *end* of the previous event
  /// (start + duration) to the start of the next (Hulovatyy's
  /// duration-aware dynamic graphlets, Section 4.2).
  bool duration_aware_gaps = false;
};

/// A single motif instance passed to the visitor. The pointers stay valid
/// only for the duration of the callback.
struct MotifInstance {
  /// Indices into the graph's event list, strictly increasing (and strictly
  /// increasing in time).
  const EventIndex* event_indices = nullptr;
  int num_events = 0;
  /// Canonical motif code of the instance (the paper's 2n-digit notation).
  std::string_view code;
};

using InstanceVisitor = std::function<void(const MotifInstance&)>;

/// Enumerates every motif instance of `graph` satisfying `options`, invoking
/// `visit` once per instance. Instances are k-tuples of events with strictly
/// increasing timestamps that grow as a single component (every non-first
/// event shares a node with an earlier one). Returns the number of instances
/// visited.
std::uint64_t EnumerateInstances(const TemporalGraph& graph,
                                 const EnumerationOptions& options,
                                 const InstanceVisitor& visit);

/// Total instance count (no callback overhead).
std::uint64_t CountInstances(const TemporalGraph& graph,
                             const EnumerationOptions& options);

/// Total instance count over the instances whose *first* event index lies
/// in [first_begin, first_end), on the zero-callback fast path (the k <= 3
/// counters when FastPathSupported, else the DFS). Since every instance has
/// exactly one first event, disjoint ranges partition the instance set
/// exactly — the basis of event-range parallelism (core/parallel.h).
std::uint64_t CountInstancesInRange(const TemporalGraph& graph,
                                    const EnumerationOptions& options,
                                    EventIndex first_begin,
                                    EventIndex first_end);

/// Validates one explicit candidate instance (event indices in ascending
/// order) against `options`. This is an independent, straightforward
/// implementation of the instance predicate, used by the Figure 1 model
/// comparison and usable as an oracle.
bool IsValidInstance(const TemporalGraph& graph,
                     const std::vector<EventIndex>& event_indices,
                     const EnumerationOptions& options);

}  // namespace tmotif

#endif  // TMOTIF_CORE_ENUMERATOR_H_
