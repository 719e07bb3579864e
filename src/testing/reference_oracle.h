#ifndef TMOTIF_TESTING_REFERENCE_ORACLE_H_
#define TMOTIF_TESTING_REFERENCE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "core/counter.h"
#include "core/enumerator.h"
#include "core/motif_code.h"
#include "graph/temporal_graph.h"

namespace tmotif {
namespace testing {

/// One motif instance as found by the brute-force oracle.
struct ReferenceInstance {
  /// Event indices, ascending (and ascending in time).
  std::vector<EventIndex> event_indices;
  /// Canonical motif code, computed by the oracle's own relabeling (not by
  /// core/motif_code.h, so codes are cross-checked too).
  MotifCode code;

  friend bool operator==(const ReferenceInstance& a,
                         const ReferenceInstance& b) {
    return a.event_indices == b.event_indices && a.code == b.code;
  }
  friend bool operator<(const ReferenceInstance& a,
                        const ReferenceInstance& b) {
    return a.event_indices < b.event_indices;
  }
};

/// Brute-force reference enumerator: tries *every* ascending k-subset of the
/// graph's events and keeps the ones accepted by `IsValidInstance`. No
/// pruning, no candidate generation, no shared code with the DFS enumerator
/// beyond the instance predicate itself — deliberately simple so it can
/// serve as the oracle in differential tests. Cost is C(num_events, k)
/// predicate evaluations; keep graphs small (see testing/random_graphs.h).
///
/// Instances are returned sorted by event-index tuple.
std::vector<ReferenceInstance> ReferenceEnumerate(
    const TemporalGraph& graph, const EnumerationOptions& options);

/// Number of instances the oracle accepts.
std::uint64_t ReferenceCount(const TemporalGraph& graph,
                             const EnumerationOptions& options);

/// Oracle instances tallied by canonical code (reference for CountMotifs).
MotifCounts ReferenceCountMotifs(const TemporalGraph& graph,
                                 const EnumerationOptions& options);

}  // namespace testing
}  // namespace tmotif

#endif  // TMOTIF_TESTING_REFERENCE_ORACLE_H_
