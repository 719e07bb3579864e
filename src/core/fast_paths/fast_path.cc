#include "core/fast_paths/fast_path.h"

#include "core/timing.h"
#include "obs/metrics.h"

namespace tmotif {
namespace internal {
namespace fast_paths {

bool FastPathSupported(const EnumerationOptions& options) {
  const int k = options.num_events;
  if (k > 3) return false;
  if (k == 1) return true;  // Every predicate is trivial or one lookup.
  if (options.consecutive_events_restriction || options.cdg_restriction) {
    return false;  // Order predicates need per-instance identity.
  }
  if (options.timing.delta_c.has_value()) {
    // Per-gap bounds: exact when no duration stretches a gap and one bound
    // implies the other (ClassifyTiming). Only dW binding, the counters
    // ignore dC; only dC binding (k == 3), they bound each gap; at k == 2
    // the one gap takes min(dC, dW). Where both bind the DFS prunes.
    if (options.duration_aware_gaps) return false;
    if (ClassifyTiming(options.timing, k) == TimingRegime::kBoth) return false;
  }
  if (options.inducedness == Inducedness::kTemporalWindow) return false;
  if (options.inducedness == Inducedness::kStatic) {
    // 2-node scopes reduce to a per-pair direction-pattern filter, and the
    // k == 3 stars and triangles to per-pair static facts (fast_path.h);
    // 3-node wedges (k == 2) stay on the DFS scope checks.
    return options.max_nodes == 2 || (k == 3 && options.max_nodes == 3);
  }
  // kNone: pair DP alone (max_nodes == 2), pairs + wedges (k == 2), or
  // pairs + stars + triangles (k == 3, max_nodes == 3).
  if (options.max_nodes == 2) return true;
  if (k == 2) return true;
  return k == 3 && options.max_nodes == 3;
}

void NoteDispatch(bool fastpath) {
  static obs::Counter* const fast =
      obs::GlobalMetrics().GetCounter("counting.dispatch_fastpath");
  static obs::Counter* const generic =
      obs::GlobalMetrics().GetCounter("counting.dispatch_generic");
  (fastpath ? fast : generic)->Increment();
}

}  // namespace fast_paths
}  // namespace internal
}  // namespace tmotif
