#ifndef TMOTIF_TESTING_DIFFERENTIAL_H_
#define TMOTIF_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "graph/temporal_graph.h"

namespace tmotif {
namespace testing {

/// Result of cross-checking the fast enumeration stack against the
/// brute-force oracle on one (graph, options) pair.
struct DifferentialReport {
  std::uint64_t fast_count = 0;
  std::uint64_t oracle_count = 0;
  /// Human-readable discrepancies; empty when everything agrees.
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
  /// Joins the mismatches (capped) into one failure message.
  std::string Summary() const;
};

/// Cross-checks, on one graph under one option set:
///   * EnumerateInstances against ReferenceEnumerate — same instance set
///     (as event-index tuples) and identical per-instance codes;
///   * the enumerator's codes against `EncodeInstance` (motif_code.h);
///   * CountInstances against the oracle count;
///   * CountMotifs against ReferenceCountMotifs, code by code.
DifferentialReport DiffAgainstOracle(const TemporalGraph& graph,
                                     const EnumerationOptions& options);

/// Renders one event as "#idx: src->dst @t (+dur)" for diagnostics.
std::string DescribeEvent(const TemporalGraph& graph, EventIndex index);

/// Renders an instance as its event list, e.g. "[#0: 1->2 @3, #4: 2->5 @7]".
std::string DescribeInstance(const TemporalGraph& graph,
                             const std::vector<EventIndex>& event_indices);

}  // namespace testing
}  // namespace tmotif

#endif  // TMOTIF_TESTING_DIFFERENTIAL_H_
