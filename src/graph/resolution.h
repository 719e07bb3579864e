#ifndef TMOTIF_GRAPH_RESOLUTION_H_
#define TMOTIF_GRAPH_RESOLUTION_H_

#include "graph/temporal_graph.h"

namespace tmotif {

/// Degrades the time resolution of a graph: every timestamp is floored to a
/// multiple of `bucket_seconds`. This is the paper's Section 5.1.2 setup
/// ("we degrade the resolution of our datasets to 300s"): events inside one
/// bucket share a timestamp and therefore can never co-occur in a totally
/// ordered motif.
TemporalGraph DegradeResolution(const TemporalGraph& graph,
                                Timestamp bucket_seconds);

/// Keeps only events with time in [t_lo, t_hi] (inclusive).
TemporalGraph SliceTimeRange(const TemporalGraph& graph, Timestamp t_lo,
                             Timestamp t_hi);

}  // namespace tmotif

#endif  // TMOTIF_GRAPH_RESOLUTION_H_
