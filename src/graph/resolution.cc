#include "graph/resolution.h"

#include "common/check.h"

namespace tmotif {

TemporalGraph DegradeResolution(const TemporalGraph& graph,
                                Timestamp bucket_seconds) {
  TMOTIF_CHECK(bucket_seconds > 0);
  TemporalGraphBuilder builder;
  builder.SetMinNumNodes(graph.num_nodes());
  for (const Event& e : graph.events()) {
    Event degraded = e;
    // Floor-division that also handles negative timestamps.
    Timestamp q = e.time / bucket_seconds;
    if (e.time % bucket_seconds != 0 && e.time < 0) --q;
    degraded.time = q * bucket_seconds;
    builder.AddEvent(degraded);
  }
  return builder.Build();
}

TemporalGraph SliceTimeRange(const TemporalGraph& graph, Timestamp t_lo,
                             Timestamp t_hi) {
  TMOTIF_CHECK(t_lo <= t_hi);
  TemporalGraphBuilder builder;
  builder.SetMinNumNodes(graph.num_nodes());
  for (const Event& e : graph.events()) {
    if (e.time >= t_lo && e.time <= t_hi) builder.AddEvent(e);
  }
  return builder.Build();
}

}  // namespace tmotif
