#ifndef TMOTIF_OBS_EXPORT_H_
#define TMOTIF_OBS_EXPORT_H_

// Textual exporters over a MetricsSnapshot. Pure transforms.

#include <string>

#include "obs/metrics.h"

namespace tmotif {
namespace obs {

// Prometheus text exposition format. Metric names are prefixed with
// "tmotif_" and sanitized (dots become underscores). Histograms render a
// fixed ladder of power-of-4 `le` bounds (1, 4, 16, ..., 4^16, +Inf) with
// cumulative counts, plus _sum and _count — fixed line count per
// histogram, so golden tests stay stable regardless of bucket occupancy.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

// JSON-lines: one object per metric. Counters/gauges carry "value";
// histograms carry count/sum/mean plus p50/p99 estimated from the log2
// buckets via the shared HistogramQuantile helper.
std::string ToJsonLines(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace tmotif

#endif  // TMOTIF_OBS_EXPORT_H_
