#ifndef TMOTIF_ANALYSIS_REPORT_H_
#define TMOTIF_ANALYSIS_REPORT_H_

#include <string>

#include "analysis/event_pair_analysis.h"
#include "core/counter.h"

namespace tmotif {

/// Renders a motif count table (top `limit` codes by count; 0 = all).
std::string RenderMotifCounts(const MotifCounts& counts, std::size_t limit = 0);

/// Renders the six event-pair ratios as one line, e.g.
/// "R 18.0%  P 9.1%  I 22.5%  O 25.0%  C 15.4%  W 10.0%".
std::string RenderPairRatios(const EventPairStats& stats);

/// Renders a Figure 6-style ASCII heat map of ordered pair sequences:
/// rows = first pair, columns = second pair, shaded by log intensity.
std::string RenderPairSequenceHeatMap(const PairSequenceMatrix& matrix);

/// Ensures the bench output directory exists and returns `dir + "/" + name`.
std::string BenchOutputPath(const std::string& dir, const std::string& name);

}  // namespace tmotif

#endif  // TMOTIF_ANALYSIS_REPORT_H_
