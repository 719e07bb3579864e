#include "analysis/inducedness_analysis.h"

#include <vector>

#include "common/stats.h"

namespace tmotif {

namespace {

std::uint64_t TotalOverUniverse(const MotifCounts& counts,
                                const std::vector<MotifCode>& universe) {
  std::uint64_t total = 0;
  for (const MotifCode& code : universe) total += counts.count(code);
  return total;
}

}  // namespace

std::vector<MotifCode> CodesWithExactNodes(int num_events, int num_nodes) {
  std::vector<MotifCode> out;
  for (const MotifCode& code : EnumerateCodes(num_events, num_nodes)) {
    if (CodeNumNodes(code) == num_nodes) out.push_back(code);
  }
  return out;
}

double ConsecutiveRestrictionReport::RemovedFraction() const {
  if (non_consecutive_total == 0) return 0.0;
  return 1.0 - static_cast<double>(consecutive_total) /
                   static_cast<double>(non_consecutive_total);
}

ConsecutiveRestrictionReport AnalyzeConsecutiveRestriction(
    const TemporalGraph& graph, Timestamp delta_c, int num_events,
    int max_nodes) {
  EnumerationOptions options;
  options.num_events = num_events;
  options.max_nodes = max_nodes;
  options.timing = TimingConstraints::OnlyDeltaC(delta_c);

  const MotifCounts non_consecutive = CountMotifs(graph, options);
  options.consecutive_events_restriction = true;
  const MotifCounts consecutive = CountMotifs(graph, options);

  // The paper ranks the 32 motifs with exactly `max_nodes` nodes (3n3e).
  const std::vector<MotifCode> universe =
      CodesWithExactNodes(num_events, max_nodes);

  ConsecutiveRestrictionReport report;
  report.non_consecutive_total = TotalOverUniverse(non_consecutive, universe);
  report.consecutive_total = TotalOverUniverse(consecutive, universe);
  report.rank_changes = RankChanges(non_consecutive, consecutive, universe);
  return report;
}

CdgReport AnalyzeConstrainedDynamicGraphlets(const TemporalGraph& graph,
                                             Timestamp delta_c,
                                             int num_events, int max_nodes) {
  EnumerationOptions options;
  options.num_events = num_events;
  options.max_nodes = max_nodes;
  options.timing = TimingConstraints::OnlyDeltaC(delta_c);

  const MotifCounts vanilla = CountMotifs(graph, options);
  options.cdg_restriction = true;
  const MotifCounts cdg = CountMotifs(graph, options);

  const std::vector<MotifCode> universe =
      CodesWithExactNodes(num_events, max_nodes);

  CdgReport report;
  report.vanilla_total = TotalOverUniverse(vanilla, universe);
  report.cdg_total = TotalOverUniverse(cdg, universe);

  // Proportions are relative to the universe totals (the paper: "ratio of a
  // particular motif count to the sum" over the 3n3e spectrum).
  std::vector<double> changes;
  changes.reserve(universe.size());
  for (const MotifCode& code : universe) {
    const double before =
        report.vanilla_total == 0
            ? 0.0
            : static_cast<double>(vanilla.count(code)) /
                  static_cast<double>(report.vanilla_total);
    const double after =
        report.cdg_total == 0
            ? 0.0
            : static_cast<double>(cdg.count(code)) /
                  static_cast<double>(report.cdg_total);
    const double change = 100.0 * (after - before);
    report.proportion_changes[code] = change;
    changes.push_back(change);
  }
  report.variance = Variance(changes);
  return report;
}

}  // namespace tmotif
