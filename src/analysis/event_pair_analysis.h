#ifndef TMOTIF_ANALYSIS_EVENT_PAIR_ANALYSIS_H_
#define TMOTIF_ANALYSIS_EVENT_PAIR_ANALYSIS_H_

#include <array>
#include <cstdint>

#include "core/enumerator.h"
#include "core/event_pair.h"

namespace tmotif {

/// Counts of event pairs observed inside enumerated motif instances
/// (each k-event instance contributes k-1 consecutive pairs).
struct EventPairStats {
  /// Indexed by EventPairType (R, P, I, O, C, W); disjoint pairs (possible
  /// only in >= 4-node motifs) are tallied separately.
  std::array<std::uint64_t, kNumEventPairTypes> counts{};
  std::uint64_t disjoint = 0;
  std::uint64_t num_instances = 0;

  std::uint64_t count(EventPairType type) const;
  /// Sum of the paper's R,P,I,O group (Table 5).
  std::uint64_t rpio() const;
  /// Sum of the C,W group.
  std::uint64_t cw() const;
  /// Fraction of a type among the six shared-node types.
  double Ratio(EventPairType type) const;
};

/// Enumerates instances under `options` and tallies their event pairs
/// (paper Sections 5.2.1 and 5.3, Figures 3, 7, 8).
EventPairStats CollectEventPairStats(const TemporalGraph& graph,
                                     const EnumerationOptions& options);

/// 6x6 matrix of ordered pair sequences for three-event motifs: cell
/// (first, second) counts instances whose pair sequence is (first, second)
/// (paper Figure 6 / Figure 11 heat maps). Requires options.num_events == 3.
struct PairSequenceMatrix {
  std::array<std::array<std::uint64_t, kNumEventPairTypes>,
             kNumEventPairTypes>
      cells{};
  std::uint64_t total = 0;

  std::uint64_t cell(EventPairType first, EventPairType second) const;
  /// Log-scaled intensity in [0, 1] relative to the min/max non-zero cells,
  /// as in the paper's color coding.
  double LogIntensity(EventPairType first, EventPairType second) const;
};

PairSequenceMatrix CollectPairSequenceMatrix(const TemporalGraph& graph,
                                             const EnumerationOptions& options);

}  // namespace tmotif

#endif  // TMOTIF_ANALYSIS_EVENT_PAIR_ANALYSIS_H_
