#ifndef TMOTIF_CORE_MODELS_ZHAO_H_
#define TMOTIF_CORE_MODELS_ZHAO_H_

#include <cstdint>
#include <unordered_map>

#include "core/enumerator.h"
#include "core/static_form.h"

namespace tmotif {

/// Communication motifs (Zhao et al., CIKM'10 — the paper's reference
/// [21], the model COMMIT [33] mines): "a static network motif where each
/// connected edge pair satisfies a timing constraint and there is no
/// particular order defined among the edges". The snapshot-era precursor
/// of the four holistic models the survey compares.
///
/// An instance is a set of k events growing as a single component where
/// every *node-sharing pair* of events (not just consecutive ones) is at
/// most `delta_t` apart; its identity is the canonical *static* form of
/// the instance's projection, so temporal order does not distinguish
/// motifs (the defining difference from Kovanen-style models).
struct ZhaoConfig {
  int num_events = 3;
  int max_nodes = 3;
  /// Timing constraint between node-sharing event pairs.
  Timestamp delta_t = 0;
};

/// Counts communication motifs keyed by canonical static form.
std::unordered_map<StaticForm, std::uint64_t> CountCommunicationMotifs(
    const TemporalGraph& graph, const ZhaoConfig& config);

}  // namespace tmotif

#endif  // TMOTIF_CORE_MODELS_ZHAO_H_
