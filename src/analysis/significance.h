#ifndef TMOTIF_ANALYSIS_SIGNIFICANCE_H_
#define TMOTIF_ANALYSIS_SIGNIFICANCE_H_

#include <map>

#include "common/random.h"
#include "core/counter.h"
#include "core/enumerator.h"

namespace tmotif {

/// Motif significance against a randomized reference ensemble — the static
/// network motif methodology (Milo et al.) the paper revisits for temporal
/// networks and finds unreliable ("some models are too restrictive ...
/// some others too loose"). The bench_ablation_nullmodels binary uses these
/// z-scores to reproduce that observation quantitatively.
enum class ReferenceModel {
  kTimeShuffle,       // Permute timestamps (destroys temporal correlations).
  kGapShuffle,        // Permute inter-event gaps (keeps burstiness).
  kLinkShuffle,       // Permute endpoint pairs (destroys structure).
  kUniformTimes,      // I.i.d. uniform timestamps.
};

struct SignificanceConfig {
  ReferenceModel reference = ReferenceModel::kTimeShuffle;
  /// Ensemble size (paper-style analyses use 10-1000; z-scores stabilize
  /// slowly, which is part of the point).
  int num_samples = 10;
};

struct MotifSignificance {
  std::uint64_t observed = 0;
  double reference_mean = 0.0;
  double reference_stddev = 0.0;
  /// (observed - mean) / stddev; 0 when the ensemble is degenerate.
  double z_score = 0.0;
};

/// Computes per-code z-scores of `graph`'s motif counts against the chosen
/// reference ensemble. Codes observed in neither real nor reference data
/// are omitted.
std::map<MotifCode, MotifSignificance> ComputeMotifSignificance(
    const TemporalGraph& graph, const EnumerationOptions& options,
    const SignificanceConfig& config, Rng* rng);

}  // namespace tmotif

#endif  // TMOTIF_ANALYSIS_SIGNIFICANCE_H_
