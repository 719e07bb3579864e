#include "analysis/significance.h"

#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "nullmodels/shuffling.h"

namespace tmotif {

namespace {

TemporalGraph DrawReference(const TemporalGraph& graph, ReferenceModel model,
                            Rng* rng) {
  switch (model) {
    case ReferenceModel::kTimeShuffle: return ShuffleTimestamps(graph, rng);
    case ReferenceModel::kGapShuffle:
      return ShuffleInterEventTimes(graph, rng);
    case ReferenceModel::kLinkShuffle: return ShuffleLinks(graph, rng);
    case ReferenceModel::kUniformTimes: return UniformTimes(graph, rng);
  }
  TMOTIF_CHECK(false);
  return ShuffleTimestamps(graph, rng);
}

}  // namespace

std::map<MotifCode, MotifSignificance> ComputeMotifSignificance(
    const TemporalGraph& graph, const EnumerationOptions& options,
    const SignificanceConfig& config, Rng* rng) {
  TMOTIF_CHECK(config.num_samples > 0);

  const MotifCounts observed = CountMotifs(graph, options);
  std::vector<MotifCounts> ensemble;
  ensemble.reserve(static_cast<std::size_t>(config.num_samples));
  for (int s = 0; s < config.num_samples; ++s) {
    ensemble.push_back(
        CountMotifs(DrawReference(graph, config.reference, rng), options));
  }

  std::set<MotifCode> codes;
  for (const auto& [code, count] : observed.SortedByCode()) codes.insert(code);
  for (const MotifCounts& sample : ensemble) {
    for (const auto& [code, count] : sample.SortedByCode()) codes.insert(code);
  }

  std::map<MotifCode, MotifSignificance> result;
  for (const MotifCode& code : codes) {
    MotifSignificance sig;
    sig.observed = observed.count(code);
    double mean = 0.0;
    for (const MotifCounts& sample : ensemble) {
      mean += static_cast<double>(sample.count(code));
    }
    mean /= config.num_samples;
    double variance = 0.0;
    for (const MotifCounts& sample : ensemble) {
      const double d = static_cast<double>(sample.count(code)) - mean;
      variance += d * d;
    }
    variance /= config.num_samples;
    sig.reference_mean = mean;
    sig.reference_stddev = std::sqrt(variance);
    sig.z_score = sig.reference_stddev > 0.0
                      ? (static_cast<double>(sig.observed) - mean) /
                            sig.reference_stddev
                      : 0.0;
    result[code] = sig;
  }
  return result;
}

}  // namespace tmotif
