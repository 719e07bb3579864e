#ifndef TMOTIF_GEN_PRESETS_H_
#define TMOTIF_GEN_PRESETS_H_

#include <vector>

#include "gen/generator.h"

namespace tmotif {

/// The nine datasets of the paper's Table 2, reproduced as generator
/// presets; this catalogue documents the substitution. Each preset targets
/// the published node/event counts (scaled by `scale`), the median
/// inter-event time, the unique-timestamp fraction, and the dataset's
/// qualitative character (reply-heavy messages, cc-heavy email,
/// thread-heavy Q/A, unique-edge ratings).
enum class DatasetId {
  kBitcoinOtc,
  kCollegeMsg,
  kCallsCopenhagen,
  kSmsCopenhagen,
  kEmail,
  kFbWall,
  kSmsA,
  kStackOverflow,
  kSuperUser,
};

/// Display name matching the paper ("Bitcoin-otc", "CollegeMsg", ...).
const char* DatasetName(DatasetId id);

/// All nine datasets in Table 2 order.
std::vector<DatasetId> AllDatasets();

/// Generator configuration for a dataset at the given scale (1.0 = the
/// paper's full size; node and event counts scale together).
GeneratorConfig PresetConfig(DatasetId id, double scale, std::uint64_t seed);

/// Scale factor used by the bench binaries so that every dataset stays
/// around or below ~10^5 events (large datasets are downscaled, exactly as
/// the paper slices StackOverflow for efficiency).
double DefaultBenchScale(DatasetId id);

/// Generates a dataset at the given scale.
TemporalGraph GenerateDataset(DatasetId id, double scale, std::uint64_t seed);

}  // namespace tmotif

#endif  // TMOTIF_GEN_PRESETS_H_
