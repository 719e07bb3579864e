#ifndef TMOTIF_ANALYSIS_RANKING_H_
#define TMOTIF_ANALYSIS_RANKING_H_

#include <map>
#include <string>
#include <vector>

#include "core/counter.h"

namespace tmotif {

/// Ranks every code of `universe` by its count in `counts` (rank 1 = most
/// frequent). Codes absent from `counts` count as zero. Ties are broken by
/// code for determinism.
std::map<MotifCode, int> RankCodes(const MotifCounts& counts,
                                   const std::vector<MotifCode>& universe);

/// Rank changes when going from `before` to `after` (positive = the code
/// ascended, as in the paper's Tables 3 and 6).
std::map<MotifCode, int> RankChanges(const MotifCounts& before,
                                     const MotifCounts& after,
                                     const std::vector<MotifCode>& universe);

}  // namespace tmotif

#endif  // TMOTIF_ANALYSIS_RANKING_H_
