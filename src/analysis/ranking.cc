#include "analysis/ranking.h"

#include <algorithm>

namespace tmotif {

std::map<MotifCode, int> RankCodes(const MotifCounts& counts,
                                   const std::vector<MotifCode>& universe) {
  std::vector<std::pair<MotifCode, std::uint64_t>> rows;
  rows.reserve(universe.size());
  for (const MotifCode& code : universe) {
    rows.emplace_back(code, counts.count(code));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::map<MotifCode, int> ranks;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ranks[rows[i].first] = static_cast<int>(i) + 1;
  }
  return ranks;
}

std::map<MotifCode, int> RankChanges(const MotifCounts& before,
                                     const MotifCounts& after,
                                     const std::vector<MotifCode>& universe) {
  const std::map<MotifCode, int> rank_before = RankCodes(before, universe);
  const std::map<MotifCode, int> rank_after = RankCodes(after, universe);
  std::map<MotifCode, int> changes;
  for (const MotifCode& code : universe) {
    // Ascending in rank means a smaller rank number; report as positive.
    changes[code] = rank_before.at(code) - rank_after.at(code);
  }
  return changes;
}

}  // namespace tmotif
