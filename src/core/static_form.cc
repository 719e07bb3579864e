#include "core/static_form.h"

#include <algorithm>
#include <array>

#include "common/check.h"

namespace tmotif {
namespace {

constexpr int kMaxNodes = 8;

}  // namespace

StaticForm CanonicalStaticForm(
    const std::vector<std::pair<NodeId, NodeId>>& edges) {
  TMOTIF_CHECK(!edges.empty());
  // Compact node ids by first appearance.
  std::vector<NodeId> nodes;
  const auto index_of = [&](NodeId node) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == node) return static_cast<int>(i);
    }
    nodes.push_back(node);
    TMOTIF_CHECK_MSG(nodes.size() <= kMaxNodes, "too many nodes");
    return static_cast<int>(nodes.size()) - 1;
  };
  std::vector<std::pair<int, int>> compact;
  compact.reserve(edges.size());
  for (const auto& [src, dst] : edges) {
    TMOTIF_CHECK(src != dst);
    compact.emplace_back(index_of(src), index_of(dst));
  }
  const int n = static_cast<int>(nodes.size());

  // Try every relabeling permutation; keep the lexicographically smallest
  // sorted, deduplicated edge-list string. n <= 8 and motifs have n <= 5,
  // so the permutation count stays tiny.
  std::array<int, kMaxNodes> perm{};
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  StaticForm best;
  do {
    std::vector<std::pair<int, int>> relabeled;
    relabeled.reserve(compact.size());
    for (const auto& [a, b] : compact) {
      relabeled.emplace_back(perm[static_cast<std::size_t>(a)],
                             perm[static_cast<std::size_t>(b)]);
    }
    std::sort(relabeled.begin(), relabeled.end());
    relabeled.erase(std::unique(relabeled.begin(), relabeled.end()),
                    relabeled.end());
    StaticForm candidate;
    candidate.reserve(2 * relabeled.size());
    for (const auto& [a, b] : relabeled) {
      candidate.push_back(static_cast<char>('0' + a));
      candidate.push_back(static_cast<char>('0' + b));
    }
    if (best.empty() || candidate < best) best = candidate;
  } while (std::next_permutation(perm.begin(), perm.begin() + n));
  return best;
}

}  // namespace tmotif
