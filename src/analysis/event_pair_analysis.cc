#include "analysis/event_pair_analysis.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace tmotif {

std::uint64_t EventPairStats::count(EventPairType type) const {
  if (type == EventPairType::kDisjoint) return disjoint;
  return counts[static_cast<std::size_t>(type)];
}

std::uint64_t EventPairStats::rpio() const {
  return count(EventPairType::kRepetition) + count(EventPairType::kPingPong) +
         count(EventPairType::kInBurst) + count(EventPairType::kOutBurst);
}

std::uint64_t EventPairStats::cw() const {
  return count(EventPairType::kConvey) +
         count(EventPairType::kWeaklyConnected);
}

double EventPairStats::Ratio(EventPairType type) const {
  std::uint64_t shared = 0;
  for (const std::uint64_t c : counts) shared += c;
  if (shared == 0) return 0.0;
  return static_cast<double>(count(type)) / static_cast<double>(shared);
}

EventPairStats CollectEventPairStats(const TemporalGraph& graph,
                                     const EnumerationOptions& options) {
  EventPairStats stats;
  EnumerateInstances(graph, options, [&](const MotifInstance& instance) {
    ++stats.num_instances;
    for (int i = 1; i < instance.num_events; ++i) {
      const Event& a = graph.event(instance.event_indices[i - 1]);
      const Event& b = graph.event(instance.event_indices[i]);
      const EventPairType type =
          ClassifyEventPair(a.src, a.dst, b.src, b.dst);
      if (type == EventPairType::kDisjoint) {
        ++stats.disjoint;
      } else {
        ++stats.counts[static_cast<std::size_t>(type)];
      }
    }
  });
  return stats;
}

std::uint64_t PairSequenceMatrix::cell(EventPairType first,
                                       EventPairType second) const {
  return cells[static_cast<std::size_t>(first)]
              [static_cast<std::size_t>(second)];
}

double PairSequenceMatrix::LogIntensity(EventPairType first,
                                        EventPairType second) const {
  const std::uint64_t value = cell(first, second);
  if (value == 0) return 0.0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  for (const auto& row : cells) {
    for (const std::uint64_t c : row) {
      if (c == 0) continue;
      if (lo == 0 || c < lo) lo = c;
      if (c > hi) hi = c;
    }
  }
  if (hi <= lo) return 1.0;
  const double num = std::log(static_cast<double>(value)) -
                     std::log(static_cast<double>(lo));
  const double den = std::log(static_cast<double>(hi)) -
                     std::log(static_cast<double>(lo));
  return num / den;
}

PairSequenceMatrix CollectPairSequenceMatrix(
    const TemporalGraph& graph, const EnumerationOptions& options) {
  TMOTIF_CHECK_MSG(options.num_events == 3,
                   "pair-sequence heat maps are defined for 3-event motifs");
  PairSequenceMatrix matrix;
  EnumerateInstances(graph, options, [&](const MotifInstance& instance) {
    const Event& a = graph.event(instance.event_indices[0]);
    const Event& b = graph.event(instance.event_indices[1]);
    const Event& c = graph.event(instance.event_indices[2]);
    const EventPairType first = ClassifyEventPair(a.src, a.dst, b.src, b.dst);
    const EventPairType second = ClassifyEventPair(b.src, b.dst, c.src, c.dst);
    if (first == EventPairType::kDisjoint ||
        second == EventPairType::kDisjoint) {
      return;  // Impossible for <= 3-node motifs; guard for larger caps.
    }
    ++matrix.cells[static_cast<std::size_t>(first)]
                  [static_cast<std::size_t>(second)];
    ++matrix.total;
  });
  return matrix;
}

}  // namespace tmotif
