#ifndef TMOTIF_GRAPH_EVENT_H_
#define TMOTIF_GRAPH_EVENT_H_

#include <cstdint>
#include <tuple>

#include "common/types.h"

namespace tmotif {

/// Packs a directed node pair into one 64-bit key — the shared edge
/// identity of the graph's CSR edge index, the stream window's per-edge
/// bookkeeping, and the SoA endpoint mirrors.
inline std::uint64_t NodePairKey(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

/// A temporal edge ("event"): a directed interaction from `src` to `dst`
/// starting at `time`. Matches the paper's 4-tuple (u_i, v_i, t_i, dt_i);
/// most models ignore `duration` (the paper's simplifying convention), the
/// Hulovatyy model can honor it.
struct Event {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Timestamp time = 0;
  Duration duration = 0;

  friend bool operator==(const Event& a, const Event& b) {
    return a.src == b.src && a.dst == b.dst && a.time == b.time &&
           a.duration == b.duration;
  }
};
static_assert(sizeof(Event) == 24, "an event is two ids and two int64s");

/// Orders events chronologically; ties broken by (src, dst, duration) so
/// sorting is deterministic.
inline bool EventTimeLess(const Event& a, const Event& b) {
  return std::tie(a.time, a.src, a.dst, a.duration) <
         std::tie(b.time, b.src, b.dst, b.duration);
}

/// The static projection of an event: the directed edge (src, dst).
struct StaticEdge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  friend bool operator==(const StaticEdge& a, const StaticEdge& b) {
    return a.src == b.src && a.dst == b.dst;
  }
  friend bool operator<(const StaticEdge& a, const StaticEdge& b) {
    return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
  }
};

}  // namespace tmotif

#endif  // TMOTIF_GRAPH_EVENT_H_
