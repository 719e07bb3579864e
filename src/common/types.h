#ifndef TMOTIF_COMMON_TYPES_H_
#define TMOTIF_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace tmotif {

/// Identifier of a node in a temporal network. Node ids are dense
/// non-negative integers in `[0, num_nodes)`.
using NodeId = std::int32_t;

/// Timestamp of an event, in seconds (the paper's datasets have 1 s
/// resolution). Signed so that time differences are representable.
using Timestamp = std::int64_t;

/// t + d, clamped to the largest Timestamp instead of overflowing (signed
/// overflow is undefined). `d` must be >= 0: every timing bound, lateness
/// and duration the library accepts is.
inline Timestamp SatAdd(Timestamp t, Timestamp d) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  return t > kMax - d ? kMax : t + d;
}

/// t - d, clamped to the smallest Timestamp; `d` must be >= 0.
inline Timestamp SatSub(Timestamp t, Timestamp d) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  return t < kMin + d ? kMin : t - d;
}

/// Duration of an event, in seconds. Most models ignore durations; the
/// Hulovatyy et al. dynamic-graphlet model can take them into account.
using Duration = std::int64_t;

/// Index of an event in a `TemporalGraph`'s time-ordered event list.
using EventIndex = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;

}  // namespace tmotif

#endif  // TMOTIF_COMMON_TYPES_H_
