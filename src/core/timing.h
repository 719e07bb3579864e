#ifndef TMOTIF_CORE_TIMING_H_
#define TMOTIF_CORE_TIMING_H_

#include <optional>
#include <string>

#include "common/types.h"

namespace tmotif {

/// Timing constraints of a temporal motif model (Section 4.5).
///   * delta_c bounds the gap between consecutive events of a motif
///     (Kovanen/Hulovatyy style: emphasizes temporal correlation);
///   * delta_w bounds the gap between the first and last event
///     (Song/Paranjape style: bounds the motif's whole timespan).
/// Either or both may be set.
struct TimingConstraints {
  std::optional<Timestamp> delta_c;
  std::optional<Timestamp> delta_w;

  static TimingConstraints OnlyDeltaC(Timestamp delta_c);
  static TimingConstraints OnlyDeltaW(Timestamp delta_w);
  static TimingConstraints Both(Timestamp delta_c, Timestamp delta_w);

  /// "dC=1500s, dW=3000s" style description.
  std::string ToString() const;
};

/// Which constraints are actually binding for an m-event motif, per the
/// paper's case analysis:
///   * dC/dW <= 1/(m-1): dW is implied by dC (only dC matters);
///   * 1/(m-1) < dC/dW < 1: both are meaningful;
///   * dC/dW >= 1: dC is implied by dW (only dW matters).
enum class TimingRegime {
  kOnlyDeltaC,
  kBoth,
  kOnlyDeltaW,
  kUnbounded,  // Neither constraint set.
};

const char* TimingRegimeName(TimingRegime regime);

/// Classifies a constraint pair for motifs with `num_events` events.
/// When only one constraint is set, returns the corresponding only-regime.
/// Exact for every pair of bounds: dC * (m - 1) is never formed.
TimingRegime ClassifyTiming(const TimingConstraints& timing, int num_events);

/// The loose bound dC * (m - 1) implied on the whole motif window by the
/// consecutive-gap constraint, saturated at the largest Timestamp. A
/// saturated value is no bound: a motif's timespan may exceed it.
Timestamp LooseWindowBound(Timestamp delta_c, int num_events);

}  // namespace tmotif

#endif  // TMOTIF_CORE_TIMING_H_
