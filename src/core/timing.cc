#include "core/timing.h"

#include <cstdio>
#include <limits>

#include "common/check.h"

namespace tmotif {

TimingConstraints TimingConstraints::OnlyDeltaC(Timestamp delta_c) {
  TMOTIF_CHECK(delta_c >= 0);
  TimingConstraints t;
  t.delta_c = delta_c;
  return t;
}

TimingConstraints TimingConstraints::OnlyDeltaW(Timestamp delta_w) {
  TMOTIF_CHECK(delta_w >= 0);
  TimingConstraints t;
  t.delta_w = delta_w;
  return t;
}

TimingConstraints TimingConstraints::Both(Timestamp delta_c,
                                          Timestamp delta_w) {
  TMOTIF_CHECK(delta_c >= 0);
  TMOTIF_CHECK(delta_w >= 0);
  TimingConstraints t;
  t.delta_c = delta_c;
  t.delta_w = delta_w;
  return t;
}

std::string TimingConstraints::ToString() const {
  char buf[64];
  if (delta_c.has_value() && delta_w.has_value()) {
    std::snprintf(buf, sizeof(buf), "dC=%llds, dW=%llds",
                  static_cast<long long>(*delta_c),
                  static_cast<long long>(*delta_w));
  } else if (delta_c.has_value()) {
    std::snprintf(buf, sizeof(buf), "dC=%llds",
                  static_cast<long long>(*delta_c));
  } else if (delta_w.has_value()) {
    std::snprintf(buf, sizeof(buf), "dW=%llds",
                  static_cast<long long>(*delta_w));
  } else {
    std::snprintf(buf, sizeof(buf), "unbounded");
  }
  return buf;
}

const char* TimingRegimeName(TimingRegime regime) {
  switch (regime) {
    case TimingRegime::kOnlyDeltaC: return "only-dC";
    case TimingRegime::kBoth: return "dW-and-dC";
    case TimingRegime::kOnlyDeltaW: return "only-dW";
    case TimingRegime::kUnbounded: return "unbounded";
  }
  return "?";
}

TimingRegime ClassifyTiming(const TimingConstraints& timing, int num_events) {
  TMOTIF_CHECK(num_events >= 2);
  if (!timing.delta_c.has_value() && !timing.delta_w.has_value()) {
    return TimingRegime::kUnbounded;
  }
  if (!timing.delta_w.has_value()) return TimingRegime::kOnlyDeltaC;
  if (!timing.delta_c.has_value()) return TimingRegime::kOnlyDeltaW;
  // Both set: compare dC/dW against [1/(m-1), 1] without division.
  const Timestamp dc = *timing.delta_c;
  const Timestamp dw = *timing.delta_w;
  if (dc >= dw) return TimingRegime::kOnlyDeltaW;
  // dC * (m - 1) <= dW, exactly: the product may not fit a Timestamp.
  if (dc <= dw / (num_events - 1)) return TimingRegime::kOnlyDeltaC;
  return TimingRegime::kBoth;
}

Timestamp LooseWindowBound(Timestamp delta_c, int num_events) {
  TMOTIF_CHECK(num_events >= 1);
  const Timestamp gaps = num_events - 1;
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  if (gaps > 0 && delta_c > kMax / gaps) return kMax;
  return delta_c * gaps;
}

}  // namespace tmotif
