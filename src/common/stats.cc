#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace tmotif {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  double total = 0.0;
  for (double v : values) total += (v - mean) * (v - mean);
  return total / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MedianInt(std::vector<std::int64_t> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return static_cast<double>(values[n / 2]);
  return 0.5 * (static_cast<double>(values[n / 2 - 1]) +
                static_cast<double>(values[n / 2]));
}

namespace {

// NaN compares false against everything, so NaN q falls through to 0.
double ClampQuantileArg(double q) {
  if (q >= 1.0) return 1.0;
  if (q >= 0.0) return q;
  return 0.0;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  q = ClampQuantileArg(q);
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double HistogramQuantile(const std::vector<std::uint64_t>& counts,
                         const std::vector<double>& edges, double q) {
  TMOTIF_CHECK(edges.size() == counts.size() + 1);
  q = ClampQuantileArg(q);
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Rank of the target observation (0-based, interpolated like Quantile's
  // order-statistic position).
  const double pos = q * static_cast<double>(total - 1);
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double in_bucket = static_cast<double>(counts[i]);
    if (pos < seen + in_bucket) {
      const double frac = (pos - seen) / in_bucket;
      return edges[i] + frac * (edges[i + 1] - edges[i]);
    }
    seen += in_bucket;
  }
  // q == 1 lands exactly past the loop: upper edge of the last non-empty
  // bucket.
  for (std::size_t i = counts.size(); i-- > 0;) {
    if (counts[i] != 0) return edges[i + 1];
  }
  return 0.0;
}

}  // namespace tmotif
