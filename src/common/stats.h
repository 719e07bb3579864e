#ifndef TMOTIF_COMMON_STATS_H_
#define TMOTIF_COMMON_STATS_H_

#include <cstdint>
#include <vector>

namespace tmotif {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Population variance (divide by N); 0 for inputs with < 2 elements.
double Variance(const std::vector<double>& values);

/// Median (average of middle two for even sizes); 0 for empty input.
/// Takes a copy because it needs to reorder.
double Median(std::vector<double> values);
double MedianInt(std::vector<std::int64_t> values);

/// Quantile using linear interpolation between order statistics.
/// Edge behavior: 0 for empty input; a single element is returned for any
/// q; q is clamped into [0, 1] (q < 0 behaves as the minimum, q > 1 as
/// the maximum). NaN q behaves as 0.
double Quantile(std::vector<double> values, double q);

/// Quantile of a bucketed distribution: counts[i] observations fall in
/// [edges[i], edges[i+1]), with linear interpolation inside the bucket
/// (edges.size() must be counts.size() + 1). Same edge behavior as
/// Quantile: q clamped into [0, 1], 0 when every bucket is empty. Shared
/// by the obs histogram exporters so quantile math lives in one place.
double HistogramQuantile(const std::vector<std::uint64_t>& counts,
                         const std::vector<double>& edges, double q);

}  // namespace tmotif

#endif  // TMOTIF_COMMON_STATS_H_
