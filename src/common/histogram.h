#ifndef TMOTIF_COMMON_HISTOGRAM_H_
#define TMOTIF_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tmotif {

/// Fixed-width-bin histogram over the closed range [lo, hi]. Values outside
/// the range are clamped into the first/last bin, so the total count always
/// equals the number of `Add` calls. Used for the intermediate-event-position
/// and motif-timespan distributions (paper Figures 4, 5, 9, 10).
class Histogram {
 public:
  Histogram(double lo, double hi, int num_bins);

  void Add(double value);
  void AddCount(double value, std::uint64_t count);

  std::uint64_t total() const { return total_; }
  int num_bins() const { return static_cast<int>(bins_.size()); }
  std::uint64_t bin_count(int bin) const;

  /// Center of the given bin.
  double bin_center(int bin) const;
  /// Lower edge of the given bin.
  double bin_lo(int bin) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Mean of the recorded values approximated from bin centers.
  double ApproxMean() const;

  /// Coefficient describing the skew of mass towards the low end:
  /// mean normalized position in [0,1] across the range. 0.5 is balanced.
  double MassCentroid() const;

  /// Renders an ASCII bar chart, one row per bin.
  std::string Render(int max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

}  // namespace tmotif

#endif  // TMOTIF_COMMON_HISTOGRAM_H_
