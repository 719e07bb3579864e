#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace tmotif {

Histogram::Histogram(double lo, double hi, int num_bins)
    : lo_(lo), hi_(hi) {
  TMOTIF_CHECK(num_bins > 0);
  TMOTIF_CHECK(hi > lo);
  bins_.assign(static_cast<std::size_t>(num_bins), 0);
  width_ = (hi - lo) / num_bins;
}

void Histogram::Add(double value) { AddCount(value, 1); }

void Histogram::AddCount(double value, std::uint64_t count) {
  int bin = static_cast<int>(std::floor((value - lo_) / width_));
  bin = std::clamp(bin, 0, num_bins() - 1);
  bins_[static_cast<std::size_t>(bin)] += count;
  total_ += count;
}

std::uint64_t Histogram::bin_count(int bin) const {
  TMOTIF_CHECK(bin >= 0 && bin < num_bins());
  return bins_[static_cast<std::size_t>(bin)];
}

double Histogram::bin_center(int bin) const {
  TMOTIF_CHECK(bin >= 0 && bin < num_bins());
  return lo_ + (bin + 0.5) * width_;
}

double Histogram::bin_lo(int bin) const {
  TMOTIF_CHECK(bin >= 0 && bin < num_bins());
  return lo_ + bin * width_;
}

double Histogram::ApproxMean() const {
  if (total_ == 0) return 0.0;
  double weighted = 0.0;
  for (int i = 0; i < num_bins(); ++i) {
    weighted += bin_center(i) * static_cast<double>(bin_count(i));
  }
  return weighted / static_cast<double>(total_);
}

double Histogram::MassCentroid() const {
  if (total_ == 0) return 0.5;
  return (ApproxMean() - lo_) / (hi_ - lo_);
}

std::string Histogram::Render(int max_width) const {
  std::uint64_t peak = 0;
  for (std::uint64_t c : bins_) peak = std::max(peak, c);
  std::string out;
  char line[128];
  for (int i = 0; i < num_bins(); ++i) {
    const std::uint64_t c = bin_count(i);
    const int bar =
        peak == 0 ? 0
                  : static_cast<int>(static_cast<double>(c) * max_width /
                                     static_cast<double>(peak));
    std::snprintf(line, sizeof(line), "[%10.2f, %10.2f) %10llu |",
                  bin_lo(i), bin_lo(i) + width_,
                  static_cast<unsigned long long>(c));
    out += line;
    out.append(static_cast<std::size_t>(bar), '#');
    out.push_back('\n');
  }
  return out;
}

}  // namespace tmotif
