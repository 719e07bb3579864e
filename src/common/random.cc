#include "common/random.h"

#include <cmath>

#include "common/check.h"

namespace tmotif {
namespace {

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

std::uint64_t Rng::NextU64() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::UniformU64(std::uint64_t bound) {
  TMOTIF_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  while (true) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  TMOTIF_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(NextU64());  // Full range.
  return lo + static_cast<std::int64_t>(UniformU64(span));
}

double Rng::UniformReal() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformReal() < p;
}

double Rng::Exponential(double mean) {
  TMOTIF_CHECK(mean > 0.0);
  double u = UniformReal();
  while (u <= 0.0) u = UniformReal();
  return -mean * std::log(u);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = UniformReal();
  while (u1 <= 0.0) u1 = UniformReal();
  const double u2 = UniformReal();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * Normal());
}

ZipfTable::ZipfTable(int n, double alpha) {
  TMOTIF_CHECK(n > 0);
  cdf_.resize(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[static_cast<std::size_t>(i)] = total;
  }
  for (auto& value : cdf_) value /= total;
}

int ZipfTable::Sample(Rng* rng) const {
  const double u = rng->UniformReal();
  // Binary search for the first cdf entry >= u.
  int lo = 0;
  int hi = static_cast<int>(cdf_.size()) - 1;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (cdf_[static_cast<std::size_t>(mid)] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int DynamicWeightedPicker::Add(double weight) {
  TMOTIF_CHECK(weight >= 0.0);
  tree_.push_back(0.0);
  const int index = static_cast<int>(tree_.size()) - 1;
  // Initialize the new Fenwick node by aggregating the covered range, then
  // apply the weight as a point update.
  const int pos = index + 1;  // 1-based.
  const int lowbit = pos & -pos;
  double covered = 0.0;
  int child = pos - 1;
  while (child > pos - lowbit) {
    covered += tree_[static_cast<std::size_t>(child - 1)];
    child -= child & -child;
  }
  tree_[static_cast<std::size_t>(index)] = covered;
  Reinforce(index, weight);
  return index;
}

void DynamicWeightedPicker::Reinforce(int index, double delta) {
  TMOTIF_CHECK(index >= 0 && index < size());
  total_ += delta;
  for (int pos = index + 1; pos <= size(); pos += pos & -pos) {
    tree_[static_cast<std::size_t>(pos - 1)] += delta;
  }
}

int DynamicWeightedPicker::Sample(Rng* rng) const {
  TMOTIF_CHECK(total_ > 0.0);
  double target = rng->UniformReal() * total_;
  int pos = 0;
  int mask = 1;
  while (mask * 2 <= size()) mask *= 2;
  for (; mask > 0; mask /= 2) {
    const int next = pos + mask;
    if (next <= size() && tree_[static_cast<std::size_t>(next - 1)] < target) {
      target -= tree_[static_cast<std::size_t>(next - 1)];
      pos = next;
    }
  }
  // `pos` is now the number of complete prefixes below the target; the
  // sampled element is at index `pos` (clamped for floating-point edge
  // cases at the top of the range).
  const int index = pos < size() ? pos : size() - 1;
  return index;
}

}  // namespace tmotif
