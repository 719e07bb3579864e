#ifndef TMOTIF_COMMON_RANDOM_H_
#define TMOTIF_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace tmotif {

/// Deterministic, seedable pseudo-random number generator
/// (xoshiro256** seeded via SplitMix64). All randomized components of the
/// library (dataset generator, null models, sampling estimators) draw from
/// this generator so that every experiment is reproducible from a seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit word.
  std::uint64_t NextU64();

  /// Uniform integer in `[0, bound)`. `bound` must be positive.
  std::uint64_t UniformU64(std::uint64_t bound);

  /// Uniform integer in `[lo, hi]` inclusive. Requires `lo <= hi`.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform real in `[0, 1)`.
  double UniformReal();

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponential variate with the given mean (> 0).
  double Exponential(double mean);

  /// Log-normal variate: exp(N(mu, sigma^2)).
  double LogNormal(double mu, double sigma);

  /// Standard normal variate (Box-Muller).
  double Normal();

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (std::size_t i = values->size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(UniformU64(i + 1));
      std::swap((*values)[i], (*values)[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Precomputed cumulative table for Zipf-distributed sampling:
/// P(i) proportional to 1/(i+1)^alpha over i in [0, n).
class ZipfTable {
 public:
  ZipfTable(int n, double alpha);

  /// Draws an index in `[0, n)`.
  int Sample(Rng* rng) const;

  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

/// Discrete distribution over weights that can grow over time (used by the
/// generator's partner-memory reinforcement). Sampling is O(log n) via a
/// Fenwick tree over weights.
class DynamicWeightedPicker {
 public:
  DynamicWeightedPicker() = default;

  /// Appends an element with the given non-negative weight; returns its index.
  int Add(double weight);

  /// Adds `delta` to the weight of element `index`.
  void Reinforce(int index, double delta);

  /// Draws an element index proportionally to current weights.
  /// Requires `total_weight() > 0`.
  int Sample(Rng* rng) const;

  double total_weight() const { return total_; }
  int size() const { return static_cast<int>(tree_.size()); }
  bool empty() const { return tree_.empty(); }

 private:
  std::vector<double> tree_;  // Fenwick tree of weights (1-based logic).
  double total_ = 0.0;
};

}  // namespace tmotif

#endif  // TMOTIF_COMMON_RANDOM_H_
