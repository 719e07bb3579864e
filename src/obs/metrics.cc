#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"

namespace tmotif {
namespace obs {

double HistogramSnapshot::Quantile(double q) const {
  if (buckets.empty()) return 0.0;
  std::vector<double> edges(buckets.size() + 1);
  edges[0] = 0.0;
  for (std::size_t i = 1; i < edges.size(); ++i) {
    edges[i] = std::ldexp(1.0, static_cast<int>(i) - 1);  // 2^(i-1)
  }
  return HistogramQuantile(buckets, edges, q);
}

namespace internal {

int ThisThreadShard() {
  static std::atomic<int> next_shard{0};
  thread_local const int shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

}  // namespace internal

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kHistogramBuckets, 0);
  for (const Shard& s : shards_) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      snap.buckets[static_cast<std::size_t>(b)] +=
          s.buckets[b].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t c : snap.buckets) snap.count += c;
  return snap;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  counter_storage_.emplace_back();
  Counter* c = &counter_storage_.back();
  counters_.emplace(name, c);
  return c;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  gauge_storage_.emplace_back();
  Gauge* g = &gauge_storage_.back();
  gauges_.emplace(name, g);
  return g;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  histogram_storage_.emplace_back();
  Histogram* h = &histogram_storage_.back();
  histograms_.emplace(name, h);
  return h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h = histogram->Snapshot();
    h.name = name;
    snap.histograms.push_back(std::move(h));
  }
  return snap;  // std::map iteration is already name-sorted.
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace obs
}  // namespace tmotif
