#ifndef TMOTIF_OBS_METRICS_H_
#define TMOTIF_OBS_METRICS_H_

// Low-overhead process-wide metrics: named counters, gauges, and
// log2-bucketed histograms behind a registry of stable handles.
//
// Hot-path cost model: a handle lookup (GetCounter / GetGauge /
// GetHistogram) takes a mutex and is meant to run once per call site
// (cache the pointer in a function-local static); the increments
// themselves are relaxed atomic adds on thread-sharded slots, so
// concurrent writers on different threads rarely contend on a cache
// line. Snapshot() merges the shards; it is the only reader path.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tmotif {
namespace obs {

// Number of log2 buckets in a histogram: bucket 0 holds the value 0,
// bucket i (1 <= i <= 64) holds values in [2^(i-1), 2^i).
inline constexpr int kHistogramBuckets = 65;

inline int HistogramBucketOf(std::uint64_t value) {
  if (value == 0) return 0;
  int width = 0;
#if defined(__GNUC__) || defined(__clang__)
  width = 64 - __builtin_clzll(value);
#else
  while (value != 0) {
    ++width;
    value >>= 1;
  }
#endif
  return width;
}

// ---------------------------------------------------------------------------
// Snapshot types (exporters only ever see these).

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets;  // kHistogramBuckets entries.

  // Quantile estimate via linear interpolation inside the log2 bucket
  // (shared helper in common/stats.h); 0 when the histogram is empty.
  double Quantile(double q) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;    // Sorted by name.
  std::vector<GaugeSnapshot> gauges;        // Sorted by name.
  std::vector<HistogramSnapshot> histograms;  // Sorted by name.
};

namespace internal {

inline constexpr int kShards = 8;  // Power of two.

// Index of the calling thread's shard; threads are assigned round-robin
// so single-threaded runs always hit shard 0 hot in cache.
int ThisThreadShard();

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace internal

// Monotonically increasing event count. Thread-safe, relaxed ordering.
class Counter {
 public:
  void Add(std::uint64_t n) {
    shards_[internal::ThisThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  internal::CounterShard shards_[internal::kShards];
};

// Point-in-time signed level (store bytes, window size). Last writer wins;
// not sharded — gauges are set once per batch, never per instance.
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Log2-bucketed distribution of uint64 samples (latencies in ns, batch
// sizes). Two relaxed adds per Record.
class Histogram {
 public:
  void Record(std::uint64_t value) {
    Shard& s = shards_[internal::ThisThreadShard()];
    s.buckets[HistogramBucketOf(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }
  // Merged view across shards (count = sum of bucket counts).
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kHistogramBuckets];
    std::atomic<std::uint64_t> sum{0};
  };
  Shard shards_[internal::kShards] = {};
};

// Name -> handle registry. Handles are stable for the registry's lifetime
// (backed by deques); lookups are mutex-protected, increments through the
// returned pointers are lock-free. Instantiable for tests; production code
// uses the process-wide GlobalMetrics() instance.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Merged, name-sorted view of every metric registered so far.
  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> histogram_storage_;
};

MetricsRegistry& GlobalMetrics();

}  // namespace obs
}  // namespace tmotif

#endif  // TMOTIF_OBS_METRICS_H_
