#include "algorithms/parallel.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/enumerate_core.h"
#include "core/packed_table.h"

namespace tmotif {

// Chunks are equal-sized by event count; bursty regions may still imbalance
// shards, which is acceptable for a counting workload dominated by dense
// windows.
std::vector<std::pair<EventIndex, EventIndex>> MakeEventShards(
    EventIndex begin, EventIndex end, int num_threads) {
  TMOTIF_CHECK(begin < end && num_threads > 0);
  const EventIndex num_events = end - begin;
  std::vector<std::pair<EventIndex, EventIndex>> shards;
  const EventIndex per_shard =
      (num_events + num_threads - 1) / num_threads;
  for (EventIndex lo = begin; lo < end; lo += per_shard) {
    shards.emplace_back(lo, std::min<EventIndex>(lo + per_shard, end));
  }
  return shards;
}

namespace {

std::vector<std::pair<EventIndex, EventIndex>> MakeShards(
    EventIndex num_events, int num_threads) {
  return MakeEventShards(0, num_events, num_threads);
}

}  // namespace

MotifCounts CountMotifsParallel(const TemporalGraph& graph,
                                const EnumerationOptions& options,
                                int num_threads) {
  TMOTIF_CHECK_MSG(options.max_instances == 0,
                   "max_instances is not supported in parallel counting");
  if (num_threads <= 1 || graph.num_events() == 0) {
    return CountMotifs(graph, options);
  }
  internal::ValidateEnumerationOptions(options);
  // Shards accumulate packed-code tables (core/packed_table.h); the merged
  // table is folded into the counts once.
  MotifCounts merged;
  merged.AddTable(internal::CountPackedSharded(graph, options, 0,
                                               graph.num_events(),
                                               num_threads));
  return merged;
}

std::uint64_t CountInstancesParallel(const TemporalGraph& graph,
                                     const EnumerationOptions& options,
                                     int num_threads) {
  TMOTIF_CHECK_MSG(options.max_instances == 0,
                   "max_instances is not supported in parallel counting");
  if (num_threads <= 1 || graph.num_events() == 0) {
    return CountInstances(graph, options);
  }
  const auto shards = MakeShards(graph.num_events(), num_threads);
  std::vector<std::uint64_t> partials(shards.size(), 0);
  std::vector<std::thread> workers;
  workers.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    workers.emplace_back([&, s] {
      partials[s] = CountInstancesInRange(graph, options, shards[s].first,
                                          shards[s].second);
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::uint64_t total = 0;
  for (const std::uint64_t partial : partials) total += partial;
  return total;
}

namespace internal {

void RecordShardBalance(const std::vector<PackedMotifTable>& partials) {
  static obs::Histogram* const shard_instances =
      obs::GlobalMetrics().GetHistogram("parallel.shard_instances");
  static obs::Gauge* const imbalance =
      obs::GlobalMetrics().GetGauge("parallel.shard_imbalance_pct");
  if (partials.empty()) return;
  std::uint64_t max_total = 0;
  std::uint64_t sum = 0;
  for (const PackedMotifTable& partial : partials) {
    const std::uint64_t total = partial.total();
    shard_instances->Record(total);
    max_total = std::max(max_total, total);
    sum += total;
  }
  const double mean =
      static_cast<double>(sum) / static_cast<double>(partials.size());
  if (mean > 0.0) {
    imbalance->Set(static_cast<std::int64_t>(
        100.0 * (static_cast<double>(max_total) - mean) / mean));
  } else {
    imbalance->Set(0);
  }
}

}  // namespace internal

}  // namespace tmotif
