#include "core/parallel.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace tmotif {
namespace internal {

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
