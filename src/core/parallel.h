#ifndef TMOTIF_CORE_PARALLEL_H_
#define TMOTIF_CORE_PARALLEL_H_

// Event-range parallelism, the library's one thread loop. Instances are
// partitioned by their first event (every instance has exactly one), so
// disjoint first-event ranges count disjoint instance sets and the merged
// table equals the serial count exactly. The workers only *read* the
// graph, so every restriction and inducedness mode is supported.
//
// Two callers use it, both on the generic DFS only: the DFS branch of
// CountMotifsInRange (core/counter.h; the k <= 3 fast path stays serial)
// and the streaming counter's store-off window recount
// (stream/streaming_counter.cc). Where threads run and what they measured
// is in docs/PERFORMANCE.md ("Threads").

#include <thread>
#include <utility>
#include <vector>

#include "core/enumerate_core.h"
#include "core/packed_table.h"

namespace tmotif {
namespace internal {

/// Ranges of fewer first events than this count serially: below it the
/// thread spawns and per-shard engine setup cost more than the split
/// saves. Taken from the store-off streaming recount sweep in
/// docs/PERFORMANCE.md ("Threads").
inline constexpr EventIndex kMinParallelEvents = 512;

/// Most threads a caller may ask for. MakeEventShards makes one shard, and
/// so one thread, per event once `num_threads` exceeds the range, and far
/// above the core count the spawns fail with std::system_error. The CLI
/// tools reject a larger --threads.
inline constexpr int kMaxThreads = 256;

/// Splits [begin, end) into one contiguous range per worker. Guarantees:
/// every shard is non-empty, shards partition [begin, end) exactly, and
/// there are at most min(num_threads, end - begin) shards — when the range
/// has fewer events than workers, excess threads are simply never spawned.
std::vector<std::pair<EventIndex, EventIndex>> MakeEventShards(
    EventIndex begin, EventIndex end, int num_threads);

/// Telemetry for one sharded count: records every shard's instance total
/// into the parallel.shard_instances histogram and sets the
/// parallel.shard_imbalance_pct gauge to (max - mean) / mean of the shard
/// totals (0 for a perfectly balanced run).
void RecordShardBalance(const std::vector<PackedMotifTable>& partials);

/// Packed-code tally of every instance whose first event lies in
/// [begin, end), over any enumeration-core graph (TemporalGraph or the
/// streaming WindowGraph). With `num_threads > 1` and a range of at least
/// kMinParallelEvents events, each shard of MakeEventShards runs the DFS
/// on its own thread into its own table, and the tables are merged in
/// shard order; otherwise the range is enumerated serially. The caller
/// validates `options` (an instance cap would make threaded results
/// depend on scheduling) and clamps the range.
template <typename Graph>
PackedMotifTable CountPackedSharded(const Graph& graph,
                                    const EnumerationOptions& options,
                                    EventIndex begin, EventIndex end,
                                    int num_threads) {
  PackedMotifTable merged;
  if (begin >= end) return merged;
  if (num_threads <= 1 || end - begin < kMinParallelEvents) {
    PackedTableSink sink{&merged};
    EnumerateCore(graph, options, begin, end, sink);
    return merged;
  }
  const auto shards = MakeEventShards(begin, end, num_threads);
  std::vector<PackedMotifTable> partials(shards.size());
  std::vector<std::thread> workers;
  workers.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    workers.emplace_back([&, s] {
      // Each worker fills a table on its own stack: adjacent elements of
      // `partials` share cache lines, and the per-Add counters would
      // false-share across threads.
      PackedMotifTable local;
      PackedTableSink sink{&local};
      EnumerateCore(graph, options, shards[s].first, shards[s].second, sink);
      partials[s] = std::move(local);
    });
  }
  for (std::thread& worker : workers) worker.join();
  RecordShardBalance(partials);
  for (const PackedMotifTable& partial : partials) merged.MergeFrom(partial);
  return merged;
}

}  // namespace internal
}  // namespace tmotif

#endif  // TMOTIF_CORE_PARALLEL_H_
