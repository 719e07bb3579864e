#ifndef TMOTIF_ALGORITHMS_PARALLEL_H_
#define TMOTIF_ALGORITHMS_PARALLEL_H_

#include <thread>
#include <utility>
#include <vector>

#include "core/counter.h"
#include "core/enumerator.h"
#include "core/packed_table.h"
#include "obs/metrics.h"

namespace tmotif {

/// Multi-threaded motif counting. Instances are partitioned by their first
/// event (every instance has exactly one), so shards are disjoint and the
/// merged result equals the serial count exactly. All restrictions and
/// inducedness modes are supported — they only *read* the graph.
///
/// `num_threads <= 1` falls back to the serial implementation;
/// `options.max_instances` is not supported (it would make results depend
/// on scheduling).
MotifCounts CountMotifsParallel(const TemporalGraph& graph,
                                const EnumerationOptions& options,
                                int num_threads);

/// Total-count-only variant.
std::uint64_t CountInstancesParallel(const TemporalGraph& graph,
                                     const EnumerationOptions& options,
                                     int num_threads);

/// Splits [begin, end) into one contiguous range per worker. Guarantees:
/// every shard is non-empty, shards partition [begin, end) exactly, and
/// there are at most min(num_threads, end - begin) shards — when the range
/// has fewer events than workers, excess threads are simply never spawned.
/// Shared by the batch counters above and the streaming counter's
/// delta-ingestion path (stream/streaming_counter.h).
std::vector<std::pair<EventIndex, EventIndex>> MakeEventShards(
    EventIndex begin, EventIndex end, int num_threads);

namespace internal {

/// Telemetry for one sharded count: records every shard's instance total
/// into the parallel.shard_instances histogram and sets the
/// parallel.shard_imbalance_pct gauge to (max - mean) / mean of the shard
/// totals (0 for a perfectly balanced run). No-op under
/// TMOTIF_NO_TELEMETRY.
void RecordShardBalance(const std::vector<PackedMotifTable>& partials);

/// Sharded packed-code enumeration over any enumeration-core graph:
/// partitions [begin, end) by first event, runs one sink per shard writing
/// into a per-shard PackedMotifTable, and merges the tables. `make_sink` is
/// invoked as `make_sink(PackedMotifTable*)` once per shard (possibly from
/// worker threads — it must be safe to copy/call concurrently) and lets
/// callers filter what reaches the table (e.g. the streaming counter keeps
/// only instances ending in a new event). Ranges too small to be worth the
/// thread spawns run serially. The shared primitive behind
/// CountMotifsParallel and the streaming counter's recount/arrival paths.
template <typename Graph, typename SinkFactory>
PackedMotifTable CountPackedShardedWith(const Graph& graph,
                                        const EnumerationOptions& options,
                                        EventIndex begin, EventIndex end,
                                        int num_threads,
                                        SinkFactory make_sink) {
  PackedMotifTable merged;
  if (begin >= end) return merged;
  if (num_threads <= 1 || end - begin < 64) {
    auto sink = make_sink(&merged);
    EnumerateCore(graph, options, begin, end, sink);
    return merged;
  }
  const auto shards = MakeEventShards(begin, end, num_threads);
  std::vector<PackedMotifTable> partials(shards.size());
  std::vector<std::thread> workers;
  workers.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    workers.emplace_back([&, s] {
      auto sink = make_sink(&partials[s]);
      EnumerateCore(graph, options, shards[s].first, shards[s].second, sink);
    });
  }
  for (std::thread& worker : workers) worker.join();
  RecordShardBalance(partials);
  for (const PackedMotifTable& partial : partials) merged.MergeFrom(partial);
  return merged;
}

/// Unfiltered convenience wrapper: every instance reaches the table.
template <typename Graph>
PackedMotifTable CountPackedSharded(const Graph& graph,
                                    const EnumerationOptions& options,
                                    EventIndex begin, EventIndex end,
                                    int num_threads) {
  return CountPackedShardedWith(
      graph, options, begin, end, num_threads,
      [](PackedMotifTable* table) { return PackedTableSink{table}; });
}

}  // namespace internal

}  // namespace tmotif

#endif  // TMOTIF_ALGORITHMS_PARALLEL_H_
