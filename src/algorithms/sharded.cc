#include "algorithms/sharded.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/enumerate_core.h"
#include "core/fast_paths/fast_path.h"
#include "core/packed_table.h"
#include "obs/metrics.h"

namespace tmotif {

namespace {

using internal::PackedMotifTable;

/// Undirected CSR over the static projection, shared read-only by every
/// shard's closure BFS. The per-node neighbor CSR in TemporalGraph is
/// directed (out-edges only), so the reverse direction is materialized
/// here once instead of per shard.
struct StaticAdjacency {
  std::vector<std::size_t> offsets;
  std::vector<NodeId> neighbors;
};

StaticAdjacency BuildUndirectedAdjacency(const TemporalGraph& graph) {
  const NodeId n = graph.num_nodes();
  StaticAdjacency adj;
  adj.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (TemporalGraph::EdgeHandle e = graph.edges_begin(u);
         e < graph.edges_end(u); ++e) {
      const NodeId v = graph.edge_dst(e);
      ++adj.offsets[static_cast<std::size_t>(u) + 1];
      ++adj.offsets[static_cast<std::size_t>(v) + 1];
    }
  }
  for (std::size_t i = 1; i < adj.offsets.size(); ++i) {
    adj.offsets[i] += adj.offsets[i - 1];
  }
  adj.neighbors.resize(adj.offsets.back());
  std::vector<std::size_t> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (TemporalGraph::EdgeHandle e = graph.edges_begin(u);
         e < graph.edges_end(u); ++e) {
      const NodeId v = graph.edge_dst(e);
      adj.neighbors[cursor[static_cast<std::size_t>(u)]++] = v;
      adj.neighbors[cursor[static_cast<std::size_t>(v)]++] = u;
    }
  }
  return adj;
}

/// Identity-aware sink charging each instance to the shard owning its
/// minimum node id. Deliberately has no EmitBatch: batch emits carry no
/// node identity, so the engine keeps per-instance Emit calls, which is
/// exactly what the ownership check needs.
struct OwnershipSink {
  PackedMotifTable* table;
  const ShardPlan* plan;
  int shard;
  std::uint64_t cross_shard = 0;

  void Emit(const EventIndex*, int, std::uint64_t packed, const NodeId* nodes,
            int num_nodes) {
    NodeId min_node = nodes[0];
    bool spans = false;
    for (int i = 0; i < num_nodes; ++i) {
      min_node = std::min(min_node, nodes[i]);
      spans |= plan->shard_of(nodes[i]) != shard;
    }
    if (plan->shard_of(min_node) != shard) return;
    table->Add(packed);
    if (spans) ++cross_shard;
  }
};

/// One shard's whole job: closure BFS, sub-graph build, count. Runs on the
/// worker thread so the sub-graph's CSR indices and SoA mirrors are
/// allocated (first-touched) by the thread that will read them.
void RunShard(const TemporalGraph& graph, const EnumerationOptions& options,
              const ShardPlan& plan, const StaticAdjacency& adj, int shard,
              PackedMotifTable* table, ShardCountStats* stats) {
  const auto started = std::chrono::steady_clock::now();
  const double cpu_started = internal::ThreadCpuSeconds();
  const NodeId n = graph.num_nodes();
  const int hops = internal::HaloHops(options);

  // Closure = owned nodes plus everything within `hops` BFS levels over
  // the undirected static projection.
  std::vector<std::uint8_t> in_closure(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> frontier;
  for (NodeId v = 0; v < n; ++v) {
    if (plan.shard_of(v) == shard) {
      in_closure[static_cast<std::size_t>(v)] = 1;
      frontier.push_back(v);
      ++stats->owned_nodes;
    }
  }
  std::vector<NodeId> next;
  for (int hop = 0; hop < hops && !frontier.empty(); ++hop) {
    next.clear();
    for (const NodeId u : frontier) {
      const std::size_t lo = adj.offsets[static_cast<std::size_t>(u)];
      const std::size_t hi = adj.offsets[static_cast<std::size_t>(u) + 1];
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId v = adj.neighbors[i];
        if (!in_closure[static_cast<std::size_t>(v)]) {
          in_closure[static_cast<std::size_t>(v)] = 1;
          next.push_back(v);
          ++stats->halo_nodes;
        }
      }
    }
    frontier.swap(next);
  }

  // The sub-graph keeps global node ids (SetMinNumNodes pins the id
  // space), so the ownership sink and the merged result need no
  // renumbering. It contains every event with an endpoint in the closure:
  // the enumeration predicates consult exactly the events incident to
  // instance nodes, so for instances whose minimum node is owned here,
  // sub-graph validity coincides with full-graph validity (see sharded.h).
  TemporalGraphBuilder builder;
  builder.SetMinNumNodes(n);
  for (const Event& event : graph.events()) {
    if (in_closure[static_cast<std::size_t>(event.src)] ||
        in_closure[static_cast<std::size_t>(event.dst)]) {
      builder.AddEvent(event);
    }
  }
  if (!graph.node_labels().empty()) {
    for (NodeId v = 0; v < n; ++v) {
      if (in_closure[static_cast<std::size_t>(v)]) {
        builder.SetNodeLabel(v, graph.node_label(v));
      }
    }
  }
  const TemporalGraph sub = builder.Build();
  stats->subgraph_events = sub.num_events();

  // An empty halo means closure == owned; since the halo BFS runs at
  // least one hop (max_nodes >= 2), every neighbor of an owned node is
  // then owned too, so all sub-graph instances are owned here and the
  // unfiltered engines — including the specialized fast paths — apply.
  stats->pure = stats->halo_nodes == 0;
  if (stats->pure) {
    if (internal::fast_paths::FastPathSupported(options)) {
      internal::fast_paths::NoteDispatch(true);
      internal::fast_paths::CountRangeInto(sub, options, 0, sub.num_events(),
                                           table);
    } else {
      internal::fast_paths::NoteDispatch(false);
      internal::PackedTableSink sink{table};
      internal::EnumerateCore(sub, options, 0, sub.num_events(), sink);
    }
  } else {
    internal::fast_paths::NoteDispatch(false);
    OwnershipSink sink{table, &plan, shard, 0};
    internal::EnumerateCore(sub, options, 0, sub.num_events(), sink);
    stats->cross_shard_instances = sink.cross_shard;
  }
  stats->instances = table->total();
  stats->seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  stats->cpu_seconds = internal::ThreadCpuSeconds() - cpu_started;
}

void PublishShardingTelemetry(const std::vector<ShardCountStats>& shards) {
#ifndef TMOTIF_NO_TELEMETRY
  static obs::Histogram* const halo_nodes =
      obs::GlobalMetrics().GetHistogram("sharding.halo_nodes");
  static obs::Histogram* const shard_instances =
      obs::GlobalMetrics().GetHistogram("sharding.shard_instances");
  static obs::Histogram* const shard_latency =
      obs::GlobalMetrics().GetHistogram("sharding.shard_latency_ns");
  static obs::Counter* const cross_shard =
      obs::GlobalMetrics().GetCounter("sharding.cross_shard_instances");
  for (const ShardCountStats& s : shards) {
    halo_nodes->Record(s.halo_nodes);
    shard_instances->Record(s.instances);
    shard_latency->Record(static_cast<std::int64_t>(s.seconds * 1e9));
    cross_shard->Add(s.cross_shard_instances);
  }
#else
  (void)shards;
#endif
}

}  // namespace

std::uint64_t ShardedCountResult::TotalInstances() const {
  std::uint64_t total = 0;
  for (const ShardCountStats& s : shards) total += s.instances;
  return total;
}

std::uint64_t ShardedCountResult::CrossShardInstances() const {
  std::uint64_t total = 0;
  for (const ShardCountStats& s : shards) total += s.cross_shard_instances;
  return total;
}

double ShardedCountResult::AggregateCpuSeconds() const {
  double total = 0.0;
  for (const ShardCountStats& s : shards) total += s.cpu_seconds;
  return total;
}

ShardedCountResult CountMotifsShardedWithStats(
    const TemporalGraph& graph, const EnumerationOptions& options,
    const ShardPlan& plan) {
  internal::ValidateEnumerationOptions(options);
  TMOTIF_CHECK_MSG(options.max_instances == 0,
                   "max_instances is not supported in sharded counting");
  TMOTIF_CHECK_MSG(plan.num_nodes() == graph.num_nodes(),
                   "shard plan node count must match the graph");
  const int num_shards = plan.num_shards();
  ShardedCountResult result;
  result.shards.assign(static_cast<std::size_t>(num_shards),
                       ShardCountStats{});
  const StaticAdjacency adj = BuildUndirectedAdjacency(graph);
  std::vector<PackedMotifTable> partials(
      static_cast<std::size_t>(num_shards));
  if (num_shards <= 1) {
    RunShard(graph, options, plan, adj, 0, &partials[0], &result.shards[0]);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      workers.emplace_back([&, s] {
        RunShard(graph, options, plan, adj, s,
                 &partials[static_cast<std::size_t>(s)],
                 &result.shards[static_cast<std::size_t>(s)]);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  PublishShardingTelemetry(result.shards);
  PackedMotifTable merged;
  for (const PackedMotifTable& partial : partials) merged.MergeFrom(partial);
  result.counts.AddTable(merged);
  return result;
}

MotifCounts CountMotifsSharded(const TemporalGraph& graph,
                               const EnumerationOptions& options,
                               const ShardPlan& plan) {
  return CountMotifsShardedWithStats(graph, options, plan).counts;
}

namespace internal {

int HaloHops(const EnumerationOptions& options) {
  return std::min(options.max_nodes, options.num_events + 1) - 1;
}

double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace internal

}  // namespace tmotif
