#ifndef TMOTIF_STREAM_INSTANCE_STORE_H_
#define TMOTIF_STREAM_INSTANCE_STORE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "core/enumerate_core.h"
#include "graph/event.h"

namespace tmotif {

/// Node-pair-indexed live-instance store: the data structure that makes
/// static-induced streaming fully incremental (docs/STREAMING.md).
///
/// Under `Inducedness::kStatic` without an order predicate (the configs
/// StreamingMotifCounter::UsesInstanceStore accepts) an instance's
/// validity factors into two independent parts:
///   * a *candidate* predicate (connectivity, node cap, timing) that reads
///     only the instance's own events, and
///   * the static coverage check: `distinct event digit pairs ==
///     number of directed static edges among the instance's nodes`.
/// The store keeps every candidate instance of the current window together
/// with its distinct-pair count and a `covered` flag caching the coverage
/// check; an entry is counted exactly when it is covered. Candidates enter
/// only when a batch delivers their last event and leave only when the
/// window evicts their first event (both already enumerated by the
/// streaming delta path). Coverage can only change for instances whose
/// node set contains BOTH endpoints of a static edge that appeared or
/// disappeared — bucketing entries by every unordered node pair of their
/// scope turns a static-edge flip into a bucket scan: retire or admit
/// exactly the affected instances, O(affected), no recount.
///
/// Identity scheme: entries are anchored by their first event's monotone id
/// (the stream/window_graph.h `id = first_id() + position` numbering) via a
/// deque of per-id slots. Eviction pops slots from the front; an event
/// entering before residents (stream/streaming_counter.h) inserts an empty
/// slot, which shifts every later slot exactly in lockstep with the id
/// renumbering of the merged window.
///
/// Bucket slots referencing evicted entries are dropped lazily when their
/// bucket is next scanned; a compaction pass filters every bucket in place
/// when the dead-slot debt exceeds the live population, so memory stays
/// O(live candidates).
class LiveInstanceStore {
 public:
  struct Entry {
    /// Digit -> node id of the candidate (first `num_nodes` are valid).
    std::array<NodeId, internal::kMaxCoreNodes> nodes;
    /// Tag distinguishing reuses of this pool index (bucket staleness).
    std::uint32_t generation = 0;
    /// Packed motif code (core/enumerate_core.h) — the counts-table key.
    std::uint64_t packed = 0;
    /// Last flip pass that re-evaluated this entry (multi-flip dedupe).
    std::uint64_t visit_stamp = 0;
    std::int8_t num_nodes = 0;
    /// Distinct event digit pairs of `packed`.
    std::int8_t distinct_pairs = 0;
    /// Cached static coverage verdict: the instance currently contributes.
    bool covered = false;
    bool alive = false;
  };
  // ApproxBytes and the docs' memory model charge this size per candidate.
  static_assert(sizeof(Entry) <= 64, "a store entry fits one cache line");

  /// Dead-bucket-slot debt tolerated beyond the live population before a
  /// compaction pass runs.
  static constexpr std::size_t kCompactionSlack = 64;

  LiveInstanceStore() = default;

  /// Compaction passes performed so far (stream.store_compactions).
  std::uint64_t compactions() const { return compactions_; }

  /// Drops everything, returns the containers' storage to the allocator
  /// and restarts the anchor id space at `first_id_base` (the full-recount
  /// path re-populates via Insert). compactions() keeps counting.
  void Reset(std::uint64_t first_id_base);

  /// Registers a candidate anchored at its first event's monotone id
  /// `anchor_id` (>= the current base). `nodes` must hold `num_nodes`
  /// digit-ordered node ids.
  Entry& Insert(std::uint64_t anchor_id, std::uint64_t packed,
                const NodeId* nodes, int num_nodes, int distinct_pairs,
                bool covered);

  /// Removes every entry anchored at the `num_evicted` oldest ids and
  /// advances the base, invoking `fn(const Entry&)` before each removal
  /// (the eviction mirror of the window's canonical-prefix eviction).
  template <typename Fn>
  void EvictFront(std::size_t num_evicted, Fn fn) {
    for (std::size_t i = 0; i < num_evicted && !slots_.empty(); ++i) {
      for (const std::uint64_t tagged : slots_.front()) {
        Entry& entry = pool_[SlotIndex(tagged)];
        TMOTIF_CHECK(entry.alive && entry.generation == SlotTag(tagged));
        fn(const_cast<const Entry&>(entry));
        Free(&entry, SlotIndex(tagged));
      }
      slots_.pop_front();
    }
    base_ += num_evicted;
    CompactIfNeeded();
  }

  /// Opens an empty anchor slot at `first_id`: the event entered at that id
  /// shifts every later event's id by one, and inserting the slot shifts
  /// the anchored entries identically. An entry past the last populated
  /// slot needs no realignment.
  void SpliceSlot(std::uint64_t first_id);

  /// Invokes `fn(Entry&)` for every live entry whose node set contains both
  /// `u` and `v` — the exact set a static-edge flip of (u, v) (in either
  /// direction) can retire or admit. Stale bucket slots encountered on the
  /// way are removed.
  template <typename Fn>
  void ForEachTouching(NodeId u, NodeId v, Fn fn) {
    const auto it = buckets_.find(UnorderedPairKey(u, v));
    if (it == buckets_.end()) return;
    std::vector<std::uint64_t>& bucket = it->second;
    for (std::size_t i = 0; i < bucket.size();) {
      Entry& entry = pool_[SlotIndex(bucket[i])];
      if (!entry.alive || entry.generation != SlotTag(bucket[i])) {
        bucket[i] = bucket.back();
        bucket.pop_back();
        TMOTIF_CHECK(dead_bucket_slots_ > 0);
        --dead_bucket_slots_;
        continue;
      }
      fn(entry);
      ++i;
    }
    if (bucket.empty()) buckets_.erase(it);
  }

  /// Monotone stamp for one flip pass (callers mark visited entries so an
  /// entry touching several flipped pairs is re-evaluated once).
  std::uint64_t NextVisitStamp() { return ++visit_counter_; }

  /// Live candidate instances (the store's memory footprint driver).
  std::size_t size() const { return live_; }
  /// Approximate resident bytes: entry pool + free list + anchor slot
  /// deque + bucket references + a fixed per-bucket hash-node estimate.
  /// Computed from logical element counts (not allocator capacities), so
  /// the number is deterministic for a given stream replay — it feeds the
  /// stream.store_bytes gauge and tmotif_stream's final stats line.
  std::size_t ApproxBytes() const;

 private:
  static std::uint64_t UnorderedPairKey(NodeId u, NodeId v) {
    return u <= v ? NodePairKey(u, v) : NodePairKey(v, u);
  }
  static std::uint32_t SlotIndex(std::uint64_t tagged) {
    return static_cast<std::uint32_t>(tagged);
  }
  static std::uint32_t SlotTag(std::uint64_t tagged) {
    return static_cast<std::uint32_t>(tagged >> 32);
  }
  static std::uint64_t Tagged(std::uint32_t index, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(tag) << 32) | index;
  }

  /// Unordered scope pairs of an entry; `fn(pair_key)`.
  template <typename Fn>
  static void ForEachPairKey(const Entry& entry, Fn fn) {
    for (int a = 0; a < entry.num_nodes; ++a) {
      for (int b = a + 1; b < entry.num_nodes; ++b) {
        fn(UnorderedPairKey(entry.nodes[static_cast<std::size_t>(a)],
                            entry.nodes[static_cast<std::size_t>(b)]));
      }
    }
  }

  void Free(Entry* entry, std::uint32_t index);
  void CompactIfNeeded();

  std::vector<Entry> pool_;
  std::vector<std::uint32_t> free_list_;
  /// slots_[i] anchors entries whose first event has id base_ + i.
  std::deque<std::vector<std::uint64_t>> slots_;
  std::uint64_t base_ = 0;
  /// Unordered-node-pair key -> tagged entry references.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> buckets_;
  std::size_t live_ = 0;
  /// Bucket references held by live entries (sum of their scope pairs).
  std::size_t live_pair_refs_ = 0;
  /// Bucket slots pointing at freed entries, not yet lazily removed.
  std::size_t dead_bucket_slots_ = 0;
  /// Monotone count of compaction passes (survives Reset).
  std::uint64_t compactions_ = 0;
  std::uint64_t visit_counter_ = 0;
};

}  // namespace tmotif

#endif  // TMOTIF_STREAM_INSTANCE_STORE_H_
