#include "stream/instance_store.h"

#include <algorithm>
#include <iterator>

namespace tmotif {

void LiveInstanceStore::Reset(std::uint64_t first_id_base) {
  // clear() would keep every container's storage; a fresh store holds none.
  const std::uint64_t compactions = compactions_;
  *this = LiveInstanceStore();
  base_ = first_id_base;
  compactions_ = compactions;
}

LiveInstanceStore::Entry& LiveInstanceStore::Insert(
    std::uint64_t anchor_id, std::uint64_t packed, const NodeId* nodes,
    int num_nodes, int distinct_pairs, bool covered) {
  TMOTIF_CHECK(anchor_id >= base_);
  TMOTIF_CHECK(num_nodes >= 1 && num_nodes <= internal::kMaxCoreNodes);
  const std::size_t slot = static_cast<std::size_t>(anchor_id - base_);
  if (slot >= slots_.size()) slots_.resize(slot + 1);

  std::uint32_t index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Entry& entry = pool_[index];
  for (int d = 0; d < num_nodes; ++d) {
    entry.nodes[static_cast<std::size_t>(d)] = nodes[d];
  }
  entry.packed = packed;
  ++entry.generation;  // Retags the pool index; stale bucket refs miss.
  entry.visit_stamp = 0;
  entry.num_nodes = static_cast<std::int8_t>(num_nodes);
  entry.distinct_pairs = static_cast<std::int8_t>(distinct_pairs);
  entry.covered = covered;
  entry.alive = true;
  ++live_;
  live_pair_refs_ +=
      static_cast<std::size_t>(num_nodes * (num_nodes - 1) / 2);

  const std::uint64_t tagged = Tagged(index, entry.generation);
  slots_[slot].push_back(tagged);
  ForEachPairKey(entry,
                 [&](std::uint64_t key) { buckets_[key].push_back(tagged); });
  return entry;
}

void LiveInstanceStore::SpliceSlot(std::uint64_t first_id) {
  TMOTIF_CHECK(first_id >= base_);
  const std::size_t pos = static_cast<std::size_t>(first_id - base_);
  // NOTE: an explicit element, not `{}` — brace-initializing the argument
  // would select the initializer-list insert overload and insert nothing.
  if (pos < slots_.size()) {  // Nothing anchored at or past it otherwise.
    slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::vector<std::uint64_t>());
  }
}

void LiveInstanceStore::Free(Entry* entry, std::uint32_t index) {
  entry->alive = false;
  TMOTIF_CHECK(live_ > 0);
  --live_;
  // Its bucket references go stale; they are dropped lazily on the next
  // scan of each bucket, or wholesale by CompactIfNeeded.
  const int n = entry->num_nodes;
  const std::size_t pair_refs = static_cast<std::size_t>(n * (n - 1) / 2);
  TMOTIF_CHECK(live_pair_refs_ >= pair_refs);
  live_pair_refs_ -= pair_refs;
  dead_bucket_slots_ += pair_refs;
  free_list_.push_back(index);
}

void LiveInstanceStore::CompactIfNeeded() {
  if (dead_bucket_slots_ <= live_ + kCompactionSlack) return;
  ++compactions_;
  // Filters every bucket in place and erases the ones left empty, so the
  // surviving buckets keep their storage; the bucket set afterwards is
  // exactly the scope pairs of the live entries.
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    std::vector<std::uint64_t>& bucket = it->second;
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [&](std::uint64_t tagged) {
                                  const Entry& entry = pool_[SlotIndex(tagged)];
                                  return !entry.alive ||
                                         entry.generation != SlotTag(tagged);
                                }),
                 bucket.end());
    it = bucket.empty() ? buckets_.erase(it) : std::next(it);
  }
  dead_bucket_slots_ = 0;
}

std::size_t LiveInstanceStore::ApproxBytes() const {
  // Logical sizes only — capacities and the hash map's real node layout
  // vary by allocator and libstdc++ version, and the gauge must stay
  // deterministic for golden-tested replays. 48 bytes approximates a
  // bucket hash node: 8B key + 24B vector header + bookkeeping.
  constexpr std::size_t kBucketNodeBytes = 48;
  constexpr std::size_t kRefBytes = sizeof(std::uint64_t);
  std::size_t bytes = pool_.size() * sizeof(Entry);
  bytes += free_list_.size() * sizeof(std::uint32_t);
  bytes += slots_.size() * sizeof(std::vector<std::uint64_t>);
  bytes += live_ * kRefBytes;  // Anchor refs: exactly one per live entry.
  bytes += (live_pair_refs_ + dead_bucket_slots_) * kRefBytes;
  bytes += buckets_.size() * kBucketNodeBytes;
  return bytes;
}

}  // namespace tmotif
