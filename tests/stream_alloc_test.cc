// Allocation guards of the streaming paths: in steady state a Song
// counter (k = 3, dW = 1800, 2048-event count window, fast-path deltas)
// must stay under a fixed number of heap allocations per 64-event batch,
// and so must a store-off Paranjape counter that recounts the window on
// every batch. A timing gate cannot see a 30% loss on a shared CI runner;
// an exact allocation count can, and it moves as soon as a per-call
// rebuild of the fast-path scratch (indexes, timelines, accumulators) or
// of the window indices comes back. A third guard tallies live heap bytes:
// a counter whose store a memory budget turned off must hold no more than
// one whose store was off from the start.
//
// The binary replaces every replaceable global operator new and delete
// (sanitizer runtimes define the forms a program leaves out, and mixing
// theirs with these would pair allocation and release across allocators),
// counts allocations and sums the live blocks' malloc_usable_size.

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/fault_points.h"
#include "core/models/model_info.h"
#include "gen/presets.h"
#include "obs/metrics.h"
#include "stream/streaming_counter.h"
#include "testing/fault_injection.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
/// Usable bytes of every block operator new handed out and delete has not
/// taken back.
std::atomic<std::int64_t> g_live_bytes{0};

void* TryAlloc(std::size_t size, std::size_t align) noexcept {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p != nullptr) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void Free(void* p) noexcept {
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* Alloc(std::size_t size, std::size_t align) {
  void* p = TryAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::size_t Align(std::align_val_t align) {
  return static_cast<std::size_t>(align);
}
}  // namespace

void* operator new(std::size_t n) { return Alloc(n, 0); }
void* operator new[](std::size_t n) { return Alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return Alloc(n, Align(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return Alloc(n, Align(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return TryAlloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return TryAlloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return TryAlloc(n, Align(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return TryAlloc(n, Align(a));
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, std::align_val_t) noexcept { Free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Free(p);
}

namespace tmotif {
namespace {

constexpr std::size_t kBatch = 64;
constexpr std::size_t kWarmupBatches = 128;
// Steady state measures about 160 allocations per batch (window and index
// bookkeeping, the per-batch packed tables, the batch's stable sort); the
// ceiling leaves headroom for standard-library differences. Rebuilding the
// fast-path scratch on every call costs about 2,800 per batch.
constexpr double kMaxAllocationsPerBatch = 250;
// A store-off recount batch measures about 177 allocations in Debug and
// Release builds (the window update, the batch's stable sort, the
// fast-path count into a fresh counts table); rebuilding the window
// indices on every recount costs about 4,300.
constexpr double kMaxRecountAllocationsPerBatch = 300;

// Batches a Paranjape counter replays with its store on before a pressure
// spike turns the store off, and the batches it replays in all.
constexpr std::size_t kStoreBatches = 128;
constexpr std::size_t kHeapBatches = 192;
// Live heap a demoted counter may hold beyond its never-stored twin. A
// store that is cleared but not freed keeps megabytes of capacity.
constexpr std::int64_t kLiveHeapMargin = 64 << 10;

/// CollegeMsg (seed 1) cut into 64-event batches.
std::vector<std::vector<Event>> CollegeMsgBatches() {
  const std::vector<Event> events =
      GenerateDataset(DatasetId::kCollegeMsg, 1.0, /*seed=*/1).events();
  std::vector<std::vector<Event>> batches;
  for (std::size_t begin = 0; begin < events.size(); begin += kBatch) {
    const std::size_t end = std::min(begin + kBatch, events.size());
    batches.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(begin),
                         events.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

TEST(StreamAlloc, SongDeltaBatchesStayUnderAllocationCeiling) {
  std::vector<std::vector<Event>> batches = CollegeMsgBatches();
  ASSERT_GT(batches.size(), 4 * kWarmupBatches);

  StreamConfig config;
  config.options = OptionsForModel(ModelId::kSong, 3, 3, /*delta_c=*/0,
                                   /*delta_w=*/1800);
  config.window = WindowPolicy::CountBased(2048);
  StreamingMotifCounter counter(config);

  for (std::size_t b = 0; b < kWarmupBatches; ++b) {
    counter.Ingest(std::move(batches[b]));
  }
  const std::uint64_t recounts_before = counter.stats().full_recounts;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t b = kWarmupBatches; b < batches.size(); ++b) {
    counter.Ingest(std::move(batches[b]));
  }
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  // The measured batches must have taken the delta path, not recounts.
  EXPECT_EQ(counter.stats().full_recounts, recounts_before);
  EXPECT_GT(counter.stats().instances_added, 0u);
  const double measured = static_cast<double>(batches.size() - kWarmupBatches);
  const double per_batch = static_cast<double>(allocations) / measured;
  RecordProperty("allocations_per_batch", static_cast<int>(per_batch));
  EXPECT_LE(per_batch, kMaxAllocationsPerBatch)
      << allocations << " allocations over " << measured << " batches";
}

// Store off (a 1-byte budget), every batch flips a static edge and
// recounts the whole window on the fast path. The recount counts on the
// indices the batch's update already maintains; it must not rebuild them.
TEST(StreamAlloc, StoreOffFlipRecountsStayUnderAllocationCeiling) {
  std::vector<std::vector<Event>> batches = CollegeMsgBatches();
  ASSERT_GT(batches.size(), 4 * kWarmupBatches);

  StreamConfig config;
  config.options = OptionsForModel(ModelId::kParanjape, 3, 3, /*delta_c=*/0,
                                   /*delta_w=*/1800);
  config.window = WindowPolicy::CountBased(2048);
  config.store_budget_bytes = 1;
  StreamingMotifCounter counter(config);

  for (std::size_t b = 0; b < kWarmupBatches; ++b) {
    counter.Ingest(std::move(batches[b]));
  }
  ASSERT_EQ(counter.store_mode(), StoreMode::kRecount);
  const std::uint64_t fallbacks_before = counter.stats().static_fallbacks;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t b = kWarmupBatches; b < batches.size(); ++b) {
    counter.Ingest(std::move(batches[b]));
  }
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  // Every measured batch must have taken the flip recount.
  const std::size_t measured_batches = batches.size() - kWarmupBatches;
  EXPECT_EQ(counter.stats().static_fallbacks - fallbacks_before,
            measured_batches);
  const double per_batch =
      static_cast<double>(allocations) / static_cast<double>(measured_batches);
  RecordProperty("allocations_per_batch", static_cast<int>(per_batch));
  EXPECT_LE(per_batch, kMaxRecountAllocationsPerBatch)
      << allocations << " allocations over " << measured_batches
      << " batches";
}

/// What a Paranjape counter (k = 3, dW = 1800, 2048-event count window)
/// holds once it has ingested the first `num_batches` batches under
/// `budget`.
struct ReplayHeap {
  /// Live heap bytes allocated during the replay and still held.
  std::int64_t live_bytes = 0;
  /// Largest store footprint seen after a batch.
  std::size_t peak_store_bytes = 0;
  StoreMode mode = StoreMode::kFull;
  std::uint64_t demotions = 0;
};

ReplayHeap ReplayParanjape(const std::vector<std::vector<Event>>& batches,
                           std::size_t num_batches, std::size_t budget) {
  StreamConfig config;
  config.options = OptionsForModel(ModelId::kParanjape, 3, 3, /*delta_c=*/0,
                                   /*delta_w=*/1800);
  config.window = WindowPolicy::CountBased(2048);
  config.store_budget_bytes = budget;
  ReplayHeap heap;
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  StreamingMotifCounter counter(config);
  for (std::size_t b = 0; b < num_batches; ++b) {
    counter.Ingest(batches[b]);
    heap.peak_store_bytes =
        std::max(heap.peak_store_bytes, counter.store_approx_bytes());
  }
  heap.live_bytes = g_live_bytes.load(std::memory_order_relaxed) - before;
  heap.mode = counter.store_mode();
  heap.demotions = counter.stats().store_demotions_recount;
  return heap;
}

// A demotion frees the store: a counter whose store ran for kStoreBatches
// batches before a pressure spike turned it off holds, at the end of the
// replay, no more live heap than a twin whose 1-byte budget turned the
// store off in its first batch (plus a fixed margin).
TEST(StreamAlloc, DemotionReleasesTheStore) {
  const std::vector<std::vector<Event>> batches = CollegeMsgBatches();
  ASSERT_GT(batches.size(), kHeapBatches);
  testing::FaultInjectionGuard guard;
  // Registers the process-wide metric handles, so neither measured replay
  // is charged for them.
  ReplayParanjape(batches, 2, /*budget=*/1);
  const ReplayHeap twin = ReplayParanjape(batches, kHeapBatches, 1);

  obs::Counter* const compactions =
      obs::GlobalMetrics().GetCounter("stream.store_compactions");
  const std::uint64_t compactions_before = compactions->Value();
  // The budget point is consulted once per batch while the store is on.
  fault::FaultSpec spike;
  spike.skip_hits = kStoreBatches - 1;
  spike.payload = std::int64_t{1} << 40;
  testing::ScopedFault pressure("stream.budget_pressure", spike);
  const ReplayHeap demoted =
      ReplayParanjape(batches, kHeapBatches, std::size_t{1} << 39);
  const std::uint64_t compacted = compactions->Value() - compactions_before;

  EXPECT_EQ(pressure.fires(), 1u);
  EXPECT_EQ(twin.mode, StoreMode::kRecount);
  EXPECT_EQ(demoted.mode, StoreMode::kRecount);
  EXPECT_EQ(demoted.demotions, 1u);
  RecordProperty("store_peak_bytes",
                 static_cast<int>(demoted.peak_store_bytes));
  RecordProperty("demoted_live_bytes", static_cast<int>(demoted.live_bytes));
  RecordProperty("twin_live_bytes", static_cast<int>(twin.live_bytes));
  // The store grew far past the margin before it was turned off, and it
  // compacted its buckets, so a demotion that dropped the store's
  // compaction count would show in the exported counter.
  EXPECT_GT(demoted.peak_store_bytes,
            static_cast<std::size_t>(16 * kLiveHeapMargin));
  EXPECT_GT(compacted, 0u);
  EXPECT_LE(compacted, kStoreBatches);
  EXPECT_LE(demoted.live_bytes, twin.live_bytes + kLiveHeapMargin)
      << "a demoted counter holds " << demoted.live_bytes
      << " live heap bytes, a never-stored twin " << twin.live_bytes;
}

}  // namespace
}  // namespace tmotif
