#ifndef TMOTIF_CORE_PACKED_TABLE_H_
#define TMOTIF_CORE_PACKED_TABLE_H_

// Flat open-addressed accumulation table keyed by packed motif codes
// (core/enumerate_core.h): one array of (key, count) slots, key 0 marking
// an empty slot, linear probing from the key's hashed home slot, grown at
// load 1/2. The motif spectra are tiny (36 three-event codes, 696
// four-event codes), so the whole table stays cache-resident while the
// enumerator hammers Add() once per instance; a finished table is folded
// into the packed-keyed MotifCounts through its AddTable / SubtractTable
// funnel. Codes are spelled as digit strings only when a reader asks for
// them (MotifCounts' sorted accessors, printing).

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "core/enumerate_core.h"
#include "core/motif_code.h"
#include "obs/metrics.h"

namespace tmotif {
namespace internal {

/// Spelling of a packed code in the paper's digit-string notation.
inline MotifCode PackedCodeToString(std::uint64_t packed) {
  char buf[2 * kMaxCoreEvents];
  const int len = PackedCodeToChars(packed, PackedNumEvents(packed), buf);
  return MotifCode(buf, static_cast<std::size_t>(len));
}

/// The library's one parser from the digit-string notation: the packed
/// code of `code`, or 0 (never a packed code) when `code` is not a
/// canonical code (IsValidCode) of at most kMaxCoreEvents events.
inline std::uint64_t PackCode(std::string_view code) {
  if (code.size() > 2 * kMaxCoreEvents || !IsValidCode(code)) return 0;
  std::uint64_t packed = 0;
  for (std::size_t i = 0; i < code.size(); i += 2) {
    packed |= PackPair(code[i] - '0', code[i + 1] - '0',
                       static_cast<int>(i / 2));
  }
  return packed;
}

/// True when `packed` is a code the enumerator can emit under `options`:
/// canonical (it spells and parses back to itself), with exactly
/// options.num_events events over at most options.max_nodes nodes.
/// Untrusted packed codes (checkpoint entries) must pass this first.
inline bool IsCountablePacked(std::uint64_t packed,
                              const EnumerationOptions& options) {
  const MotifCode code = PackedCodeToString(packed);
  return packed != 0 && PackCode(code) == packed &&
         CodeNumEvents(code) == options.num_events &&
         CodeNumNodes(code) <= options.max_nodes;
}

class PackedMotifTable {
 public:
  PackedMotifTable() { Reset(); }

  /// Accumulates `n` occurrences of `packed`. Packed codes are never zero
  /// (the first event byte is always 0x01), so zero marks empty slots.
  void Add(std::uint64_t packed, std::uint64_t n = 1) {
    TMOTIF_CHECK(packed != 0);
    total_ += n;
    std::size_t i = Hash(packed) & mask_;
    while (slots_[i].key != packed) {
      if (slots_[i].key == 0) {
        slots_[i] = Slot{packed, n};
        if (2 * ++size_ > slots_.size()) Grow();
        return;
      }
      ++probe_steps_;  // Occupied by another key: a wasted probe.
      i = (i + 1) & mask_;
    }
    slots_[i].count += n;
  }

  void MergeFrom(const PackedMotifTable& other) {
    other.ForEach([this](std::uint64_t packed, std::uint64_t n) {
      Add(packed, n);
    });
    // Absorb the (possibly worker-thread) source's probe telemetry so one
    // flush of the merged table covers the whole sharded count.
    probe_steps_ += other.probe_steps_;
    resizes_ += other.resizes_;
    other.probe_steps_ = 0;
    other.resizes_ = 0;
  }

  /// Flushes the accumulated probe/resize telemetry into the process-wide
  /// core.table_probe_steps / core.table_resizes counters and zeroes the
  /// local tally. Called only by the consumption funnel
  /// (MotifCounts::AddTable / SubtractTable) — never per Add, so the hot
  /// loop stays increment-only. Deliberately NOT destructor-based: tables
  /// are moved and copied in worker vectors, and a destructor flush would
  /// double-count.
  void PublishTelemetry() const {
    // Registered before the early return, so both counters are exported
    // (at 0) once any table has been published.
    static obs::Counter* const probes =
        obs::GlobalMetrics().GetCounter("core.table_probe_steps");
    static obs::Counter* const resizes =
        obs::GlobalMetrics().GetCounter("core.table_resizes");
    if (probe_steps_ == 0 && resizes_ == 0) return;
    probes->Add(probe_steps_);
    resizes->Add(resizes_);
    probe_steps_ = 0;
    resizes_ = 0;
  }

  /// Invokes `fn(packed, count)` for every occupied slot (table order,
  /// which is unspecified — callers needing determinism should sort or
  /// funnel into MotifCounts).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != 0) fn(slot.key, slot.count);
    }
  }

  std::uint64_t total() const { return total_; }
  std::size_t num_codes() const { return size_; }

  void Reset() {
    slots_.assign(kInitialCapacity, Slot{});
    mask_ = kInitialCapacity - 1;
    size_ = 0;
    total_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;  // 0 = empty.
    std::uint64_t count = 0;
  };

  /// Power of two.
  static constexpr std::size_t kInitialCapacity = 64;

  static std::size_t Hash(std::uint64_t x) {
    // SplitMix64 finalizer: cheap and well-mixed for packed digit codes.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }

  void Grow() {
    ++resizes_;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    // Keys are unique: rehash each into the first empty slot from its home
    // (probe telemetry counts live Adds only).
    for (const Slot& slot : old) {
      if (slot.key == 0) continue;
      std::size_t i = Hash(slot.key) & mask_;
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  /// Wasted probes / grows since the last PublishTelemetry (mutable so the
  /// flush can run from the const consumption helpers).
  mutable std::uint64_t probe_steps_ = 0;
  mutable std::uint64_t resizes_ = 0;
};

/// Sink accumulating every emitted instance into a PackedMotifTable.
/// Implements the optional batch half of the sink contract: a saturated
/// edge run of `n` instances sharing one code collapses into a single
/// table update instead of `n` Emit calls.
struct PackedTableSink {
  PackedMotifTable* table;
  void Emit(const EventIndex*, int, std::uint64_t packed, const NodeId*,
            int) {
    table->Add(packed);
  }
  void EmitBatch(std::uint64_t packed, std::uint64_t n) {
    table->Add(packed, n);
  }
};

}  // namespace internal
}  // namespace tmotif

#endif  // TMOTIF_CORE_PACKED_TABLE_H_
