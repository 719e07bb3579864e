#ifndef TMOTIF_CORE_PACKED_TABLE_H_
#define TMOTIF_CORE_PACKED_TABLE_H_

// Flat group-probing accumulation table keyed by packed motif codes
// (core/enumerate_core.h), swiss-table style: a contiguous control-byte
// array holds a 7-bit tag per slot (or the empty marker), and a probe
// step compares one 16-slot group of tags at once through the
// vectorized match kernels (core/simd/). Keys are only touched on tag
// hits, so a probe step costs one 16-byte compare + movemask instead of
// up to 16 key loads. The motif spectra are tiny (36 three-event codes,
// 696 four-event codes), so the whole table stays cache-resident while
// the enumerator hammers Add() once per instance; a finished table is
// folded into the packed-keyed MotifCounts through its AddTable /
// SubtractTable funnel. Codes are spelled as digit strings only when a
// reader asks for them (MotifCounts' sorted accessors, printing).
//
// The scalar and vector match kernels return identical masks by
// contract, so the probe sequence — and with it the table layout and
// the probe-step telemetry — is the same at every dispatch level.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "core/enumerate_core.h"
#include "core/motif_code.h"
#include "core/simd/dispatch.h"
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
  PackedMotifTable() : ops_(&simd::Kernels()) { Reset(); }

  /// Accumulates `n` occurrences of `packed`. Packed codes are never zero
  /// (the first event byte is always 0x01), so zero marks empty key slots.
  void Add(std::uint64_t packed, std::uint64_t n = 1) {
    TMOTIF_CHECK(packed != 0);
    const std::size_t h = Hash(packed);
    const std::uint8_t tag = TagOf(h);
    std::size_t group = h & group_mask_;
    for (;;) {
      const std::uint8_t* g = ctrl_.data() + group * simd::kGroupSize;
      ++group_probes_;  // One match-kernel invocation; flushed in bulk.
      std::uint32_t match = ops_->match_tags(g, tag);
      while (match != 0) {
        const std::size_t slot =
            group * simd::kGroupSize +
            static_cast<std::size_t>(simd::TrailingZeros(match));
        if (keys_[slot] == packed) {
          values_[slot] += n;
          total_ += n;
          return;
        }
        ++probe_steps_;  // Tag false positive: a key load was wasted.
        match &= match - 1;
      }
      const std::uint32_t empty = ops_->match_empty(g);
      if (empty != 0) {
        const std::size_t slot =
            group * simd::kGroupSize +
            static_cast<std::size_t>(simd::TrailingZeros(empty));
        ctrl_[slot] = tag;
        keys_[slot] = packed;
        values_[slot] = n;
        total_ += n;
        ++size_;
        if (4 * size_ > 3 * keys_.size()) Grow();
        return;
      }
      ++probe_steps_;  // Full group: spill to the next one.
      group = (group + 1) & group_mask_;
    }
  }

  void MergeFrom(const PackedMotifTable& other) {
    other.ForEach([this](std::uint64_t packed, std::uint64_t n) {
      Add(packed, n);
    });
    // Absorb the (possibly worker-thread) source's probe telemetry so one
    // flush of the merged table covers the whole sharded count.
    probe_steps_ += other.probe_steps_;
    group_probes_ += other.group_probes_;
    resizes_ += other.resizes_;
    other.probe_steps_ = 0;
    other.group_probes_ = 0;
    other.resizes_ = 0;
  }

  /// Flushes the accumulated probe/resize telemetry into the process-wide
  /// core.table_probe_steps / core.table_resizes counters (plus the
  /// counting.kernel_probe_groups invocation counter of the group-match
  /// kernel) and zeroes the local tally. Called only by the consumption
  /// funnel (MotifCounts::AddTable / SubtractTable) — never per Add, so the
  /// hot loop stays increment-only. Deliberately NOT destructor-based:
  /// tables are moved and copied in worker vectors, and a destructor flush
  /// would double-count.
  void PublishTelemetry() const {
    if (probe_steps_ == 0 && resizes_ == 0 && group_probes_ == 0) return;
    static obs::Counter* const probes =
        obs::GlobalMetrics().GetCounter("core.table_probe_steps");
    static obs::Counter* const groups =
        obs::GlobalMetrics().GetCounter("counting.kernel_probe_groups");
    static obs::Counter* const resizes =
        obs::GlobalMetrics().GetCounter("core.table_resizes");
    probes->Add(probe_steps_);
    groups->Add(group_probes_);
    resizes->Add(resizes_);
    probe_steps_ = 0;
    group_probes_ = 0;
    resizes_ = 0;
  }

  /// Invokes `fn(packed, count)` for every occupied slot (table order,
  /// which is unspecified — callers needing determinism should sort or
  /// funnel into MotifCounts).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) fn(keys_[i], values_[i]);
    }
  }

  std::uint64_t total() const { return total_; }
  std::size_t num_codes() const { return size_; }

  void Reset() {
    ctrl_.assign(kInitialCapacity, simd::kEmptyCtrl);
    keys_.assign(kInitialCapacity, 0);
    values_.assign(kInitialCapacity, 0);
    group_mask_ = kInitialCapacity / simd::kGroupSize - 1;
    size_ = 0;
    total_ = 0;
  }

 private:
  /// Power of two, a multiple of the 16-slot group size.
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

  /// 7-bit control tag: the hash's top bits, disjoint from the low bits
  /// that pick the group. The high control bit stays clear, so a tag can
  /// never alias the empty marker.
  static std::uint8_t TagOf(std::size_t h) {
    return static_cast<std::uint8_t>((h >> 57) & 0x7F);
  }

  void Grow() {
    ++resizes_;
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint64_t> old_values = std::move(values_);
    ctrl_.assign(old_keys.size() * 2, simd::kEmptyCtrl);
    keys_.assign(old_keys.size() * 2, 0);
    values_.assign(old_values.size() * 2, 0);
    group_mask_ = keys_.size() / simd::kGroupSize - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == 0) continue;
      // Keys are unique: rehash straight into the first free slot of the
      // first non-full group (probe telemetry counts live Adds only).
      const std::size_t h = Hash(old_keys[i]);
      std::size_t group = h & group_mask_;
      for (;;) {
        const std::uint32_t empty =
            ops_->match_empty(ctrl_.data() + group * simd::kGroupSize);
        if (empty != 0) {
          const std::size_t slot =
              group * simd::kGroupSize +
              static_cast<std::size_t>(simd::TrailingZeros(empty));
          ctrl_[slot] = TagOf(h);
          keys_[slot] = old_keys[i];
          values_[slot] = old_values[i];
          break;
        }
        group = (group + 1) & group_mask_;
      }
    }
  }

  const simd::KernelOps* ops_;
  /// One control byte per slot: kEmptyCtrl or the key's 7-bit tag.
  std::vector<std::uint8_t> ctrl_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> values_;
  std::size_t group_mask_ = 0;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  /// Wasted key probes / match-kernel invocations / grows since the last
  /// PublishTelemetry (mutable so the flush can run from the const
  /// consumption helpers).
  mutable std::uint64_t probe_steps_ = 0;
  mutable std::uint64_t group_probes_ = 0;
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
