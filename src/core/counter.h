#ifndef TMOTIF_CORE_COUNTER_H_
#define TMOTIF_CORE_COUNTER_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/enumerator.h"
#include "core/motif_code.h"

namespace tmotif {

namespace internal {
class PackedMotifTable;
}  // namespace internal

/// A table of motif counts keyed by packed motif code (core/enumerate_core.h).
/// The digit-string notation lives only at the edge: string arguments are
/// parsed once (internal::PackCode) and only the sorted accessors spell.
class MotifCounts {
 public:
  /// Adds `count` occurrences of `code`, which must be a canonical code of
  /// at most 8 events (aborts otherwise). Adding 0 is a
  /// no-op. AddPacked takes the packed code (checkpoint restore).
  void Add(std::string_view code, std::uint64_t count = 1);
  void AddPacked(std::uint64_t packed, std::uint64_t count);

  /// The delta funnel every counting engine feeds: adds (or removes) every
  /// (code, count) of `table` and flushes the table's probe telemetry, so
  /// each consumed table is flushed exactly once. A retraction exceeding
  /// the recorded count aborts; codes reaching zero are erased.
  void AddTable(const internal::PackedMotifTable& table);
  void SubtractTable(const internal::PackedMotifTable& table);

  /// Count for one code (0 when absent or not a packable code).
  std::uint64_t count(const MotifCode& code) const;

  /// Sum over all codes.
  std::uint64_t total() const { return total_; }

  /// Fraction of the total held by `code` (0 when the table is empty).
  double Proportion(const MotifCode& code) const;

  /// Number of distinct codes observed.
  std::size_t num_codes() const { return counts_.size(); }

  /// (code, count) pairs sorted by descending count, ties by code, so
  /// rankings are deterministic.
  std::vector<std::pair<MotifCode, std::uint64_t>> SortedByCount() const;

  /// (code, count) pairs sorted by code.
  std::vector<std::pair<MotifCode, std::uint64_t>> SortedByCode() const;

  /// Packed code -> count (every count non-zero).
  const std::unordered_map<std::uint64_t, std::uint64_t>& raw() const {
    return counts_;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Enumerates instances under `options` and tallies them by canonical code.
/// Configs FastPathSupported accepts run the specialized k <= 3 counters
/// (core/fast_paths/), always serially; every other config runs the DFS,
/// split over `num_threads` event ranges (internal::CountPackedSharded in
/// core/parallel.h). Both branches accumulate a packed table that is
/// folded into the result once (MotifCounts::AddTable).
MotifCounts CountMotifs(const TemporalGraph& graph,
                        const EnumerationOptions& options,
                        int num_threads = 1);

/// Per-code tally restricted to instances whose *first* event index lies in
/// [first_begin, first_end), through the same dispatch as CountMotifs.
MotifCounts CountMotifsInRange(const TemporalGraph& graph,
                               const EnumerationOptions& options,
                               EventIndex first_begin, EventIndex first_end,
                               int num_threads = 1);

}  // namespace tmotif

#endif  // TMOTIF_CORE_COUNTER_H_
