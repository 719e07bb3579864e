#include "core/counter.h"

#include <algorithm>

#include "common/check.h"
#include "core/enumerate_core.h"
#include "core/fast_paths/fast_path.h"
#include "core/packed_table.h"
#include "core/parallel.h"
#include "obs/trace.h"

namespace tmotif {

void MotifCounts::Add(std::string_view code, std::uint64_t count) {
  const std::uint64_t packed = internal::PackCode(code);
  TMOTIF_CHECK_MSG(packed != 0,
                   "not a canonical motif code of at most 8 events");
  AddPacked(packed, count);
}

void MotifCounts::AddPacked(std::uint64_t packed, std::uint64_t count) {
  if (count == 0) return;
  counts_[packed] += count;
  total_ += count;
}

void MotifCounts::AddTable(const internal::PackedMotifTable& table) {
  table.PublishTelemetry();
  table.ForEach(
      [this](std::uint64_t packed, std::uint64_t n) { AddPacked(packed, n); });
}

void MotifCounts::SubtractTable(const internal::PackedMotifTable& table) {
  table.PublishTelemetry();
  table.ForEach([this](std::uint64_t packed, std::uint64_t n) {
    if (n == 0) return;
    const auto it = counts_.find(packed);
    TMOTIF_CHECK_MSG(it != counts_.end() && it->second >= n,
                     "motif count retraction exceeds recorded count");
    it->second -= n;
    total_ -= n;
    if (it->second == 0) counts_.erase(it);
  });
}

std::uint64_t MotifCounts::count(const MotifCode& code) const {
  const auto it = counts_.find(internal::PackCode(code));
  return it == counts_.end() ? 0 : it->second;
}

double MotifCounts::Proportion(const MotifCode& code) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(code)) / static_cast<double>(total_);
}

std::vector<std::pair<MotifCode, std::uint64_t>> MotifCounts::SortedByCount()
    const {
  std::vector<std::pair<MotifCode, std::uint64_t>> out = SortedByCode();
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

std::vector<std::pair<MotifCode, std::uint64_t>> MotifCounts::SortedByCode()
    const {
  std::vector<std::pair<MotifCode, std::uint64_t>> out;
  for (const auto& [packed, n] : counts_) {
    out.emplace_back(internal::PackedCodeToString(packed), n);
  }
  std::sort(out.begin(), out.end());  // Codes are unique.
  return out;
}

MotifCounts CountMotifs(const TemporalGraph& graph,
                        const EnumerationOptions& options, int num_threads) {
  return CountMotifsInRange(graph, options, 0, graph.num_events(),
                            num_threads);
}

MotifCounts CountMotifsInRange(const TemporalGraph& graph,
                               const EnumerationOptions& options,
                               EventIndex first_begin, EventIndex first_end,
                               int num_threads) {
  internal::ValidateEnumerationOptions(options);
  first_begin = std::max<EventIndex>(first_begin, 0);
  first_end = std::min<EventIndex>(first_end, graph.num_events());
  MotifCounts counts;
  if (first_begin >= first_end) return counts;
  static obs::Histogram* const fastpath_latency =
      obs::GlobalMetrics().GetHistogram("counting.fastpath_latency_ns");
  static obs::Histogram* const enumerate_latency =
      obs::GlobalMetrics().GetHistogram("counting.enumerate_latency_ns");
  internal::PackedMotifTable table;
  if (internal::fast_paths::FastPathSupported(options)) {
    internal::fast_paths::NoteDispatch(true);
    obs::PhaseTimer span(fastpath_latency, "counting.fastpath");
    internal::fast_paths::CountRangeInto(graph, options, first_begin,
                                         first_end, &table);
  } else {
    internal::fast_paths::NoteDispatch(false);
    obs::PhaseTimer span(enumerate_latency, "counting.enumerate");
    table = internal::CountPackedSharded(graph, options, first_begin,
                                         first_end, num_threads);
  }
  counts.AddTable(table);
  return counts;
}

}  // namespace tmotif
