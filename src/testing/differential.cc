#include "testing/differential.h"

#include <algorithm>
#include <cstdio>

#include "core/counter.h"
#include "core/motif_code.h"
#include "testing/reference_oracle.h"

namespace tmotif {
namespace testing {

namespace {

constexpr std::size_t kMaxReportedMismatches = 8;

}  // namespace

std::string DifferentialReport::Summary() const {
  char head[64];
  std::snprintf(head, sizeof(head), "fast=%llu oracle=%llu",
                static_cast<unsigned long long>(fast_count),
                static_cast<unsigned long long>(oracle_count));
  std::string out = head;
  const std::size_t shown =
      std::min(mismatches.size(), kMaxReportedMismatches);
  for (std::size_t i = 0; i < shown; ++i) {
    out += "\n  ";
    out += mismatches[i];
  }
  if (mismatches.size() > shown) {
    out += "\n  ... (" +
           std::to_string(mismatches.size() - shown) + " more)";
  }
  return out;
}

std::string DescribeEvent(const TemporalGraph& graph, EventIndex index) {
  const Event& e = graph.event(index);
  char buf[96];
  if (e.duration != 0) {
    std::snprintf(buf, sizeof(buf), "#%d: %d->%d @%lld (+%lld)",
                  static_cast<int>(index), e.src, e.dst,
                  static_cast<long long>(e.time),
                  static_cast<long long>(e.duration));
  } else {
    std::snprintf(buf, sizeof(buf), "#%d: %d->%d @%lld",
                  static_cast<int>(index), e.src, e.dst,
                  static_cast<long long>(e.time));
  }
  return buf;
}

std::string DescribeInstance(const TemporalGraph& graph,
                             const std::vector<EventIndex>& event_indices) {
  std::string out = "[";
  for (std::size_t i = 0; i < event_indices.size(); ++i) {
    if (i > 0) out += ", ";
    out += DescribeEvent(graph, event_indices[i]);
  }
  out += "]";
  return out;
}

DifferentialReport DiffAgainstOracle(const TemporalGraph& graph,
                                     const EnumerationOptions& options) {
  DifferentialReport report;

  const std::vector<ReferenceInstance> oracle =
      ReferenceEnumerate(graph, options);
  report.oracle_count = oracle.size();

  std::vector<ReferenceInstance> fast;
  const std::uint64_t visited = EnumerateInstances(
      graph, options, [&](const MotifInstance& instance) {
        ReferenceInstance copy;
        copy.event_indices.assign(
            instance.event_indices,
            instance.event_indices + instance.num_events);
        copy.code = MotifCode(instance.code);
        fast.push_back(std::move(copy));
      });
  report.fast_count = fast.size();
  if (visited != fast.size()) {
    report.mismatches.push_back(
        "EnumerateInstances return value " + std::to_string(visited) +
        " != number of visitor calls " + std::to_string(fast.size()));
  }

  // The DFS's emission order is not part of the contract; compare as sets.
  std::sort(fast.begin(), fast.end());
  for (std::size_t i = 1; i < fast.size(); ++i) {
    if (fast[i].event_indices == fast[i - 1].event_indices) {
      report.mismatches.push_back(
          "duplicate instance " +
          DescribeInstance(graph, fast[i].event_indices));
    }
  }

  std::size_t fi = 0;
  std::size_t oi = 0;
  while (fi < fast.size() || oi < oracle.size()) {
    if (oi == oracle.size() ||
        (fi < fast.size() &&
         fast[fi].event_indices < oracle[oi].event_indices)) {
      report.mismatches.push_back(
          "extra instance (fast only): " +
          DescribeInstance(graph, fast[fi].event_indices));
      ++fi;
    } else if (fi == fast.size() ||
               oracle[oi].event_indices < fast[fi].event_indices) {
      report.mismatches.push_back(
          "missing instance (oracle only): " +
          DescribeInstance(graph, oracle[oi].event_indices));
      ++oi;
    } else {
      if (fast[fi].code != oracle[oi].code) {
        report.mismatches.push_back(
            "code mismatch on " +
            DescribeInstance(graph, fast[fi].event_indices) + ": fast=" +
            fast[fi].code + " oracle=" + oracle[oi].code);
      }
      const MotifCode encoded = EncodeInstance(
          graph, fast[fi].event_indices.data(),
          static_cast<int>(fast[fi].event_indices.size()));
      if (encoded != oracle[oi].code) {
        report.mismatches.push_back(
            "EncodeInstance disagrees on " +
            DescribeInstance(graph, fast[fi].event_indices) +
            ": encoded=" + encoded + " oracle=" + oracle[oi].code);
      }
      ++fi;
      ++oi;
    }
  }

  const std::uint64_t counted = CountInstances(graph, options);
  if (counted != report.oracle_count) {
    report.mismatches.push_back(
        "CountInstances=" + std::to_string(counted) +
        " != oracle count " + std::to_string(report.oracle_count));
  }

  const MotifCounts fast_table = CountMotifs(graph, options);
  const MotifCounts oracle_table = ReferenceCountMotifs(graph, options);
  if (fast_table.total() != oracle_table.total() ||
      fast_table.num_codes() != oracle_table.num_codes()) {
    report.mismatches.push_back(
        "CountMotifs totals differ: fast total=" +
        std::to_string(fast_table.total()) + " codes=" +
        std::to_string(fast_table.num_codes()) + ", oracle total=" +
        std::to_string(oracle_table.total()) + " codes=" +
        std::to_string(oracle_table.num_codes()));
  }
  for (const auto& [code, count] : oracle_table.SortedByCode()) {
    if (fast_table.count(code) != count) {
      report.mismatches.push_back(
          "CountMotifs[" + code + "]=" +
          std::to_string(fast_table.count(code)) + " != oracle " +
          std::to_string(count));
    }
  }
  return report;
}

}  // namespace testing
}  // namespace tmotif
