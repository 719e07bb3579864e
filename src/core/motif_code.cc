#include "core/motif_code.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "graph/temporal_graph.h"

namespace tmotif {

MotifCode EncodeMotif(const std::vector<std::pair<NodeId, NodeId>>& events) {
  TMOTIF_CHECK(!events.empty());
  // Relabel nodes by order of first appearance. Motifs have at most
  // num_events + 1 nodes; codes use single digits, so cap at 10.
  std::vector<NodeId> seen;
  seen.reserve(2 * events.size());
  MotifCode code;
  code.reserve(2 * events.size());
  const auto digit_for = [&](NodeId node) -> char {
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (seen[i] == node) return static_cast<char>('0' + i);
    }
    TMOTIF_CHECK_MSG(seen.size() < 10, "motif has too many nodes to encode");
    seen.push_back(node);
    return static_cast<char>('0' + (seen.size() - 1));
  };
  for (const auto& [src, dst] : events) {
    TMOTIF_CHECK_MSG(src != dst, "self-loop event in motif");
    code.push_back(digit_for(src));
    code.push_back(digit_for(dst));
  }
  return code;
}

MotifCode EncodeInstance(const TemporalGraph& graph,
                         const EventIndex* event_indices, int size) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    const Event& e = graph.event(event_indices[i]);
    pairs.emplace_back(e.src, e.dst);
  }
  return EncodeMotif(pairs);
}

bool IsValidCode(std::string_view code) {
  if (code.empty() || code.size() % 2 != 0) return false;
  for (char c : code) {
    if (c < '0' || c > '9') return false;
  }
  if (code[0] != '0' || code[1] != '1') return false;
  int num_seen = 2;  // The first pair "01" introduces nodes 0 and 1.
  for (std::size_t i = 2; i + 1 < code.size(); i += 2) {
    const int a = code[i] - '0';
    const int b = code[i + 1] - '0';
    if (a == b) return false;
    // New nodes must be introduced in order (no skipped ids) and an event
    // may introduce at most one new node (two new endpoints would be
    // disconnected from the prefix).
    if (a > num_seen || b > num_seen) return false;
    if (a == num_seen && b == num_seen) return false;  // a == b anyway.
    if (a == num_seen || b == num_seen) ++num_seen;
    // Both endpoints existing: automatically connected to the prefix.
  }
  return true;
}

int CodeNumEvents(const MotifCode& code) {
  TMOTIF_CHECK(IsValidCode(code));
  return static_cast<int>(code.size() / 2);
}

int CodeNumNodes(const MotifCode& code) {
  TMOTIF_CHECK(IsValidCode(code));
  int max_digit = 0;
  for (char c : code) max_digit = std::max(max_digit, c - '0');
  return max_digit + 1;
}

namespace {

void EnumerateRec(int num_events, int max_nodes, int num_seen,
                  MotifCode* prefix, std::vector<MotifCode>* out) {
  if (static_cast<int>(prefix->size()) == 2 * num_events) {
    out->push_back(*prefix);
    return;
  }
  // Candidate next events: (a, b), a != b, with at most one endpoint being
  // the next fresh node id `num_seen` (single-component growth + canonical
  // first-appearance labeling).
  for (int a = 0; a <= num_seen; ++a) {
    for (int b = 0; b <= num_seen; ++b) {
      if (a == b) continue;
      const bool a_new = (a == num_seen);
      const bool b_new = (b == num_seen);
      if (a_new && b_new) continue;
      const int next_seen = num_seen + ((a_new || b_new) ? 1 : 0);
      if (next_seen > max_nodes) continue;
      prefix->push_back(static_cast<char>('0' + a));
      prefix->push_back(static_cast<char>('0' + b));
      EnumerateRec(num_events, max_nodes, next_seen, prefix, out);
      prefix->resize(prefix->size() - 2);
    }
  }
}

}  // namespace

std::vector<MotifCode> EnumerateCodes(int num_events, int max_nodes) {
  TMOTIF_CHECK(num_events >= 1);
  TMOTIF_CHECK(max_nodes >= 2 && max_nodes <= 10);
  std::vector<MotifCode> out;
  MotifCode prefix = "01";
  if (num_events == 1) {
    out.push_back(prefix);
    return out;
  }
  EnumerateRec(num_events, max_nodes, /*num_seen=*/2, &prefix, &out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace tmotif
