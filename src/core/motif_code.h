#ifndef TMOTIF_CORE_MOTIF_CODE_H_
#define TMOTIF_CORE_MOTIF_CODE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "graph/event.h"

namespace tmotif {

/// The paper's 2n-digit temporal-motif notation (Section 5, "Motif
/// notation"): a motif with n events is written as n digit pairs, one pair
/// per event in chronological order, where digits are node ids relabeled by
/// order of first appearance. The first pair is always "01" (first event
/// goes from node 0 to node 1). Example: "011202" is the temporal triangle
/// 0->1, 1->2, 0->2.
using MotifCode = std::string;

/// Encodes a chronologically ordered sequence of (src, dst) node pairs as a
/// canonical motif code. Node ids can be arbitrary; they are relabeled by
/// first appearance. Requires a non-empty sequence of non-self-loop pairs.
MotifCode EncodeMotif(const std::vector<std::pair<NodeId, NodeId>>& events);

/// Encodes `size` events of `graph` given by `event_indices` (must be in
/// chronological order).
class TemporalGraph;
MotifCode EncodeInstance(const TemporalGraph& graph,
                         const EventIndex* event_indices, int size);

/// True when `code` is a well-formed canonical motif code: even length,
/// digits only, no self-loops, first pair "01", new nodes introduced in
/// order, and every event connected to an earlier one (single-component
/// growth).
bool IsValidCode(std::string_view code);

/// Number of events of a valid code.
int CodeNumEvents(const MotifCode& code);

/// Number of distinct nodes of a valid code.
int CodeNumNodes(const MotifCode& code);

/// Enumerates all canonical motif codes with exactly `num_events` events and
/// at most `max_nodes` nodes that grow as a single component. Sorted
/// lexicographically. The paper's spectra: (3, 3) -> 36 codes,
/// (4, 4) -> 696 codes.
std::vector<MotifCode> EnumerateCodes(int num_events, int max_nodes);

}  // namespace tmotif

#endif  // TMOTIF_CORE_MOTIF_CODE_H_
