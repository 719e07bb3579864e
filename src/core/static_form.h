#ifndef TMOTIF_CORE_STATIC_FORM_H_
#define TMOTIF_CORE_STATIC_FORM_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace tmotif {

/// Canonical form of a motif's *static projection*: the set of distinct
/// directed edges among its nodes, canonicalized over all node relabelings
/// (lexicographically smallest sorted edge list). Two temporal motifs have
/// the same static form iff their projections are isomorphic — the notion
/// of identity used by the snapshot-era models the paper surveys (Zhao et
/// al.'s communication motifs, classical static motif censuses).
///
/// The form is rendered like a motif code ("011202") but digit pairs are
/// *sorted distinct edges*, not chronological events; e.g. both temporal
/// triangles 011202 and 012021... -> the same static triangle form.
using StaticForm = std::string;

/// Canonical static form of a set of directed edges (pairs may repeat;
/// duplicates are collapsed). Node ids are arbitrary. At most 8 nodes.
StaticForm CanonicalStaticForm(
    const std::vector<std::pair<NodeId, NodeId>>& edges);

}  // namespace tmotif

#endif  // TMOTIF_CORE_STATIC_FORM_H_
