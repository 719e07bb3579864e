#ifndef TMOTIF_CORE_EVENT_PAIR_H_
#define TMOTIF_CORE_EVENT_PAIR_H_

#include "common/types.h"

namespace tmotif {

/// The paper's "event pair" lens (Section 5, "A new lens"): the six
/// structural relations between two consecutive events (u1,v1,t1) and
/// (u2,v2,t2) that share a node. `kDisjoint` covers consecutive events of a
/// >= 4-node motif that share no node (the paper's pair alphabet cannot
/// express those; it calls the resulting 4n4e descriptions "broad").
enum class EventPairType {
  kRepetition = 0,       // u1==u2, v1==v2
  kPingPong = 1,         // u1==v2, v1==u2
  kInBurst = 2,          // v1==v2, u1!=u2
  kOutBurst = 3,         // u1==u2, v1!=v2
  kConvey = 4,           // v1==u2, u1!=v2
  kWeaklyConnected = 5,  // u1==v2, v1!=u2
  kDisjoint = 6,         // no shared node
};

inline constexpr int kNumEventPairTypes = 6;  // Excluding kDisjoint.

/// Single-letter name used throughout the paper: R, P, I, O, C, W ('-' for
/// disjoint).
char EventPairLetter(EventPairType type);

/// Classifies the consecutive pair (first, second). Order matters: `first`
/// must precede `second` in time.
EventPairType ClassifyEventPair(NodeId u1, NodeId v1, NodeId u2, NodeId v2);

}  // namespace tmotif

#endif  // TMOTIF_CORE_EVENT_PAIR_H_
