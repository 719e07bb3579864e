#include "core/event_pair.h"

#include "common/check.h"

namespace tmotif {

char EventPairLetter(EventPairType type) {
  switch (type) {
    case EventPairType::kRepetition: return 'R';
    case EventPairType::kPingPong: return 'P';
    case EventPairType::kInBurst: return 'I';
    case EventPairType::kOutBurst: return 'O';
    case EventPairType::kConvey: return 'C';
    case EventPairType::kWeaklyConnected: return 'W';
    case EventPairType::kDisjoint: return '-';
  }
  return '?';
}

EventPairType ClassifyEventPair(NodeId u1, NodeId v1, NodeId u2, NodeId v2) {
  TMOTIF_CHECK(u1 != v1 && u2 != v2);
  if (u1 == u2 && v1 == v2) return EventPairType::kRepetition;
  if (u1 == v2 && v1 == u2) return EventPairType::kPingPong;
  if (v1 == v2) return EventPairType::kInBurst;   // u1 != u2 follows.
  if (u1 == u2) return EventPairType::kOutBurst;  // v1 != v2 follows.
  if (v1 == u2) return EventPairType::kConvey;    // u1 != v2 follows.
  if (u1 == v2) return EventPairType::kWeaklyConnected;
  return EventPairType::kDisjoint;
}

}  // namespace tmotif
