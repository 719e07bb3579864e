#ifndef TMOTIF_CORE_FAST_PATHS_FAST_PATH_H_
#define TMOTIF_CORE_FAST_PATHS_FAST_PATH_H_

// Specialized exact counters for k <= 3 temporal motifs, after Paranjape et
// al. ("Motifs in Temporal Networks"): instead of enumerating instances one
// DFS leaf at a time, events are grouped per node pair / per node and
// counted with sliding-window sequence DP (2-node motifs), per-center
// window counts (wedges), doubleton + rank queries (stars) and static
// neighbor intersection + rank queries (triangles). No instance is ever
// materialized — the counters produce (packed code, count) totals directly,
// which is why they beat the generic DfsEngine by integer multiples on the
// predicate-free presets (Song / vanilla counting) where the DFS has
// nothing to prune.
//
// Dispatch contract: callers must consult FastPathSupported(options) first;
// the counters handle exactly the combinations it accepts and
// TMOTIF_CHECK otherwise. The general DfsEngine remains the fallback for
// everything else (dC gaps, order predicates, temporal-window inducedness,
// k >= 4, instance caps).
//
// Range counting uses window differences: the set of instances with every
// event inside [lo, N) shrinks monotonically as lo grows, so
//   #instances with first event in [b, e)
//     = Count(events [b, N)) - Count(events [e, N))
// holds per code with non-negative differences. The same identity powers
// the streaming delta path (stream/streaming_counter.cc): retractions are
// prefix-window differences and arrivals are suffix differences with an
// exclude-new event filter, both evaluated by the same counters.
//
// Like DfsEngine, everything is templated on the graph so the batch
// counters (TemporalGraph) and the streaming window (WindowGraph) share one
// implementation; only the tiny read-only accessor subset is required:
// num_events / event_time / event_src / event_dst for the scan, plus
// FindEdge + CountEdgeEventsInTimeRange for the inducedness predicates
// (which are full-graph properties, never filtered ones).

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "core/enumerate_core.h"
#include "core/packed_table.h"
#include "graph/event.h"

namespace tmotif {
namespace internal {
namespace fast_paths {

/// True when the specialized counters handle `options` exactly: k <= 3, no
/// instance cap, and for k >= 2 no order predicates (consecutive / CDG), no
/// dC gap, and inducedness limited to kNone (2-node, or any shape at
/// k <= 3 with max_nodes == 3) or kStatic with max_nodes == 2. k == 1 is
/// always supported (every predicate is trivial or a per-event lookup).
bool FastPathSupported(const EnumerationOptions& options);

/// Telemetry: records which engine a counting call dispatched to, bumping
/// counting.dispatch_fastpath or counting.dispatch_generic (obs/metrics.h).
/// One call per dispatch decision — the batch entry points and the
/// streaming delta phases — so benches and the exporters can attribute
/// work to the engine that actually served it.
void NoteDispatch(bool fastpath);

/// Signed per-code accumulator for window differences. The counters below
/// produce at most 36 distinct codes (k == 3: 4 two-node + 32 three-node;
/// k == 2: 6; k == 1: 1), so a flat array with a linear lookup does the
/// job of a hash map without allocating; Clear() makes it reusable.
class CodeDeltas {
 public:
  static constexpr std::size_t kCapacity = 36;
  using Entry = std::pair<std::uint64_t, std::int64_t>;

  void Add(std::uint64_t code, std::int64_t delta) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (entries_[i].first == code) {
        entries_[i].second += delta;
        return;
      }
    }
    TMOTIF_CHECK(size_ < kCapacity);
    entries_[size_++] = Entry(code, delta);
  }
  void Clear() { size_ = 0; }
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + size_; }

 private:
  std::array<Entry, kCapacity> entries_{};
  std::size_t size_ = 0;
};

namespace detail {

inline std::size_t LowerIdx(const Timestamp* times, std::size_t n,
                            Timestamp t) {
  return static_cast<std::size_t>(std::lower_bound(times, times + n, t) -
                                  times);
}

inline std::size_t UpperIdx(const Timestamp* times, std::size_t n,
                            Timestamp t) {
  return static_cast<std::size_t>(std::upper_bound(times, times + n, t) -
                                  times);
}

inline Timestamp SatAdd(Timestamp t, Timestamp d) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  return t > kMax - d ? kMax : t + d;
}

inline Timestamp SatSub(Timestamp t, Timestamp d) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  return t < kMin + d ? kMin : t - d;
}

/// Packs an abstract event sequence (node symbols in time order, symbols
/// arbitrary small ints) into the canonical code: digits are assigned by
/// first appearance, exactly like core/motif_code.h.
inline std::uint64_t PackAbstract(const int (&srcs)[3], const int (&dsts)[3],
                                  int k) {
  int digit[4] = {-1, -1, -1, -1};
  int next = 0;
  std::uint64_t packed = 0;
  for (int i = 0; i < k; ++i) {
    int& ds = digit[srcs[i]];
    if (ds < 0) ds = next++;
    int& dd = digit[dsts[i]];
    if (dd < 0) dd = next++;
    packed |= PackPair(ds, dd, i);
  }
  return packed;
}

/// 3-event sequences over the symbols {0, 1, 2}, before canonicalization:
/// each event is one of the 6 ordered pairs of distinct symbols, so 6^3
/// slots index every star and triangle sequence in a flat array.
constexpr std::size_t kRawSequences = 216;

inline std::size_t RawEvent(int src, int dst) {
  return static_cast<std::size_t>(2 * src + (dst > src ? dst - 1 : dst));
}

inline std::size_t RawSequence(const int (&srcs)[3], const int (&dsts)[3]) {
  return 36 * RawEvent(srcs[0], dsts[0]) + 6 * RawEvent(srcs[1], dsts[1]) +
         RawEvent(srcs[2], dsts[2]);
}

/// Canonical code of a RawSequence slot.
inline std::uint64_t RawSequenceCode(std::size_t raw) {
  int srcs[3];
  int dsts[3];
  for (int i = 2; i >= 0; --i) {
    const int event = static_cast<int>(raw % 6);
    raw /= 6;
    srcs[i] = event / 2;
    dsts[i] = event % 2 >= srcs[i] ? event % 2 + 1 : event % 2;
  }
  return PackAbstract(srcs, dsts, 3);
}

/// 2-node codes by relative direction: all directions are measured against
/// the first event's, so only the equality pattern matters.
inline std::uint64_t PairCode2(int d1, int de) {
  return 0x01ULL | ((de == d1 ? 0x01ULL : 0x10ULL) << 8);
}

inline std::uint64_t PairCode3(int d1, int d2, int de) {
  return 0x01ULL | ((d2 == d1 ? 0x01ULL : 0x10ULL) << 8) |
         ((de == d1 ? 0x01ULL : 0x10ULL) << 16);
}

/// Wedge (two events, three nodes) code. Directions are relative to the
/// shared center node: d == 1 means the center is that event's src. The
/// center holds digit 0 or 1 depending on the first event's orientation;
/// the second event's far endpoint is always digit 2.
inline std::uint64_t WedgeCode(int d1, int d2) {
  const std::uint64_t cd = d1 ? 0 : 1;
  const std::uint64_t byte1 = d2 ? ((cd << 4) | 2) : ((2 << 4) | cd);
  return 0x01ULL | (byte1 << 8);
}

/// Events in timeline index range [i0, i1) whose dir equals `d`, given the
/// timeline's dir-1 prefix sums.
inline std::uint64_t RangeDirCount(const std::uint32_t* prefix, std::size_t i0,
                                   std::size_t i1, int d) {
  if (i1 <= i0) return 0;
  const std::uint64_t ones = prefix[i1] - prefix[i0];
  return d == 1 ? ones : (i1 - i0) - ones;
}

/// prefix[i] = number of dir-1 entries among dirs[0, i).
inline void BuildDirPrefix(const std::vector<std::uint8_t>& dirs,
                           std::vector<std::uint32_t>* prefix) {
  prefix->resize(dirs.size() + 1);
  (*prefix)[0] = 0;
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    (*prefix)[i + 1] = (*prefix)[i] + dirs[i];
  }
}

/// Open-addressed map from 64-bit keys to dense indices 0, 1, 2, ... in
/// first-insert order. Reset() is O(1): every slot carries the generation
/// that wrote it, and bumping the generation empties the table. Capacity
/// doubles at load 0.5 and never shrinks, so a reused index stops
/// allocating once it has seen its largest key set.
class FlatIndex {
 public:
  void Reset() {
    size_ = 0;
    if (++generation_ == 0) {  // Wrapped: old stamps would alias.
      for (Slot& slot : slots_) slot.stamp = 0;
      generation_ = 1;
    }
  }

  std::uint32_t size() const { return size_; }

  /// Index of `key`; a new key gets index size() and sets `*inserted`.
  std::uint32_t Insert(std::uint64_t key, bool* inserted) {
    if (2 * (static_cast<std::size_t>(size_) + 1) > slots_.size()) Grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.stamp != generation_) {
        slot = Slot{key, size_, generation_};
        *inserted = true;
        return size_++;
      }
      if (slot.key == key) {
        *inserted = false;
        return slot.value;
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
    /// Generation that wrote the slot (0 = never written).
    std::uint32_t stamp = 0;
  };

  static std::size_t Hash(std::uint64_t x) {
    // SplitMix64 finalizer.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()), Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.stamp != generation_) continue;
      std::size_t i = Hash(slot.key) & mask;
      while (slots_[i].stamp == generation_) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t generation_ = 1;
  std::uint32_t size_ = 0;
};

}  // namespace detail

/// Counter over the filtered events of an index window, reusable across
/// calls: every Count resets the scratch it reads (pair and node indexes by
/// generation stamp, timelines by overwriting), and the buffers keep their
/// capacity, so a counter that is called again on windows of similar size
/// allocates nothing. The counter holds references to `graph` and `opt`,
/// which must outlive it; calls reflect the graph's state at call time.
///
/// Ownership: the caller owns the counter and with it the scratch. Batch
/// counting builds one per call (a counter is not thread-safe), and each
/// streaming counter keeps one for its whole life
/// (stream/streaming_counter.cc). Never share one through a static or
/// thread_local.
template <typename Graph>
class WindowCounter {
 public:
  WindowCounter(const Graph& graph, const EnumerationOptions& opt)
      : graph_(graph),
        opt_(opt),
        use_dw_(opt.timing.delta_w.has_value()),
        dw_(use_dw_ ? *opt.timing.delta_w : 0),
        static_induced_(opt.inducedness == Inducedness::kStatic) {
    TMOTIF_CHECK(FastPathSupported(opt));
  }

  /// Counts every instance whose events all lie in [lo, hi) and pass
  /// `include(index)`, invoking emit(packed_code, count) with per-code
  /// totals (a code may be emitted more than once; counts are positive).
  template <typename Include, typename Emit>
  void Count(EventIndex lo, EventIndex hi, const Include& include,
             const Emit& emit) {
    using detail::PairCode2;
    using detail::PairCode3;
    using detail::WedgeCode;
    const int k = opt_.num_events;
    lo = std::max<EventIndex>(lo, 0);
    hi = std::min<EventIndex>(hi, static_cast<EventIndex>(graph_.num_events()));
    if (lo >= hi) return;
    if (k == 1) {
      CountSingles(lo, hi, include, emit);
      return;
    }
    const bool shapes3 =
        opt_.inducedness == Inducedness::kNone && opt_.max_nodes >= 3;
    BuildTimelines(lo, hi, include, /*need_nodes=*/shapes3,
                   /*need_node_pairs=*/shapes3 && k == 2);

    std::uint64_t g2[2][2] = {};
    std::uint64_t g3[2][2][2] = {};
    for (const Pair& pair : pairs_) PairDp(pair, g2, g3);
    if (k == 2) {
      for (int d1 = 0; d1 < 2; ++d1) {
        for (int de = 0; de < 2; ++de) {
          if (g2[d1][de]) emit(PairCode2(d1, de), g2[d1][de]);
        }
      }
    } else {
      for (int d1 = 0; d1 < 2; ++d1) {
        for (int d2 = 0; d2 < 2; ++d2) {
          for (int de = 0; de < 2; ++de) {
            if (g3[d1][d2][de]) emit(PairCode3(d1, d2, de), g3[d1][d2][de]);
          }
        }
      }
    }

    if (!shapes3) return;
    if (k == 2) {
      std::uint64_t w[2][2] = {};
      CountWedges(w);
      for (int d1 = 0; d1 < 2; ++d1) {
        for (int d2 = 0; d2 < 2; ++d2) {
          if (w[d1][d2]) emit(WedgeCode(d1, d2), w[d1][d2]);
        }
      }
      return;
    }
    // k == 3, max_nodes == 3: stars (two distinct pairs) and triangles
    // (three distinct pairs) complete the partition of instances by their
    // distinct-pair count; rank queries need the prefix sums. Both count
    // into one flat array of raw symbol sequences, merged per canonical
    // code at the end.
    detail::BuildDirPrefix(pair_dirs_, &pair_prefix_);
    detail::BuildDirPrefix(node_dirs_, &node_prefix_);
    std::array<std::uint64_t, detail::kRawSequences> raw{};
    CountStars(raw.data());
    CountTriangles(raw.data());
    CodeDeltas merged;
    for (std::size_t r = 0; r < raw.size(); ++r) {
      if (raw[r]) {
        merged.Add(detail::RawSequenceCode(r),
                   static_cast<std::int64_t>(raw[r]));
      }
    }
    for (const auto& [code, n] : merged) {
      emit(code, static_cast<std::uint64_t>(n));
    }
  }

  /// Adds `sign` times the per-code counts of Count(lo, hi, include) into
  /// `deltas` — the building block of the range differences below and of
  /// the streaming delta path.
  template <typename Include>
  void Accumulate(EventIndex lo, EventIndex hi, const Include& include,
                  std::int64_t sign, CodeDeltas* deltas) {
    Count(lo, hi, include, [&](std::uint64_t code, std::uint64_t count) {
      deltas->Add(code, sign * static_cast<std::int64_t>(count));
    });
  }

 private:
  using EdgeHandle = typename Graph::EdgeHandle;

  /// One undirected node pair of the filtered window (dir 0 = lo -> hi,
  /// lo < hi). Its timeline is pair_times_ / pair_dirs_ [begin, end),
  /// ascending in time; lo_node / hi_node are the endpoints' node slots
  /// (set only when node timelines are built).
  struct Pair {
    NodeId lo;
    NodeId hi;
    std::uint32_t lo_node;
    std::uint32_t hi_node;
    std::uint32_t begin;
    std::uint32_t end;
  };

  /// One node's incident filtered events: node_times_ / node_dirs_ /
  /// node_pairs_ [begin, end) (dir 1 = the node is the src), plus its
  /// row [adj_begin, adj_end) of the triangle adjacency.
  struct Node {
    std::uint32_t begin;
    std::uint32_t end;
    std::uint32_t adj_begin;
    std::uint32_t adj_end;
  };

  /// A timestamp tie group of one pair timeline (CountStars).
  struct TieGroup {
    std::size_t begin;
    std::size_t end;
    Timestamp t;
    std::uint64_t ndir[2];
    /// Pair-timeline bounds: first index with time >= t - dw, first index
    /// with time > t + dw.
    std::size_t lo_tm;
    std::size_t hi_tp;
  };

  /// Node-timeline bounds of one (group, center): first index with time
  /// >= t - dw / >= t / > t / > t + dw.
  struct CenterBounds {
    std::size_t lo_m;
    std::size_t lo_t;
    std::size_t up_t;
    std::size_t up_p;
  };

  static constexpr std::uint32_t kExcluded =
      std::numeric_limits<std::uint32_t>::max();

  template <typename Include, typename Emit>
  void CountSingles(EventIndex lo, EventIndex hi, const Include& include,
                    const Emit& emit) {
    std::uint64_t n = 0;
    for (EventIndex i = lo; i < hi; ++i) {
      if (!include(i)) continue;
      const NodeId s = graph_.event_src(i);
      const NodeId d = graph_.event_dst(i);
      switch (opt_.inducedness) {
        case Inducedness::kNone:
          ++n;
          break;
        case Inducedness::kStatic:
          // Scope = {s, d}; the instance covers (s, d) only, so it passes
          // iff the full graph has no reverse static edge.
          if (graph_.FindEdge(d, s) == Graph::kNoEdgeHandle) ++n;
          break;
        case Inducedness::kTemporalWindow: {
          // The events among {s, d} at exactly this timestamp must be just
          // this one (the engine scans both directed orientations).
          const Timestamp t = graph_.event_time(i);
          int total = 0;
          const EdgeHandle fwd = graph_.FindEdge(s, d);
          if (fwd != Graph::kNoEdgeHandle) {
            total += graph_.CountEdgeEventsInTimeRange(fwd, t, t);
          }
          const EdgeHandle rev = graph_.FindEdge(d, s);
          if (rev != Graph::kNoEdgeHandle) {
            total += graph_.CountEdgeEventsInTimeRange(rev, t, t);
          }
          if (total == 1) ++n;
          break;
        }
      }
    }
    if (n > 0) emit(0x01ULL, n);
  }

  /// Groups the filtered events of [lo, hi) into pair (and, for the
  /// 3-node shapes, node) timelines laid out as CSR arrays. Pass 1 assigns
  /// pair and node slots and counts timeline lengths; pass 2 scatters the
  /// events in index order, so every timeline is ascending in time.
  template <typename Include>
  void BuildTimelines(EventIndex lo, EventIndex hi, const Include& include,
                      bool need_nodes, bool need_node_pairs) {
    pair_index_.Reset();
    node_index_.Reset();
    pairs_.clear();
    nodes_.clear();
    event_pair_.resize(static_cast<std::size_t>(hi - lo));
    for (EventIndex i = lo; i < hi; ++i) {
      std::uint32_t& slot = event_pair_[static_cast<std::size_t>(i - lo)];
      if (!include(i)) {
        slot = kExcluded;
        continue;
      }
      const NodeId s = graph_.event_src(i);
      const NodeId d = graph_.event_dst(i);
      const NodeId a = std::min(s, d);
      const NodeId b = std::max(s, d);
      bool inserted = false;
      slot = pair_index_.Insert(NodePairKey(a, b), &inserted);
      if (inserted) {
        Pair pair{a, b, 0, 0, 0, 0};
        if (need_nodes) {
          pair.lo_node = NodeSlot(a);
          pair.hi_node = NodeSlot(b);
        }
        pairs_.push_back(pair);
      }
      Pair& pair = pairs_[slot];
      ++pair.end;  // A length until the offsets below.
      if (need_nodes) {
        ++nodes_[pair.lo_node].end;
        ++nodes_[pair.hi_node].end;
      }
    }
    // Lengths become offsets; `end` restarts at `begin` as the fill cursor.
    std::uint32_t total = 0;
    for (Pair& pair : pairs_) {
      const std::uint32_t length = pair.end;
      pair.begin = total;
      pair.end = total;
      total += length;
    }
    pair_times_.resize(total);
    pair_dirs_.resize(total);
    if (need_nodes) {
      total = 0;
      for (Node& node : nodes_) {
        const std::uint32_t length = node.end;
        node.begin = total;
        node.end = total;
        total += length;
      }
      node_times_.resize(total);
      node_dirs_.resize(total);
      if (need_node_pairs) node_pairs_.resize(total);
    }
    for (EventIndex i = lo; i < hi; ++i) {
      const std::uint32_t p = event_pair_[static_cast<std::size_t>(i - lo)];
      if (p == kExcluded) continue;
      Pair& pair = pairs_[p];
      const Timestamp t = graph_.event_time(i);
      const std::uint8_t dir = graph_.event_src(i) == pair.lo ? 0 : 1;
      pair_times_[pair.end] = t;
      pair_dirs_[pair.end] = dir;
      ++pair.end;
      if (need_nodes) {
        const std::uint32_t src = dir == 0 ? pair.lo_node : pair.hi_node;
        const std::uint32_t dst = dir == 0 ? pair.hi_node : pair.lo_node;
        AppendNodeEvent(src, t, 1, p, need_node_pairs);
        AppendNodeEvent(dst, t, 0, p, need_node_pairs);
      }
    }
  }

  std::uint32_t NodeSlot(NodeId node) {
    bool inserted = false;
    const std::uint32_t slot =
        node_index_.Insert(static_cast<std::uint32_t>(node), &inserted);
    if (inserted) nodes_.push_back(Node{0, 0, 0, 0});
    return slot;
  }

  void AppendNodeEvent(std::uint32_t node_slot, Timestamp t,
                       std::uint8_t is_src, std::uint32_t pair_slot,
                       bool need_node_pairs) {
    Node& node = nodes_[node_slot];
    node_times_[node.end] = t;
    node_dirs_[node.end] = is_src;
    if (need_node_pairs) node_pairs_[node.end] = pair_slot;
    ++node.end;
  }

  /// Sliding-window sequence DP over one pair's timeline. Timestamp tie
  /// groups move atomically (instance events need strictly increasing
  /// times): completions for a group are taken against the pre-group
  /// window state, evictions pop whole front groups. c1[d] counts window
  /// events by direction; c2[d1][d2] counts ordered in-window event pairs
  /// (only k == 3 maintains it). The dW window applies to the would-be
  /// *first* event: older ones are evicted before completing.
  void PairDp(const Pair& pair, std::uint64_t g2[2][2],
              std::uint64_t g3[2][2][2]) {
    const Timestamp* T = pair_times_.data() + pair.begin;
    const std::uint8_t* D = pair_dirs_.data() + pair.begin;
    const std::size_t n = pair.end - pair.begin;
    const int k = opt_.num_events;
    std::uint64_t p2[2][2] = {};
    std::uint64_t p3[2][2][2] = {};
    std::uint64_t c1[2] = {};
    std::uint64_t c2[2][2] = {};
    std::size_t wbegin = 0;
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && T[j] == T[i]) ++j;
      const Timestamp t = T[i];
      if (use_dw_) {
        while (wbegin < i && t - T[wbegin] > dw_) {
          std::size_t ge = wbegin + 1;
          while (ge < i && T[ge] == T[wbegin]) ++ge;
          std::uint64_t evicted[2] = {};
          for (std::size_t x = wbegin; x < ge; ++x) ++evicted[D[x]];
          c1[0] -= evicted[0];
          c1[1] -= evicted[1];
          if (k == 3) {
            // Pairs starting in the evicted group end strictly later (ties
            // were popped together), i.e. at events still in c1.
            for (int d1 = 0; d1 < 2; ++d1) {
              for (int d2 = 0; d2 < 2; ++d2) {
                c2[d1][d2] -= evicted[d1] * c1[d2];
              }
            }
          }
          wbegin = ge;
        }
      }
      std::uint64_t grp[2] = {};
      for (std::size_t x = i; x < j; ++x) ++grp[D[x]];
      if (k == 2) {
        for (int de = 0; de < 2; ++de) {
          for (int d1 = 0; d1 < 2; ++d1) {
            p2[d1][de] += grp[de] * c1[d1];
          }
        }
      } else {
        for (int de = 0; de < 2; ++de) {
          for (int d1 = 0; d1 < 2; ++d1) {
            for (int d2 = 0; d2 < 2; ++d2) {
              p3[d1][d2][de] += grp[de] * c2[d1][d2];
            }
          }
        }
        for (int d1 = 0; d1 < 2; ++d1) {
          for (int de = 0; de < 2; ++de) {
            c2[d1][de] += c1[d1] * grp[de];
          }
        }
      }
      c1[0] += grp[0];
      c1[1] += grp[1];
      i = j;
    }
    // Static inducedness (max_nodes == 2): the scope is the pair itself and
    // the instance must cover every full-graph static orientation, so the
    // direction pattern's distinct-pair count must equal the static edge
    // count — a per-pair constant filter over the four/eight patterns.
    int scope_edges = 2;
    if (static_induced_) {
      scope_edges =
          (graph_.FindEdge(pair.lo, pair.hi) != Graph::kNoEdgeHandle ? 1 : 0) +
          (graph_.FindEdge(pair.hi, pair.lo) != Graph::kNoEdgeHandle ? 1 : 0);
    }
    if (opt_.num_events == 2) {
      for (int d1 = 0; d1 < 2; ++d1) {
        for (int de = 0; de < 2; ++de) {
          if (static_induced_ && (de == d1 ? 1 : 2) != scope_edges) continue;
          g2[d1][de] += p2[d1][de];
        }
      }
    } else {
      for (int d1 = 0; d1 < 2; ++d1) {
        for (int d2 = 0; d2 < 2; ++d2) {
          for (int de = 0; de < 2; ++de) {
            const int distinct = (d1 == d2 && d2 == de) ? 1 : 2;
            if (static_induced_ && distinct != scope_edges) continue;
            g3[d1][d2][de] += p3[d1][d2][de];
          }
        }
      }
    }
  }

  /// Wedges: ordered cross-pair event pairs sharing one node, counted per
  /// center with the same tie-group-atomic sliding window; same-pair
  /// predecessors (2-node instances) are excluded by per-pair window
  /// counts. Each wedge has exactly one shared node, so no double count.
  void CountWedges(std::uint64_t w[2][2]) {
    // In-window events per (pair slot, dir) of the current center; each
    // center zeroes the entries it touched before the next one starts.
    wedge_pair_counts_.assign(pairs_.size(), {0, 0});
    for (const Node& node : nodes_) {
      const Timestamp* T = node_times_.data() + node.begin;
      const std::uint8_t* D = node_dirs_.data() + node.begin;
      const std::uint32_t* P = node_pairs_.data() + node.begin;
      const std::size_t n = node.end - node.begin;
      std::uint64_t ctot[2] = {};
      std::size_t wbegin = 0;
      std::size_t i = 0;
      while (i < n) {
        std::size_t j = i + 1;
        while (j < n && T[j] == T[i]) ++j;
        const Timestamp t = T[i];
        if (use_dw_) {
          while (wbegin < i && t - T[wbegin] > dw_) {
            --ctot[D[wbegin]];
            --wedge_pair_counts_[P[wbegin]][D[wbegin]];
            ++wbegin;
          }
        }
        for (std::size_t x = i; x < j; ++x) {
          const std::array<std::uint64_t, 2>& same = wedge_pair_counts_[P[x]];
          for (int d1 = 0; d1 < 2; ++d1) {
            const std::uint64_t cnt = ctot[d1] - same[d1];
            if (cnt) w[d1][D[x]] += cnt;
          }
        }
        for (std::size_t x = i; x < j; ++x) {
          ++ctot[D[x]];
          ++wedge_pair_counts_[P[x]][D[x]];
        }
        i = j;
      }
      for (std::size_t x = 0; x < n; ++x) wedge_pair_counts_[P[x]] = {0, 0};
    }
  }

  /// Stars (k == 3, three nodes, one pair used twice): enumerate the
  /// doubleton — ordered same-pair event pairs (f1, f2) inside the window —
  /// then rank-count the singleton event g among each endpoint's incident
  /// events (minus same-pair ones) in the three admissible time ranges
  /// before / between / after the doubleton.
  ///
  /// Everything is evaluated per timestamp TIE GROUP, not per doubleton: the
  /// rank ranges and the singleton counts depend only on (t1, t2), so a
  /// (p-group, q-group) pair contributes the same singleton count to every
  /// one of its |p-group| x |q-group| doubletons, weighted by the groups'
  /// per-direction sizes. All node- and pair-timeline search bounds depend
  /// on one group's own timestamp, so they are precomputed once per group
  /// (one pass of binary searches) and the double loop over group pairs is
  /// pure prefix-sum arithmetic. The canonical code depends only on
  /// (d1, d2, center, pos, gdir), so counts accumulate into a flat
  /// 48-entry array and are added to `raw` (RawSequence slots) once at the
  /// end — no hashing on the hot path.
  void CountStars(std::uint64_t* raw) {
    using detail::LowerIdx;
    using detail::RangeDirCount;
    using detail::SatAdd;
    using detail::SatSub;
    using detail::UpperIdx;
    // [d1][d2][center][pos][gdir].
    std::uint64_t counts[2][2][2][3][2] = {};
    for (const Pair& pair : pairs_) {
      const Timestamp* T = pair_times_.data() + pair.begin;
      const std::uint8_t* D = pair_dirs_.data() + pair.begin;
      const std::uint32_t* pair_prefix = pair_prefix_.data() + pair.begin;
      const std::size_t n = pair.end - pair.begin;
      if (n < 2) continue;
      const Node* centers[2] = {&nodes_[pair.lo_node], &nodes_[pair.hi_node]};
      star_groups_.clear();
      star_bounds_.clear();  // star_groups_.size() * 2, center-minor.
      for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n && T[j] == T[i]) ++j;
        TieGroup g;
        g.begin = i;
        g.end = j;
        g.t = T[i];
        g.ndir[0] = 0;
        g.ndir[1] = 0;
        for (std::size_t x = i; x < j; ++x) ++g.ndir[D[x]];
        g.lo_tm = use_dw_ ? LowerIdx(T, n, SatSub(g.t, dw_)) : 0;
        g.hi_tp = use_dw_ ? UpperIdx(T, n, SatAdd(g.t, dw_)) : n;
        star_groups_.push_back(g);
        for (int c = 0; c < 2; ++c) {
          const Timestamp* NT = node_times_.data() + centers[c]->begin;
          const std::size_t nn = centers[c]->end - centers[c]->begin;
          CenterBounds b;
          b.lo_m = use_dw_ ? LowerIdx(NT, nn, SatSub(g.t, dw_)) : 0;
          b.lo_t = LowerIdx(NT, nn, g.t);
          b.up_t = UpperIdx(NT, nn, g.t);
          b.up_p = use_dw_ ? UpperIdx(NT, nn, SatAdd(g.t, dw_)) : nn;
          star_bounds_.push_back(b);
        }
        i = j;
      }
      const std::uint32_t* node_prefix[2] = {
          node_prefix_.data() + centers[0]->begin,
          node_prefix_.data() + centers[1]->begin};
      const std::size_t num_groups = star_groups_.size();
      for (std::size_t gp = 0; gp + 1 < num_groups; ++gp) {
        const TieGroup& P = star_groups_[gp];
        for (std::size_t gq = gp + 1; gq < num_groups; ++gq) {
          const TieGroup& Q = star_groups_[gq];
          if (use_dw_ && Q.t - P.t > dw_) break;
          const std::uint64_t m[2][2] = {
              {P.ndir[0] * Q.ndir[0], P.ndir[0] * Q.ndir[1]},
              {P.ndir[1] * Q.ndir[0], P.ndir[1] * Q.ndir[1]}};
          for (int c = 0; c < 2; ++c) {
            const CenterBounds& bp = star_bounds_[gp * 2 + c];
            const CenterBounds& bq = star_bounds_[gq * 2 + c];
            // g strictly before f1 (within f2's window) / strictly between
            // / strictly after f2 (within f1's window).
            const std::size_t ni[3][2] = {{bq.lo_m, bp.lo_t},
                                          {bp.up_t, bq.lo_t},
                                          {bq.up_t, bp.up_p}};
            const std::size_t pi[3][2] = {{Q.lo_tm, P.begin},
                                          {P.end, Q.begin},
                                          {Q.end, P.hi_tp}};
            for (int pos = 0; pos < 3; ++pos) {
              for (int gdir = 0; gdir < 2; ++gdir) {  // 1 = center is src.
                // A pair event has the center as src iff its dir == c.
                const int pair_dir_wanted = gdir == 1 ? c : 1 - c;
                const std::uint64_t cnt =
                    RangeDirCount(node_prefix[c], ni[pos][0], ni[pos][1],
                                  gdir) -
                    RangeDirCount(pair_prefix, pi[pos][0], pi[pos][1],
                                  pair_dir_wanted);
                if (!cnt) continue;
                for (int d1 = 0; d1 < 2; ++d1) {
                  for (int d2 = 0; d2 < 2; ++d2) {
                    counts[d1][d2][c][pos][gdir] += cnt * m[d1][d2];
                  }
                }
              }
            }
          }
        }
      }
    }
    for (int d1 = 0; d1 < 2; ++d1) {
      for (int d2 = 0; d2 < 2; ++d2) {
        for (int c = 0; c < 2; ++c) {
          for (int pos = 0; pos < 3; ++pos) {
            for (int gdir = 0; gdir < 2; ++gdir) {
              const std::uint64_t cnt = counts[d1][d2][c][pos][gdir];
              if (!cnt) continue;
              // Symbols: pair.lo = 0, pair.hi = 1, new far endpoint = 2.
              const int fs1 = d1, fd1 = 1 - d1;
              const int fs2 = d2, fd2 = 1 - d2;
              const int gs = gdir ? c : 2;
              const int gd = gdir ? 2 : c;
              int srcs[3], dsts[3];
              int fi = 0;
              for (int slot = 0; slot < 3; ++slot) {
                if (slot == pos) {  // g's slot in time order.
                  srcs[slot] = gs;
                  dsts[slot] = gd;
                } else if (fi++ == 0) {
                  srcs[slot] = fs1;
                  dsts[slot] = fd1;
                } else {
                  srcs[slot] = fs2;
                  dsts[slot] = fd2;
                }
              }
              raw[detail::RawSequence(srcs, dsts)] += cnt;
            }
          }
        }
      }
    }
  }

  /// Triangles (k == 3, three distinct pairs): enumerate static triangles
  /// a < b < c by neighbor-list intersection over the filtered pair set,
  /// then for each windowed cross-pair event pair (x, y) rank-count the
  /// third pair's events in the before / between / after ranges. The
  /// largest of the three timelines takes the rank-query role.
  void CountTriangles(std::uint64_t* raw) {
    // Undirected adjacency over the filtered pairs: a CSR over node slots
    // (each node's row of (neighbor, pair slot)), rows sorted by neighbor.
    for (const Pair& pair : pairs_) {
      ++nodes_[pair.lo_node].adj_end;
      ++nodes_[pair.hi_node].adj_end;
    }
    std::uint32_t total = 0;
    for (Node& node : nodes_) {
      const std::uint32_t degree = node.adj_end;
      node.adj_begin = total;
      node.adj_end = total;
      total += degree;
    }
    adjacency_.resize(total);
    for (std::uint32_t p = 0; p < pairs_.size(); ++p) {
      const Pair& pair = pairs_[p];
      adjacency_[nodes_[pair.lo_node].adj_end++] = {pair.hi, p};
      adjacency_[nodes_[pair.hi_node].adj_end++] = {pair.lo, p};
    }
    for (const Node& node : nodes_) {
      std::sort(adjacency_.begin() + node.adj_begin,
                adjacency_.begin() + node.adj_end);
    }
    for (std::uint32_t pab = 0; pab < pairs_.size(); ++pab) {
      const Node& na = nodes_[pairs_[pab].lo_node];
      const Node& nb = nodes_[pairs_[pab].hi_node];
      const NodeId b = pairs_[pab].hi;
      std::uint32_t ia = na.adj_begin;
      std::uint32_t ib = nb.adj_begin;
      while (ia < na.adj_end && ib < nb.adj_end) {
        if (adjacency_[ia].first < adjacency_[ib].first) {
          ++ia;
        } else if (adjacency_[ib].first < adjacency_[ia].first) {
          ++ib;
        } else {
          if (adjacency_[ia].first > b) {
            CountOneTriangle(pab, adjacency_[ia].second,
                             adjacency_[ib].second, raw);
          }
          ++ia;
          ++ib;
        }
      }
    }
  }

  void CountOneTriangle(std::uint32_t pab, std::uint32_t pac,
                        std::uint32_t pbc, std::uint64_t* raw) {
    using detail::LowerIdx;
    using detail::RangeDirCount;
    using detail::SatAdd;
    using detail::SatSub;
    using detail::UpperIdx;
    // Symbols: a = 0, b = 1, c = 2 (the raw sequences are canonicalized
    // when merged).
    struct Role {
      const Pair* pair;
      int lo_sym;
      int hi_sym;
    };
    Role roles[3] = {{&pairs_[pab], 0, 1},
                     {&pairs_[pac], 0, 2},
                     {&pairs_[pbc], 1, 2}};
    const auto size = [](const Role& r) { return r.pair->end - r.pair->begin; };
    // The biggest timeline answers rank queries; the other two enumerate.
    int zi = 0;
    for (int r = 1; r < 3; ++r) {
      if (size(roles[r]) > size(roles[zi])) zi = r;
    }
    std::swap(roles[zi], roles[2]);
    const Role& rx = roles[0];
    const Role& ry = roles[1];
    const Role& rz = roles[2];
    const Timestamp* TX = pair_times_.data() + rx.pair->begin;
    const Timestamp* TY = pair_times_.data() + ry.pair->begin;
    const Timestamp* TZ = pair_times_.data() + rz.pair->begin;
    const std::uint8_t* DX = pair_dirs_.data() + rx.pair->begin;
    const std::uint8_t* DY = pair_dirs_.data() + ry.pair->begin;
    const std::uint32_t* PZ = pair_prefix_.data() + rz.pair->begin;
    const std::size_t nx = size(rx);
    const std::size_t ny = size(ry);
    const std::size_t nz = size(rz);
    for (std::size_t xi = 0; xi < nx; ++xi) {
      const Timestamp tx = TX[xi];
      const std::size_t y0 = use_dw_ ? LowerIdx(TY, ny, SatSub(tx, dw_)) : 0;
      const std::size_t y1 = use_dw_ ? UpperIdx(TY, ny, SatAdd(tx, dw_)) : ny;
      for (std::size_t yi = y0; yi < y1; ++yi) {
        const Timestamp ty = TY[yi];
        if (ty == tx) continue;
        const Timestamp tmin = std::min(tx, ty);
        const Timestamp tmax = std::max(tx, ty);
        const bool x_first = tx < ty;
        const int xs = DX[xi] == 0 ? rx.lo_sym : rx.hi_sym;
        const int xd = DX[xi] == 0 ? rx.hi_sym : rx.lo_sym;
        const int ys = DY[yi] == 0 ? ry.lo_sym : ry.hi_sym;
        const int yd = DY[yi] == 0 ? ry.hi_sym : ry.lo_sym;
        for (int pos = 0; pos < 3; ++pos) {
          std::size_t z0, z1;
          if (pos == 0) {  // z strictly before both, within tmax's window.
            z0 = use_dw_ ? LowerIdx(TZ, nz, SatSub(tmax, dw_)) : 0;
            z1 = LowerIdx(TZ, nz, tmin);
          } else if (pos == 1) {  // z strictly between.
            z0 = UpperIdx(TZ, nz, tmin);
            z1 = LowerIdx(TZ, nz, tmax);
          } else {  // z strictly after both, within tmin's window.
            z0 = UpperIdx(TZ, nz, tmax);
            z1 = use_dw_ ? UpperIdx(TZ, nz, SatAdd(tmin, dw_)) : nz;
          }
          if (z1 <= z0) continue;
          for (int zd = 0; zd < 2; ++zd) {
            const std::uint64_t cnt = RangeDirCount(PZ, z0, z1, zd);
            if (!cnt) continue;
            const int zs = zd == 0 ? rz.lo_sym : rz.hi_sym;
            const int zdd = zd == 0 ? rz.hi_sym : rz.lo_sym;
            int srcs[3], dsts[3];
            const int zslot = pos;
            int fi = 0;
            for (int slot = 0; slot < 3; ++slot) {
              if (slot == zslot) {
                srcs[slot] = zs;
                dsts[slot] = zdd;
              } else if (fi++ == 0) {
                srcs[slot] = x_first ? xs : ys;
                dsts[slot] = x_first ? xd : yd;
              } else {
                srcs[slot] = x_first ? ys : xs;
                dsts[slot] = x_first ? yd : xd;
              }
            }
            raw[detail::RawSequence(srcs, dsts)] += cnt;
          }
        }
      }
    }
  }

  const Graph& graph_;
  const EnumerationOptions& opt_;
  const bool use_dw_;
  const Timestamp dw_;
  const bool static_induced_;

  // Per-call scratch, reset by each Count (see the class comment).
  detail::FlatIndex pair_index_;
  detail::FlatIndex node_index_;
  std::vector<Pair> pairs_;
  std::vector<Node> nodes_;
  /// Pair slot of each event of [lo, hi), kExcluded when filtered out.
  std::vector<std::uint32_t> event_pair_;
  std::vector<Timestamp> pair_times_;
  std::vector<std::uint8_t> pair_dirs_;
  /// Dir-1 prefix sums over the whole pair (node) CSR array: a timeline's
  /// sums are the slice starting at its `begin` (k == 3 shapes only).
  std::vector<std::uint32_t> pair_prefix_;
  std::vector<Timestamp> node_times_;
  std::vector<std::uint8_t> node_dirs_;
  std::vector<std::uint32_t> node_prefix_;
  /// Pair slot of each node-timeline event (wedges only).
  std::vector<std::uint32_t> node_pairs_;
  std::vector<std::array<std::uint64_t, 2>> wedge_pair_counts_;
  std::vector<TieGroup> star_groups_;
  std::vector<CenterBounds> star_bounds_;
  std::vector<std::pair<NodeId, std::uint32_t>> adjacency_;
};

/// Adds counts of instances with first event in [first_begin, first_end)
/// into `table` — the fast-path drop-in for EnumerateCore +
/// PackedTableSink. The caller clamps the range and has checked
/// FastPathSupported. Evaluated as the suffix-window difference
/// [first_begin, N) minus [first_end, N); suffix instance sets nest, so
/// every per-code difference is non-negative.
template <typename Graph>
void CountRangeInto(const Graph& graph, const EnumerationOptions& options,
                    EventIndex first_begin, EventIndex first_end,
                    PackedMotifTable* table) {
  const EventIndex n = static_cast<EventIndex>(graph.num_events());
  const auto all = [](EventIndex) { return true; };
  WindowCounter<Graph> counter(graph, options);
  if (first_end >= n) {
    counter.Count(first_begin, n, all,
                  [&](std::uint64_t code, std::uint64_t count) {
                    table->Add(code, count);
                  });
    return;
  }
  CodeDeltas deltas;
  counter.Accumulate(first_begin, n, all, +1, &deltas);
  counter.Accumulate(first_end, n, all, -1, &deltas);
  for (const auto& [code, delta] : deltas) {
    TMOTIF_CHECK(delta >= 0);
    if (delta > 0) table->Add(code, static_cast<std::uint64_t>(delta));
  }
}

}  // namespace fast_paths
}  // namespace internal
}  // namespace tmotif

#endif  // TMOTIF_CORE_FAST_PATHS_FAST_PATH_H_
