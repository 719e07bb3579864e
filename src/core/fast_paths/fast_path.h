#ifndef TMOTIF_CORE_FAST_PATHS_FAST_PATH_H_
#define TMOTIF_CORE_FAST_PATHS_FAST_PATH_H_

// Specialized exact counters for k <= 3 temporal motifs, after Paranjape et
// al. ("Motifs in Temporal Networks"): instead of enumerating instances one
// DFS leaf at a time, events are grouped per node pair / per node and
// counted with sliding-window sequence DP (2-node motifs), per-center
// window counts (wedges), one sweep per center with per-neighbour window
// sums (stars) and static neighbor intersection + rank queries (triangles).
// No instance is ever materialized — the counters produce (packed code,
// count) totals directly, which is why they beat the generic DfsEngine by
// integer multiples on the predicate-free presets (Song / vanilla
// counting) where the DFS has nothing to prune.
//
// Static inducedness (Paranjape et al.'s own model) reduces to facts about
// node pairs of the full graph. A pair with both directed static edges is
// *bidirectional*: a 2-node instance on it must use both directions, a
// star's two-event leg on it must run in opposite directions, and its
// events never form a star's one-event leg or a triangle side (one event
// covers one direction). A star is void when its third pair — the one it
// leaves unused — has a static edge, i.e. when its three nodes form a
// static triangle; every static triangle therefore subtracts the stars on
// its nodes (the star sweep again, at each corner), and range or filtered
// counts add the full-graph pairs the window left without events so those
// triangles are still found.
//
// Timing (the Section 4.5 case analysis, core/timing.h): when only dW
// binds, every counter bounds the timespan t_last - t_first; at k == 2 the
// one gap is the timespan, bounded by min(dC, dW). When only dC binds at
// k == 3 (dC <= dW / 2, or no dW), the counters bound each of the two gaps
// instead: the sequence DP and the star sweep pair in-dC predecessors with
// in-dC successors of each middle event, and a triangle's third event lies
// within dC of its neighbour in time order — before or after the
// enumerated two only when their own gap fits dC, so the enumeration stops
// at 2 * dC.
//
// Dispatch contract: callers must consult FastPathSupported(options) first;
// the counters handle exactly the combinations it accepts and
// TMOTIF_CHECK otherwise. The general DfsEngine remains the fallback for
// everything else (dC and dW both binding at k == 3, duration-aware dC
// gaps, order predicates, temporal-window inducedness, static inducedness
// on 3-node wedges, k >= 4, instance caps).
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
#include "core/timing.h"
#include "graph/event.h"

namespace tmotif {
namespace internal {
namespace fast_paths {

/// True when the specialized counters handle `options` exactly: k <= 3, no
/// instance cap, and for k >= 2 no order predicates (consecutive / CDG), a
/// dC gap only without duration-aware gaps and outside the both-binding
/// regime (ClassifyTiming(timing, k) != kBoth), and inducedness limited to
/// kNone (2-node, or any shape at k <= 3 with max_nodes == 3) or kStatic
/// with max_nodes == 2 or with k == max_nodes == 3 (Paranjape et al.'s and
/// Hulovatyy et al.'s shapes). k == 1 is always supported (every predicate
/// is trivial or a per-event lookup).
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

  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  /// Index of `key`, or kAbsent when no Insert since the last Reset added
  /// it.
  std::uint32_t Find(std::uint64_t key) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.stamp != generation_) return kAbsent;
      if (slot.key == key) return slot.value;
    }
  }

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
        per_gap_(opt.num_events == 3 && ClassifyTiming(opt.timing, 3) ==
                                            TimingRegime::kOnlyDeltaC),
        bounded_(opt.timing.delta_c.has_value() ||
                 opt.timing.delta_w.has_value()),
        reach_(Reach(opt.timing, per_gap_)),
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
    // FastPathSupported admits 3-node shapes only where these counters
    // honour the inducedness (kNone, or kStatic at k == 3).
    const bool shapes3 = opt_.max_nodes >= 3;
    const bool whole_graph = BuildTimelines(lo, hi, include, shapes3);

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
    // distinct-pair count. Both count into one flat array of raw symbol
    // sequences, merged per canonical code at the end. Under static
    // inducedness CountTriangles also sweeps the stars each static triangle
    // voids into `voided`, which AddStars subtracts.
    detail::BuildDirPrefix(pair_dirs_, &pair_prefix_);
    std::array<std::uint64_t, detail::kRawSequences> raw{};
    StarSums stars = {};
    StarSums voided = {};
    for (const Node& node : nodes_) {
      if (node.partners < 2) continue;
      SweepStars(node_times_.data() + node.begin,
                 node_dirs_.data() + node.begin,
                 node_slots_.data() + node.begin, node.end - node.begin,
                 node.partners, stars);
    }
    if (static_induced_ && !whole_graph) AddUncountedStaticPairs();
    CountTriangles(voided, raw.data());
    AddStars(stars, voided, raw.data());
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

  /// Adds to `table` the per-code window difference: instances in
  /// [lo, hi) over every event minus instances in [lo_minus, hi) over the
  /// events `include_minus` accepts — the one difference CountRangeInto
  /// and the streaming delta path take. The subtracted instances must be a
  /// subset of the counted ones, so every per-code difference is
  /// non-negative (checked).
  template <typename IncludeMinus>
  void CountDifferenceInto(EventIndex lo, EventIndex lo_minus, EventIndex hi,
                           const IncludeMinus& include_minus,
                           PackedMotifTable* table) {
    deltas_.Clear();
    Count(lo, hi, [](EventIndex) { return true; },
          [&](std::uint64_t code, std::uint64_t count) {
            deltas_.Add(code, static_cast<std::int64_t>(count));
          });
    Count(lo_minus, hi, include_minus,
          [&](std::uint64_t code, std::uint64_t count) {
            deltas_.Add(code, -static_cast<std::int64_t>(count));
          });
    for (const auto& [code, delta] : deltas_) {
      TMOTIF_CHECK(delta >= 0);
      if (delta > 0) table->Add(code, static_cast<std::uint64_t>(delta));
    }
  }

 private:
  using EdgeHandle = typename Graph::EdgeHandle;

  /// One undirected node pair of the filtered window (dir 0 = lo -> hi,
  /// lo < hi). Its timeline is pair_times_ / pair_dirs_ [begin, end),
  /// ascending in time; lo_node / hi_node are the endpoints' node slots
  /// and lo_slot / hi_slot the pair's partner slot at each of them (set
  /// only when node timelines are built). `bidirectional`: under static
  /// inducedness, the full graph has both directed edges.
  struct Pair {
    NodeId lo;
    NodeId hi;
    std::uint32_t lo_node;
    std::uint32_t hi_node;
    std::uint32_t lo_slot;
    std::uint32_t hi_slot;
    std::uint32_t begin;
    std::uint32_t end;
    bool bidirectional;
  };

  /// One node's incident filtered events: node_times_ / node_dirs_ /
  /// node_slots_ [begin, end), where a node dir is NodeDir's and a slot
  /// numbers the event's pair among the node's `partners` pairs, plus its
  /// row [adj_begin, adj_end) of the triangle adjacency.
  struct Node {
    NodeId id;
    std::uint32_t begin;
    std::uint32_t end;
    std::uint32_t partners;
    std::uint32_t adj_begin;
    std::uint32_t adj_end;
  };

  /// Star totals per [pos][s1][s2][s3]: pos is the one-event leg's place in
  /// time order, s1..s3 the events' directions seen from the center in
  /// time order (1 = the center is the src). The canonical code depends on
  /// nothing else (AddStars).
  using StarSums = std::uint64_t[3][2][2][2];

  /// A neighbour's state in SpanStars, over its events in the window
  /// [t - reach_, t): their number by direction, their ordered pairs from
  /// distinct tie groups by [earlier][later] direction, and the sums over
  /// them of the center's prefix P at the start (rs) and end (re) of their
  /// tie group, by [own direction][P's direction].
  struct SpanSide {
    std::uint64_t cnt[2];
    std::uint64_t sp[2][2];
    std::uint64_t rs[2][2];
    std::uint64_t re[2][2];
  };

  /// A neighbour's state in GapStars: its events within reach_ before and
  /// after the middle tie group, by direction.
  struct GapSide {
    std::uint64_t before[2];
    std::uint64_t after[2];
  };

  static constexpr std::uint32_t kExcluded =
      std::numeric_limits<std::uint32_t>::max();

  /// The one bound the counters apply (see the members): dC per gap, or
  /// the tighter of the set bounds on the whole timespan.
  static Timestamp Reach(const TimingConstraints& timing, bool per_gap) {
    if (per_gap) return *timing.delta_c;
    Timestamp reach = std::numeric_limits<Timestamp>::max();
    if (timing.delta_c.has_value()) reach = std::min(reach, *timing.delta_c);
    if (timing.delta_w.has_value()) reach = std::min(reach, *timing.delta_w);
    return reach;
  }

  /// Latest last-event time of an instance whose first event is at `t`
  /// (meaningful when bounded_): two gaps of reach_ per gap.
  Timestamp SpanEnd(Timestamp t) const {
    const Timestamp end = SatAdd(t, reach_);
    return per_gap_ ? SatAdd(end, reach_) : end;
  }

  /// Earliest first-event time of an instance whose last event is at `t`.
  Timestamp SpanBegin(Timestamp t) const {
    const Timestamp begin = SatSub(t, reach_);
    return per_gap_ ? SatSub(begin, reach_) : begin;
  }

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
  /// events in index order, so every timeline is ascending in time. Under
  /// static inducedness each new pair reads its reverse static edge from
  /// the full graph (the event's own direction exists by definition), which
  /// the node dirs of its events carry. Returns whether the timelines hold
  /// every event of the graph.
  template <typename Include>
  bool BuildTimelines(EventIndex lo, EventIndex hi, const Include& include,
                      bool need_nodes) {
    pair_index_.Reset();
    node_index_.Reset();
    pairs_.clear();
    nodes_.clear();
    event_pair_.resize(static_cast<std::size_t>(hi - lo));
    EventIndex excluded = 0;
    for (EventIndex i = lo; i < hi; ++i) {
      std::uint32_t& slot = event_pair_[static_cast<std::size_t>(i - lo)];
      if (!include(i)) {
        slot = kExcluded;
        ++excluded;
        continue;
      }
      const NodeId s = graph_.event_src(i);
      const NodeId d = graph_.event_dst(i);
      const NodeId a = std::min(s, d);
      const NodeId b = std::max(s, d);
      bool inserted = false;
      slot = pair_index_.Insert(NodePairKey(a, b), &inserted);
      if (inserted) {
        Pair pair{a, b, 0, 0, 0, 0, 0, 0, false};
        if (static_induced_) {
          pair.bidirectional = graph_.FindEdge(d, s) != Graph::kNoEdgeHandle;
        }
        if (need_nodes) {
          pair.lo_node = NodeSlot(a);
          pair.hi_node = NodeSlot(b);
          pair.lo_slot = nodes_[pair.lo_node].partners++;
          pair.hi_slot = nodes_[pair.hi_node].partners++;
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
      node_slots_.resize(total);
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
        AppendNodeEvent(pair.lo_node, t, NodeDir(pair, dir == 0), pair.lo_slot);
        AppendNodeEvent(pair.hi_node, t, NodeDir(pair, dir == 1), pair.hi_slot);
      }
    }
    return lo == 0 && excluded == 0 &&
           hi == static_cast<EventIndex>(graph_.num_events());
  }

  /// A node-timeline event's dir: bit 0 set when the node is the src, bit
  /// 1 when the pair is bidirectional (static inducedness), which only a
  /// star's two-event leg may use.
  static std::uint8_t NodeDir(const Pair& pair, bool is_src) {
    return static_cast<std::uint8_t>((is_src ? 1 : 0) |
                                     (pair.bidirectional ? 2 : 0));
  }

  std::uint32_t NodeSlot(NodeId node) {
    bool inserted = false;
    const std::uint32_t slot =
        node_index_.Insert(static_cast<std::uint32_t>(node), &inserted);
    if (inserted) nodes_.push_back(Node{node, 0, 0, 0, 0, 0});
    return slot;
  }

  void AppendNodeEvent(std::uint32_t node_slot, Timestamp t, std::uint8_t dir,
                       std::uint32_t partner_slot) {
    Node& node = nodes_[node_slot];
    node_times_[node.end] = t;
    node_dirs_[node.end] = dir;
    node_slots_[node.end] = partner_slot;
    ++node.end;
  }

  /// Sliding-window sequence DP over one pair's timeline. Timestamp tie
  /// groups move atomically (instance events need strictly increasing
  /// times): completions for a group are taken against the pre-group
  /// window state, evictions pop whole front groups. c1[d] counts window
  /// events by direction; c2[d1][d2] counts ordered in-window event pairs
  /// (only k == 3 maintains it). The timespan window applies to the
  /// would-be *first* event: older ones are evicted before completing.
  /// Under a per-gap bound GapTriples counts instead.
  void PairDp(const Pair& pair, std::uint64_t g2[2][2],
              std::uint64_t g3[2][2][2]) {
    const Timestamp* T = pair_times_.data() + pair.begin;
    const std::uint8_t* D = pair_dirs_.data() + pair.begin;
    const std::size_t n = pair.end - pair.begin;
    const int k = opt_.num_events;
    std::uint64_t p2[2][2] = {};
    std::uint64_t p3[2][2][2] = {};
    if (per_gap_) {
      GapTriples(T, D, n, p3);
    } else {
      std::uint64_t c1[2] = {};
      std::uint64_t c2[2][2] = {};
      std::size_t wbegin = 0;
      std::size_t i = 0;
      while (i < n) {
        std::size_t j = i + 1;
        while (j < n && T[j] == T[i]) ++j;
        const Timestamp t = T[i];
        if (bounded_) {
          while (wbegin < i && T[wbegin] < SatSub(t, reach_)) {
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
    }
    // Static inducedness: a 2-node instance's scope is the pair itself and
    // it must cover every full-graph static orientation, so the direction
    // pattern's distinct-pair count must equal the static edge count — a
    // per-pair constant filter over the four/eight patterns.
    const int scope_edges = pair.bidirectional ? 2 : 1;
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

  /// k == 3 sequences under a per-gap bound: each middle tie group [i, j)
  /// at t pairs its predecessors in [t - reach_, t) with its successors in
  /// (t, t + reach_], counted by direction between two monotone cursors:
  /// `before` holds the events of [lo, i), `ahead` those of [i, hi).
  void GapTriples(const Timestamp* T, const std::uint8_t* D, std::size_t n,
                  std::uint64_t p3[2][2][2]) const {
    std::uint64_t before[2] = {};
    std::uint64_t ahead[2] = {};
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && T[j] == T[i]) ++j;
      const Timestamp t = T[i];
      const Timestamp from = SatSub(t, reach_);
      while (T[lo] < from) --before[D[lo++]];  // Stops at i: T[i] == t.
      const Timestamp to = SatAdd(t, reach_);
      while (hi < n && T[hi] <= to) ++ahead[D[hi++]];
      std::uint64_t grp[2] = {};
      for (std::size_t x = i; x < j; ++x) ++grp[D[x]];
      const std::uint64_t after[2] = {ahead[0] - grp[0], ahead[1] - grp[1]};
      for (int d1 = 0; d1 < 2; ++d1) {
        if (!before[d1]) continue;
        for (int d2 = 0; d2 < 2; ++d2) {
          for (int de = 0; de < 2; ++de) {
            p3[d1][d2][de] += before[d1] * grp[d2] * after[de];
          }
        }
      }
      for (int d = 0; d < 2; ++d) {
        before[d] += grp[d];
        ahead[d] -= grp[d];
      }
      i = j;
    }
  }

  /// Wedges: ordered cross-pair event pairs sharing one node, counted per
  /// center with the same tie-group-atomic sliding window; same-pair
  /// predecessors (2-node instances) are excluded by per-pair window
  /// counts. Each wedge has exactly one shared node, so no double count.
  void CountWedges(std::uint64_t w[2][2]) {
    for (const Node& node : nodes_) {
      // In-window events per (partner slot, dir) of this center.
      wedge_pair_counts_.assign(node.partners, {0, 0});
      const Timestamp* T = node_times_.data() + node.begin;
      const std::uint8_t* D = node_dirs_.data() + node.begin;
      const std::uint32_t* P = node_slots_.data() + node.begin;
      const std::size_t n = node.end - node.begin;
      std::uint64_t ctot[2] = {};
      std::size_t wbegin = 0;
      std::size_t i = 0;
      while (i < n) {
        std::size_t j = i + 1;
        while (j < n && T[j] == T[i]) ++j;
        const Timestamp t = T[i];
        if (bounded_) {
          while (wbegin < i && T[wbegin] < SatSub(t, reach_)) {
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
    }
  }

  /// Stars (k == 3, three nodes, one pair used twice) around one center,
  /// after Paranjape et al.'s per-center counters: one sweep over the
  /// center's timeline T / D / S (times, NodeDir dirs, partner slots; n
  /// events on `partners` pairs), tie group by tie group, into `stars`.
  void SweepStars(const Timestamp* T, const std::uint8_t* D,
                  const std::uint32_t* S, std::size_t n,
                  std::uint32_t partners, StarSums& stars) {
    if (per_gap_) {
      GapStars(T, D, S, n, partners, stars);
    } else {
      SpanStars(T, D, S, n, partners, stars);
    }
  }

  /// SweepStars under a timespan bound: each tie group at t completes the
  /// stars whose first two events lie in the window [t - reach_, t), then
  /// joins the window. The prefix P counts by direction the center's
  /// events that may be a one-event leg (unidirectional pairs). For a last
  /// event on neighbour y, the first two are
  ///   - both on one other neighbour: the window's same-neighbour pairs
  ///     minus y's own, sp[y];
  ///   - on another neighbour, then on y: rs[y] - cnt[y] * P(window start)
  ///     minus sp[y], y's own events among those P counts;
  ///   - on y, then on another neighbour: cnt[y] * P(group start) - re[y]
  ///     minus sp[y] again.
  /// A bidirectional y is never the one-event leg, P does not count it,
  /// and its two events run in opposite directions. The sums are unsigned:
  /// every total is non-negative, so a wrapped intermediate cancels.
  void SpanStars(const Timestamp* T, const std::uint8_t* D,
                 const std::uint32_t* S, std::size_t n,
                 std::uint32_t partners, StarSums& stars) {
    span_sides_.assign(partners, SpanSide{});
    std::uint64_t sum_sp[2][2] = {};  // Bidirectional sides: mixed only.
    std::uint64_t prefix[2] = {};     // P at the current group's start.
    std::uint64_t first[2] = {};      // P at the window's start.
    std::size_t wbegin = 0;
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i + 1;
      while (j < n && T[j] == T[i]) ++j;
      const Timestamp from = SatSub(T[i], reach_);
      while (bounded_ && wbegin < i && T[wbegin] < from) {
        std::size_t ge = wbegin + 1;
        while (T[ge] == T[wbegin]) ++ge;  // Stops by i: T[i] != T[wbegin].
        MoveSpanGroup(D, S, wbegin, ge, /*join=*/false, first, sum_sp);
        wbegin = ge;
      }
      for (std::size_t x = i; x < j; ++x) {
        const SpanSide& y = span_sides_[S[x]];
        const int d3 = D[x] & 1;
        const bool leg = (D[x] & 2) == 0;
        for (int a = 0; a < 2; ++a) {
          for (int b = 0; b < 2; ++b) {  // a, b: the first two events.
            const std::uint64_t own = leg ? y.sp[a][b] : 0;
            if (leg) stars[2][a][b][d3] += sum_sp[a][b] - own;
            if (leg || b != d3) {
              stars[0][a][b][d3] += y.rs[b][a] - y.cnt[b] * first[a] - own;
            }
            if (leg || a != d3) {
              stars[1][a][b][d3] += y.cnt[a] * prefix[b] - y.re[a][b] - own;
            }
          }
        }
      }
      MoveSpanGroup(D, S, i, j, /*join=*/true, prefix, sum_sp);
      i = j;
    }
  }

  /// Moves the tie group [b, e) into (`join`) or out of SpanStars' window,
  /// with `p` holding P at the group's start; `p` leaves holding P at its
  /// end. A group joins after every window event and leaves before every
  /// other one, so either way it pairs with the window minus itself.
  void MoveSpanGroup(const std::uint8_t* D, const std::uint32_t* S,
                     std::size_t b, std::size_t e, bool join,
                     std::uint64_t (&p)[2], std::uint64_t (&sum_sp)[2][2]) {
    const std::uint64_t sign = join ? 1 : ~std::uint64_t{0};
    std::uint64_t p_end[2] = {p[0], p[1]};
    for (std::size_t x = b; x < e; ++x) {
      if ((D[x] & 2) == 0) ++p_end[D[x] & 1];
      if (!join) --span_sides_[S[x]].cnt[D[x] & 1];
    }
    for (std::size_t x = b; x < e; ++x) {
      SpanSide& side = span_sides_[S[x]];
      const int d = D[x] & 1;
      for (int o = 0; o < 2; ++o) {
        const std::uint64_t pairs = sign * side.cnt[o];
        (join ? side.sp[o][d] : side.sp[d][o]) += pairs;
        if ((D[x] & 2) == 0 || o != d) {
          (join ? sum_sp[o][d] : sum_sp[d][o]) += pairs;
        }
        side.rs[d][o] += sign * p[o];
        side.re[d][o] += sign * p_end[o];
      }
    }
    for (std::size_t x = b; x < e && join; ++x) {
      ++span_sides_[S[x]].cnt[D[x] & 1];
    }
    p[0] = p_end[0];
    p[1] = p_end[1];
  }

  /// SweepStars under the per-gap bound: each middle tie group at t pairs
  /// per-neighbour counts of its events in [t - reach_, t) (`before`) and
  /// in (t, t + reach_] (`after`). For a middle event on neighbour y, the
  /// first and last events lie
  ///   - on y, then on another neighbour: before[y] * (after_all - after[y]);
  ///   - on another neighbour, then on y: (before_all - before[y]) * after[y];
  ///   - both on one other neighbour x: the sum over x of before[x] *
  ///     after[x], kept in `cross` as the counts move, minus y's term;
  /// the `_all` totals count the possible one-event legs, as in SpanStars.
  void GapStars(const Timestamp* T, const std::uint8_t* D,
                const std::uint32_t* S, std::size_t n,
                std::uint32_t partners, StarSums& stars) {
    gap_sides_.assign(partners, GapSide{});
    std::uint64_t before_all[2] = {};
    std::uint64_t after_all[2] = {};
    std::uint64_t cross[2][2] = {};  // Bidirectional sides: mixed only.
    const auto move = [&](std::size_t x, bool after, std::uint64_t step) {
      GapSide& side = gap_sides_[S[x]];
      const int d = D[x] & 1;
      const bool leg = (D[x] & 2) == 0;
      (after ? side.after : side.before)[d] += step;
      if (leg) (after ? after_all : before_all)[d] += step;
      for (int o = 0; o < 2; ++o) {
        if (leg || o != d) {
          (after ? cross[o][d] : cross[d][o]) +=
              step * (after ? side.before : side.after)[o];
        }
      }
    };
    constexpr std::uint64_t kIn = 1;
    constexpr std::uint64_t kOut = ~std::uint64_t{0};
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i + 1;
      while (j < n && T[j] == T[i]) ++j;
      const Timestamp from = SatSub(T[i], reach_);
      while (T[lo] < from) move(lo++, false, kOut);  // Stops at i.
      const Timestamp to = SatAdd(T[i], reach_);
      while (hi < n && T[hi] <= to) move(hi++, true, kIn);
      for (std::size_t x = i; x < j; ++x) move(x, true, kOut);
      for (std::size_t x = i; x < j; ++x) {
        const GapSide& y = gap_sides_[S[x]];
        const int d2 = D[x] & 1;
        const bool leg = (D[x] & 2) == 0;
        for (int a = 0; a < 2; ++a) {
          for (int c = 0; c < 2; ++c) {  // a, c: the first and last events.
            if (leg || a != d2) {
              stars[2][a][d2][c] +=
                  y.before[a] * (after_all[c] - (leg ? y.after[c] : 0));
            }
            if (leg || c != d2) {
              stars[0][a][d2][c] +=
                  (before_all[a] - (leg ? y.before[a] : 0)) * y.after[c];
            }
            if (leg) {
              stars[1][a][d2][c] += cross[a][c] - y.before[a] * y.after[c];
            }
          }
        }
      }
      for (std::size_t x = i; x < j; ++x) move(x, false, kIn);
      i = j;
    }
  }

  /// Under static inducedness the stars on a static triangle's nodes are
  /// void: SweepStars again at its corner `center`, over the merge of the
  /// timelines of its two sides p0 and p1, into `voided`. A star spans at
  /// most two gaps (per gap) or one timespan of reach_, so the merge keeps
  /// only events with an event of the other side that near.
  void SweepCorner(NodeId center, std::uint32_t p0, std::uint32_t p1,
                   StarSums& voided) {
    const Pair* sides[2] = {&pairs_[p0], &pairs_[p1]};
    std::size_t at[2] = {sides[0]->begin, sides[1]->begin};
    const std::size_t end[2] = {sides[0]->end, sides[1]->end};
    const std::size_t total = (end[0] - at[0]) + (end[1] - at[1]);
    if (at[0] == end[0] || at[1] == end[1] || total < 3) return;
    if (corner_times_.size() < total) {
      corner_times_.resize(total);
      corner_dirs_.resize(total);
      corner_slots_.resize(total);
    }
    const Timestamp* T = pair_times_.data();
    const Timestamp span = per_gap_ ? SatAdd(reach_, reach_) : reach_;
    // Each side's latest merged event; the initial minimum may keep an
    // event too many, which costs only time.
    Timestamp last[2] = {std::numeric_limits<Timestamp>::min(),
                         std::numeric_limits<Timestamp>::min()};
    std::size_t n = 0;
    while (at[0] < end[0] || at[1] < end[1]) {
      const int s =
          at[0] < end[0] && (at[1] == end[1] || T[at[0]] <= T[at[1]]) ? 0 : 1;
      const std::size_t e = at[s]++;
      const Timestamp t = T[e];
      last[s] = t;
      const int o = 1 - s;
      if (last[o] < SatSub(t, span) &&
          !(at[o] < end[o] && T[at[o]] <= SatAdd(t, span))) {
        continue;
      }
      corner_times_[n] = t;
      const bool is_src = (pair_dirs_[e] == 0) == (center == sides[s]->lo);
      corner_dirs_[n] = NodeDir(*sides[s], is_src);
      corner_slots_[n++] = static_cast<std::uint32_t>(s);
    }
    if (n < 3) return;
    SweepStars(corner_times_.data(), corner_dirs_.data(), corner_slots_.data(),
               n, 2, voided);
  }

  /// Adds `stars` minus `voided` into `raw` (RawSequence slots).
  static void AddStars(const StarSums& stars, const StarSums& voided,
                       std::uint64_t* raw) {
    for (int pos = 0; pos < 3; ++pos) {
      for (int s = 0; s < 8; ++s) {
        const int dirs[3] = {s >> 2, (s >> 1) & 1, s & 1};
        const std::uint64_t cnt = stars[pos][dirs[0]][dirs[1]][dirs[2]] -
                                  voided[pos][dirs[0]][dirs[1]][dirs[2]];
        if (!cnt) continue;
        // Symbols: the center = 0, the two-event leg's neighbour = 1, the
        // one-event leg's = 2.
        int srcs[3], dsts[3];
        for (int slot = 0; slot < 3; ++slot) {
          const int far = slot == pos ? 2 : 1;
          srcs[slot] = dirs[slot] ? 0 : far;
          dsts[slot] = dirs[slot] ? far : 0;
        }
        raw[detail::RawSequence(srcs, dsts)] += cnt;
      }
    }
  }

  /// Static inducedness reads a star's third pair from the full graph, so
  /// a range or filtered count adds, as empty pairs, the full-graph pairs
  /// between two of its nodes that it left without events: CountTriangles
  /// must still find the static triangles they close.
  void AddUncountedStaticPairs() {
    const std::uint32_t num_nodes = static_cast<std::uint32_t>(nodes_.size());
    for (std::uint32_t u = 0; u < num_nodes; ++u) {
      const NodeId id = nodes_[u].id;
      const auto incident = graph_.incident(id);
      for (auto it = incident.begin(); it != incident.end(); ++it) {
        const NodeId other = it.src() == id ? it.dst() : it.src();
        if (other < id) continue;  // The lower endpoint adds the pair.
        const std::uint32_t v =
            node_index_.Find(static_cast<std::uint32_t>(other));
        if (v == detail::FlatIndex::kAbsent) continue;
        bool inserted = false;
        pair_index_.Insert(NodePairKey(id, other), &inserted);
        if (inserted) {
          pairs_.push_back(Pair{id, other, u, v, 0, 0, 0, 0, false});
        }
      }
    }
  }

  /// Triangles (k == 3, three distinct pairs): enumerate static triangles
  /// a < b < c by neighbor-list intersection over the filtered pair set,
  /// then for each windowed cross-pair event pair (x, y) rank-count the
  /// third pair's events in the before / between / after ranges. The
  /// largest of the three timelines takes the rank-query role.
  ///
  /// Under static inducedness a triangle counts only when all three pairs
  /// are unidirectional, and every static triangle sweeps the stars on its
  /// nodes into `voided`: its third pair is the static edge each of them
  /// leaves uncovered.
  void CountTriangles(StarSums& voided, std::uint64_t* raw) {
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
    const auto countable = [this](std::uint32_t p) {
      const Pair& pair = pairs_[p];
      return pair.end > pair.begin && !pair.bidirectional;
    };
    for (std::uint32_t pab = 0; pab < pairs_.size(); ++pab) {
      const Pair& ab = pairs_[pab];
      const Node& na = nodes_[ab.lo_node];
      const Node& nb = nodes_[ab.hi_node];
      std::uint32_t ia = na.adj_begin;
      std::uint32_t ib = nb.adj_begin;
      while (ia < na.adj_end && ib < nb.adj_end) {
        if (adjacency_[ia].first < adjacency_[ib].first) {
          ++ia;
        } else if (adjacency_[ib].first < adjacency_[ia].first) {
          ++ib;
        } else {
          const NodeId w = adjacency_[ia].first;
          const std::uint32_t paw = adjacency_[ia].second;
          const std::uint32_t pbw = adjacency_[ib].second;
          if (w > ab.hi && (!static_induced_ || (countable(pab) &&
                                                 countable(paw) &&
                                                 countable(pbw)))) {
            if (per_gap_) {
              CountOneTriangle<true>(pab, paw, pbw, raw);
            } else {
              CountOneTriangle<false>(pab, paw, pbw, raw);
            }
          }
          if (w > ab.hi && static_induced_) {
            SweepCorner(ab.lo, pab, paw, voided);
            SweepCorner(ab.hi, pab, pbw, voided);
            SweepCorner(w, paw, pbw, voided);
          }
          ++ia;
          ++ib;
        }
      }
    }
  }

  /// One static triangle's instances. A timespan bound reaches z before
  /// (after) the enumerated x and y from the later (earlier) of them; a
  /// per-gap bound reaches it from the nearer one, only when x and y fit
  /// one gap themselves, and keeps z between them within reach_ of both.
  template <bool kPerGap>
  void CountOneTriangle(std::uint32_t pab, std::uint32_t pac,
                        std::uint32_t pbc, std::uint64_t* raw) {
    using detail::LowerIdx;
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
      const std::size_t y0 = bounded_ ? LowerIdx(TY, ny, SpanBegin(tx)) : 0;
      const std::size_t y1 = bounded_ ? UpperIdx(TY, ny, SpanEnd(tx)) : ny;
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
        const bool outer = !kPerGap || tmax <= SatAdd(tmin, reach_);
        const Timestamp before_from = kPerGap ? tmin : tmax;
        const Timestamp after_from = kPerGap ? tmax : tmin;
        for (int pos = 0; pos < 3; ++pos) {
          if (pos != 1 && !outer) continue;
          std::size_t z0, z1;
          if (pos == 0) {  // z strictly before both.
            z0 = bounded_ ? LowerIdx(TZ, nz, SatSub(before_from, reach_)) : 0;
            z1 = LowerIdx(TZ, nz, tmin);
          } else if (pos == 1 && !kPerGap) {  // z strictly between.
            z0 = UpperIdx(TZ, nz, tmin);
            z1 = LowerIdx(TZ, nz, tmax);
          } else if (pos == 1) {  // Strictly between, within reach_ of both.
            z0 = LowerIdx(TZ, nz, std::max(tmin + 1, SatSub(tmax, reach_)));
            z1 = UpperIdx(TZ, nz, std::min(tmax - 1, SatAdd(tmin, reach_)));
          } else {  // z strictly after both.
            z0 = UpperIdx(TZ, nz, tmax);
            z1 = bounded_ ? UpperIdx(TZ, nz, SatAdd(after_from, reach_)) : nz;
          }
          if (z1 <= z0) continue;
          std::uint64_t by_dir[2];  // z events per dir.
          by_dir[1] = PZ[z1] - PZ[z0];
          by_dir[0] = (z1 - z0) - by_dir[1];
          for (int zd = 0; zd < 2; ++zd) {
            const std::uint64_t cnt = by_dir[zd];
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
  /// Timing as FastPathSupported admits it. With `per_gap_` (k == 3, only
  /// dC binds) reach_ = dC bounds each gap between consecutive events;
  /// otherwise reach_ bounds the whole timespan: dW, or min(dC, dW) (at
  /// k == 2 the one gap is the timespan; at k == 3 only dW binds when dC
  /// is set). `bounded_`: some bound is set.
  const bool per_gap_;
  const bool bounded_;
  const Timestamp reach_;
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
  /// Dir-1 prefix sums over the whole pair CSR array: a timeline's sums
  /// are the slice starting at its `begin` (k == 3 shapes only).
  std::vector<std::uint32_t> pair_prefix_;
  std::vector<Timestamp> node_times_;
  std::vector<std::uint8_t> node_dirs_;
  std::vector<std::uint32_t> node_slots_;
  /// Per-partner state of the current center, sized by its partners.
  std::vector<std::array<std::uint64_t, 2>> wedge_pair_counts_;
  std::vector<SpanSide> span_sides_;
  std::vector<GapSide> gap_sides_;
  /// One static triangle corner's merged timeline (SweepCorner).
  std::vector<Timestamp> corner_times_;
  std::vector<std::uint8_t> corner_dirs_;
  std::vector<std::uint32_t> corner_slots_;
  std::vector<std::pair<NodeId, std::uint32_t>> adjacency_;
  /// CountDifferenceInto's per-code accumulator.
  CodeDeltas deltas_;
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
  counter.CountDifferenceInto(first_begin, first_end, n, all, table);
}

}  // namespace fast_paths
}  // namespace internal
}  // namespace tmotif

#endif  // TMOTIF_CORE_FAST_PATHS_FAST_PATH_H_
