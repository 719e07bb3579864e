#ifndef TMOTIF_CORE_ENUMERATE_CORE_H_
#define TMOTIF_CORE_ENUMERATE_CORE_H_

// Internal devirtualized enumeration core shared by the batch counters
// (core/counter.cc, core/enumerator.cc, core/parallel.h) and the
// streaming delta path (stream/streaming_counter.cc).
//
// The DFS is templated on both the graph type and the emission sink, so
//   * pure counting compiles to a loop with zero indirect calls
//     (no std::function, no virtual dispatch),
//   * the sliding-window counter can run the identical algorithm over its
//     incrementally maintained WindowGraph indices, and
//   * motif codes are carried as a packed std::uint64_t (one byte per
//     event: src digit in the high nibble, dst digit in the low nibble)
//     instead of a heap string, converted to the paper's digit-string
//     notation only at the table boundary.
//
// The reference semantics live in IsValidInstance (core/enumerator.cc) and
// the brute-force oracle (src/testing/), both deliberately untouched by
// this fast path; the differential test grids keep the two in agreement.

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/check.h"
#include "core/enumerator.h"

namespace tmotif {
namespace internal {

/// Detects the optional batch half of the sink contract:
/// `EmitBatch(packed_code, count)` accepts a whole saturated edge run of
/// `count` instances sharing one code without materializing the instances.
/// Sinks that need per-instance identity (visitors, the streaming
/// live-instance store) simply omit the method and keep the Emit path.
template <typename Sink, typename = void>
struct SinkHasEmitBatch : std::false_type {};

template <typename Sink>
struct SinkHasEmitBatch<
    Sink, std::void_t<decltype(std::declval<Sink&>().EmitBatch(
              std::uint64_t{}, std::uint64_t{}))>> : std::true_type {};

/// Packed codes hold one byte per event, so 8 events is the hard cap (the
/// documented library limit; max_nodes <= num_events + 1 <= 9 keeps every
/// digit within one nibble).
constexpr int kMaxCoreEvents = 8;
constexpr int kMaxCoreNodes = kMaxCoreEvents + 1;

inline void ValidateEnumerationOptions(const EnumerationOptions& options) {
  TMOTIF_CHECK(options.num_events >= 1);
  TMOTIF_CHECK_MSG(options.num_events <= kMaxCoreEvents,
                   "the enumerator supports at most 8-event motifs");
  TMOTIF_CHECK(options.max_nodes >= 2 &&
               options.max_nodes <= options.num_events + 1);
}

/// Byte of event `depth` inside a packed code.
inline std::uint64_t PackPair(int src_digit, int dst_digit, int depth) {
  return static_cast<std::uint64_t>((src_digit << 4) | dst_digit)
         << (8 * depth);
}

inline int PackedSrcDigit(std::uint64_t packed, int depth) {
  return static_cast<int>((packed >> (8 * depth + 4)) & 0xF);
}

inline int PackedDstDigit(std::uint64_t packed, int depth) {
  return static_cast<int>((packed >> (8 * depth)) & 0xF);
}

/// Number of events of a packed code. Every event byte is non-zero (the
/// first is always 0x01, later pairs have two distinct digits), so the
/// event count is the index of the highest non-zero byte plus one.
inline int PackedNumEvents(std::uint64_t packed) {
  int k = 0;
  while (packed != 0) {
    ++k;
    packed >>= 8;
  }
  return k;
}

/// Number of distinct event bytes (digit pairs) among the first `k` bytes
/// of a packed code — under static inducedness, the instance-side half of
/// the coverage check (the other half being the scope's static edge count).
inline int PackedDistinctPairCount(std::uint64_t packed, int k) {
  int distinct = 0;
  for (int i = 0; i < k; ++i) {
    const std::uint64_t byte = (packed >> (8 * i)) & 0xFF;
    bool dup = false;
    for (int j = 0; j < i; ++j) {
      if (((packed >> (8 * j)) & 0xFF) == byte) {
        dup = true;
        break;
      }
    }
    if (!dup) ++distinct;
  }
  return distinct;
}

/// Writes the digit-string spelling of `packed` into `buf` (no terminator);
/// returns the length (2 * num_events). `buf` must hold 2 * kMaxCoreEvents.
inline int PackedCodeToChars(std::uint64_t packed, int num_events, char* buf) {
  for (int i = 0; i < num_events; ++i) {
    buf[2 * i] = static_cast<char>('0' + PackedSrcDigit(packed, i));
    buf[2 * i + 1] = static_cast<char>('0' + PackedDstDigit(packed, i));
  }
  return 2 * num_events;
}

/// The devirtualized DFS. `Graph` must provide the read-only accessor
/// subset of TemporalGraph the engine actually uses:
///   num_events(), event(i) (only .duration is read, and only under
///   duration-aware gaps), event_time(i), event_src(i), event_dst(i),
///   incident(node) (a random-access range of ascending event indices
///     whose iterator also exposes the fronted event's hot fields via
///     time() / src() / dst()),
///   IncidentUpperBound(node, after) (iterator past the last incident
///     index <= after),
///   UpperBoundTime(t) (first index with time > t),
///   HasIncidentInIndexRange(node, lo, hi),
///   HasAdjacentEdgeEventInRange(c, t_lo, t_hi) (another event on c's
///     directed edge inside the range),
/// plus the O(1)-amortized static-edge predicate surface:
///   EdgeHandle / kNoEdgeHandle (a cheap copyable edge-slot token),
///   FindEdge(src, dst) -> EdgeHandle,
///   EdgeLowerRank(handle, t) / EdgeUpperRank(handle, t) (occurrence
///     counts with time < t / <= t; handle must be valid),
///   CountEdgeEventsInTimeRange(handle, t_lo, t_hi), and
///   edge_occurrences(handle) (the occurrence run with timestamps in
///     lockstep, for the scope-saturated final depth).
/// Handles must stay valid for the whole enumeration (the graph is
/// quiescent while the engine runs).
///
/// The engine memoizes FindEdge per ordered digit pair: each digit carries
/// a generation stamp bumped on (re)assignment, and a memo entry is fresh
/// exactly when both digits' stamps match the entry. Within one instance
/// subtree the CDG restriction and both inducedness scans therefore
/// resolve each (src, dst) pair once and reuse the handle — plus, for the
/// temporal-window scan, the cached lower rank at the root's first-event
/// timestamp — making repeated per-instance predicate checks O(1).
///
/// `Sink` must provide `void Emit(const EventIndex* chosen, int num_events,
/// std::uint64_t packed_code, const NodeId* nodes, int num_nodes)` — the
/// instance-identity emit: `chosen` are the instance's event indices,
/// `nodes[d]` is the node holding digit `d` of the packed code (valid for
/// `d < num_nodes`; the pointers are scratch, valid only inside the call).
/// Counting sinks ignore the node arguments; the streaming live-instance
/// store (stream/instance_store.h) is the consumer that needs them.
/// Instances arrive in the same deterministic order as the seed
/// implementation (lexicographic by chosen event indices).
template <typename Graph, typename Sink>
class DfsEngine {
 public:
  DfsEngine(const Graph& graph, const EnumerationOptions& opt, Sink& sink)
      : graph_(graph),
        opt_(opt),
        sink_(sink),
        use_dc_(opt.timing.delta_c.has_value()),
        use_dw_(opt.timing.delta_w.has_value()),
        static_induced_(opt.inducedness == Inducedness::kStatic),
        window_induced_(opt.inducedness == Inducedness::kTemporalWindow),
        saturated_final_(opt.inducedness != Inducedness::kNone),
        batch_saturated_(!opt.cdg_restriction &&
                         !opt.consecutive_events_restriction),
        dc_(use_dc_ ? *opt.timing.delta_c : 0),
        dw_(use_dw_ ? *opt.timing.delta_w : 0) {}

  std::uint64_t Run(EventIndex first_begin, EventIndex first_end) {
    const int k = opt_.num_events;
    for (EventIndex i = first_begin; i < first_end; ++i) {
      chosen_[0] = i;
      nodes_[0] = graph_.event_src(i);
      nodes_[1] = graph_.event_dst(i);
      digit_gen_[0] = ++gen_counter_;
      digit_gen_[1] = ++gen_counter_;
      last_[0] = i;
      last_[1] = i;
      num_nodes_ = 2;
      if (static_induced_) {
        // (src, dst) is a static edge by construction; only the reverse
        // orientation needs a lookup.
        scope_static_edges_ =
            1 + (graph_.FindEdge(nodes_[1], nodes_[0]) != Graph::kNoEdgeHandle
                     ? 1
                     : 0);
      }
      // Temporal-window prefix prune at d = 1 (see WindowInduced): another
      // event on the root's node pair at t0 intrudes on every completion.
      // (The static prefix prune lives in Extend: a root scope has at most
      // 2 edges and k >= 2 there, so it can never be dead this early.)
      if (window_induced_ && !WindowInduced(1, 2, graph_.event_time(i))) {
        continue;
      }
      packed_ = PackPair(0, 1, 0);
      if (k == 1) {
        Emit(packed_, num_nodes_);
      } else {
        Extend(1, /*inherited=*/0);
      }
    }
    return count_;
  }

 private:
  using IncidentRange =
      decltype(std::declval<const Graph&>().incident(NodeId{0}));
  using IncidentIter = decltype(std::declval<IncidentRange>().begin());
  using EdgeRunIter =
      decltype(std::declval<const Graph&>()
                   .edge_occurrences(std::declval<typename Graph::EdgeHandle>())
                   .begin());
  using EdgeHandle = typename Graph::EdgeHandle;

  /// Memoized FindEdge result for one ordered digit pair, plus the cached
  /// lower rank of the root's first-event timestamp (temporal-window
  /// inducedness re-reads it on every prefix check under the same root).
  struct PairMemo {
    std::uint64_t gen_a = 0;
    std::uint64_t gen_b = 0;
    EdgeHandle handle{};
    std::size_t lo_rank = 0;
    bool lo_valid = false;
  };

  int DigitOf(NodeId node) const {
    for (int d = 0; d < num_nodes_; ++d) {
      if (nodes_[static_cast<std::size_t>(d)] == node) return d;
    }
    return -1;
  }

  /// Resolved edge slot of the directed digit pair (a, b); both digits must
  /// be live (assigned on the current DFS path). Stale entries are detected
  /// by generation mismatch — digit generations are globally unique, so an
  /// entry can never alias an older assignment of the same digits.
  PairMemo& MemoFor(int a, int b) {
    PairMemo& m = pair_memo_[static_cast<std::size_t>(a)]
                            [static_cast<std::size_t>(b)];
    const std::uint64_t ga = digit_gen_[static_cast<std::size_t>(a)];
    const std::uint64_t gb = digit_gen_[static_cast<std::size_t>(b)];
    if (m.gen_a != ga || m.gen_b != gb) {
      m.gen_a = ga;
      m.gen_b = gb;
      m.handle = graph_.FindEdge(nodes_[static_cast<std::size_t>(a)],
                                 nodes_[static_cast<std::size_t>(b)]);
      m.lo_valid = false;
    }
    return m;
  }

  /// Number of static edges between `w` and the current first `num_existing`
  /// scope nodes (both orientations). Charged once per node *addition* — the
  /// whole subtree under that addition reuses the accumulated scope count.
  int StaticEdgesToScope(NodeId w, int num_existing) const {
    int count = 0;
    for (int d = 0; d < num_existing; ++d) {
      const NodeId x = nodes_[static_cast<std::size_t>(d)];
      count += graph_.FindEdge(x, w) != Graph::kNoEdgeHandle ? 1 : 0;
      count += graph_.FindEdge(w, x) != Graph::kNoEdgeHandle ? 1 : 0;
    }
    return count;
  }

  bool PassesFinalChecks(std::uint64_t packed, int num_nodes) {
    if (opt_.inducedness == Inducedness::kNone) return true;
    const int k = opt_.num_events;
    if (opt_.inducedness == Inducedness::kStatic) {
      // Every event edge is a static edge of the scope, so the instance
      // uses all scope edges exactly when its distinct (src, dst) digit
      // pairs number scope_static_edges_ — a pure byte scan, no graph
      // queries. (The final-depth loop inlines this check; this branch
      // serves the k == 1 root path.)
      return PackedDistinctPairCount(packed, k) == scope_static_edges_;
    }
    // Temporal-window inducedness over the whole instance. (Every proper
    // prefix already passed in Run / Extend; this last check still has to
    // see a node the final event brings in and the final event's
    // timestamp ties.)
    return WindowInduced(
        k, num_nodes,
        graph_.event_time(chosen_[static_cast<std::size_t>(k - 1)]));
  }

  /// Temporal-window inducedness of the first `num_events` chosen events
  /// over the first `num_nodes` digits: the events among those nodes within
  /// [t_first, t_last] must be exactly the chosen ones. The predicate is
  /// prefix-closed: instance times strictly increase and every chosen event
  /// lies among the node set, so if an instance passes, each prefix of d
  /// events passes too, over its own nodes and [t_first, t_d]. Run and
  /// Extend therefore check it at every depth and skip a failing prefix's
  /// whole subtree. t_first is fixed per root, so each pair's lower rank is
  /// resolved once and reused across the root's subtree.
  bool WindowInduced(int num_events, int num_nodes, Timestamp t_last) {
    const Timestamp t_first = graph_.event_time(chosen_[0]);
    int total = 0;
    for (int a = 0; a < num_nodes; ++a) {
      for (int b = 0; b < num_nodes; ++b) {
        if (a == b) continue;
        PairMemo& m = MemoFor(a, b);
        if (m.handle == Graph::kNoEdgeHandle) continue;
        if (!m.lo_valid) {
          m.lo_rank = graph_.EdgeLowerRank(m.handle, t_first);
          m.lo_valid = true;
        }
        total += static_cast<int>(graph_.EdgeUpperRank(m.handle, t_last) -
                                  m.lo_rank);
        if (total > num_events) return false;
      }
    }
    return total == num_events;
  }

  void Emit(std::uint64_t packed, int num_nodes) {
    if (!PassesFinalChecks(packed, num_nodes)) return;
    EmitUnchecked(packed, num_nodes);
  }

  /// Emit with every predicate already verified by the caller.
  void EmitUnchecked(std::uint64_t packed, int num_nodes) {
    ++count_;
    sink_.Emit(chosen_.data(), opt_.num_events, packed, nodes_.data(),
               num_nodes);
  }

  // Both extension loops share the cursor-inheritance contract: the first
  // `inherited` frontier digits reuse the caller's merge cursors — when the
  // parent recursed on candidate c, its min-merge had consumed every
  // incident entry <= c, so each inherited cursor already fronts the first
  // entry > c, exactly the child depth's lower bound. Only freshly
  // introduced digits (at most one per extension) need a binary search.

  /// Computes the admissible time upper bound for extensions after
  /// `prev_idx` (kMaxTime when unbounded).
  Timestamp ExtensionUpperBound(EventIndex prev_idx, Timestamp t_prev) const {
    const Timestamp gap_base =
        opt_.duration_aware_gaps
            ? SatAdd(t_prev, graph_.event(prev_idx).duration)
            : t_prev;
    Timestamp upper = std::numeric_limits<Timestamp>::max();
    if (use_dc_) upper = SatAdd(gap_base, dc_);
    if (use_dw_) {
      upper = std::min(upper, SatAdd(graph_.event_time(chosen_[0]), dw_));
    }
    return upper;
  }

  /// Final-depth loop for a saturated scope (num_nodes_ == max_nodes)
  /// under static or temporal-window inducedness (ExtendFinal gates on
  /// both): no new node may enter, so every admissible candidate lies on
  /// one of the scope's <= n*(n-1) internal static edges. Iterating those
  /// edges' occurrence runs — resolved through the digit-pair memo —
  /// visits only viable candidates, skipping the (typically far more
  /// numerous) incident events that lead outside the scope.
  ///
  /// Static mode rejects whole runs up front: every candidate on the same
  /// edge yields the same packed code, so one distinct-pair scan per
  /// collected pair code replaces all per-candidate inducedness checks.
  /// Temporal-window mode needs no rank query at all: the prefix already
  /// passed over [t_first, t_prev] (Run and Extend check every prefix) and
  /// no node can join, so an instance passes iff its final event is the
  /// only scope event in (t_prev, tc]. Only the first scope event after
  /// t_prev can be that, and only when no other scope event shares its
  /// timestamp; it intrudes on every later candidate, so the merge ends
  /// with it either way.
  ///
  /// The runs are disjoint (each event lies on exactly one edge), and the
  /// min-scan merges them in ascending index order, so emission order is
  /// unchanged.
  void SaturatedFinal(int depth, NodeId prev_src, NodeId prev_dst,
                      Timestamp t_prev, Timestamp upper) {
    const int k = opt_.num_events;
    // Collect the scope's resolved ordered pairs once; the codes feed the
    // run-level filter (static).
    constexpr int kMaxPairs = kMaxCoreNodes * (kMaxCoreNodes - 1);
    std::uint64_t codes[kMaxPairs];
    EdgeHandle handles[kMaxPairs];
    std::int8_t src_digits[kMaxPairs];
    std::int8_t dst_digits[kMaxPairs];
    bool pass[kMaxPairs];
    int npairs = 0;
    for (int a = 0; a < num_nodes_; ++a) {
      for (int b = 0; b < num_nodes_; ++b) {
        if (a == b) continue;
        PairMemo& m = MemoFor(a, b);
        if (m.handle == Graph::kNoEdgeHandle) continue;
        codes[npairs] = packed_ | PackPair(a, b, depth);
        handles[npairs] = m.handle;
        src_digits[npairs] = static_cast<std::int8_t>(a);
        dst_digits[npairs] = static_cast<std::int8_t>(b);
        ++npairs;
      }
    }
    if (npairs == 0) return;
    // Static: pass[i] <=> run i's code covers exactly the scope's static
    // edges. Temporal-window: admission depends on the candidate's
    // timestamp, so every run stays live.
    for (int i = 0; i < npairs; ++i) {
      pass[i] = !static_induced_ ||
                PackedDistinctPairCount(codes[i], k) == scope_static_edges_;
    }

    // Batch short-circuit (static only): with no per-candidate order
    // predicates (CDG / consecutive), every occurrence of an accepted edge
    // in (t_prev, upper] is an instance with the run's code — two rank
    // queries per scope edge replace the whole min-merge, and the sink
    // absorbs each run as one EmitBatch.
    // Only batch-capable sinks take this branch; identity sinks still get
    // per-instance Emit calls in deterministic order below.
    if constexpr (SinkHasEmitBatch<Sink>::value) {
      if (batch_saturated_ && static_induced_) {
        for (int i = 0; i < npairs; ++i) {
          if (!pass[i]) continue;
          const EdgeHandle handle = handles[i];
          const std::size_t lo = graph_.EdgeUpperRank(handle, t_prev);
          const std::size_t hi = graph_.EdgeUpperRank(handle, upper);
          if (hi <= lo) continue;
          const std::uint64_t n = hi - lo;
          count_ += n;
          sink_.EmitBatch(codes[i], n);
        }
        return;
      }
    }

    struct ScopeRun {
      EdgeRunIter cur;
      EdgeRunIter end;
      std::uint64_t code;
      int src_digit;
      int dst_digit;
      bool same_edge_as_prev;
    };
    ScopeRun runs[kMaxPairs];
    int nruns = 0;
    for (int i = 0; i < npairs; ++i) {
      if (!pass[i]) continue;  // Static: no candidate on this edge passes.
      const EdgeHandle handle = handles[i];
      const auto range = graph_.edge_occurrences(handle);
      const std::size_t lo = graph_.EdgeUpperRank(handle, t_prev);
      if (lo >= range.size()) continue;
      EdgeRunIter cur = range.begin() + static_cast<std::ptrdiff_t>(lo);
      if (cur.time() > upper) continue;  // Ascending: the run is spent.
      const int a = src_digits[i];
      const int b = dst_digits[i];
      runs[nruns++] = ScopeRun{
          cur, range.end(), codes[i], a, b,
          nodes_[static_cast<std::size_t>(a)] == prev_src &&
              nodes_[static_cast<std::size_t>(b)] == prev_dst};
    }
    if (nruns == 0) return;

    constexpr EventIndex kDone = std::numeric_limits<EventIndex>::max();
    bool last_candidate = false;
    while (!last_candidate) {
      EventIndex c = kDone;
      int win = -1;
      for (int r = 0; r < nruns; ++r) {
        if (runs[r].cur == runs[r].end) continue;
        const EventIndex v = *runs[r].cur;
        if (v < c) {
          c = v;
          win = r;
        }
      }
      if (win < 0) break;
      ScopeRun& run = runs[win];
      const Timestamp tc = run.cur.time();
      if (tc > upper) break;  // Ascending across runs: nothing else fits.
      ++run.cur;
      if (window_induced_) {
        // c is the first scope event after t_prev: the only candidate (see
        // above), and admissible only if every run now fronts a later
        // timestamp.
        last_candidate = true;
        bool tied = false;
        for (int r = 0; r < nruns; ++r) {
          tied |= runs[r].cur != runs[r].end && runs[r].cur.time() == tc;
        }
        if (tied) break;
      }

      if (opt_.cdg_restriction && !run.same_edge_as_prev &&
          graph_.HasAdjacentEdgeEventInRange(c, t_prev, tc)) {
        continue;
      }
      if (opt_.consecutive_events_restriction) {
        bool violated = false;
        for (const int digit : {run.src_digit, run.dst_digit}) {
          const EventIndex prev_touch = last_[static_cast<std::size_t>(digit)];
          if (graph_.HasIncidentInIndexRange(
                  nodes_[static_cast<std::size_t>(digit)], prev_touch, c)) {
            violated = true;
            break;
          }
        }
        if (violated) continue;
      }

      chosen_[static_cast<std::size_t>(depth)] = c;
      // The run-level pre-filter / window tie rule already passed.
      EmitUnchecked(run.code, num_nodes_);
    }
  }

  /// Final-depth candidate loop: no recursion can follow, so the merge runs
  /// on function-local cursors (nothing is stored back into the per-depth
  /// cursor arrays — the compiler keeps the whole merge state in
  /// registers). This is the hottest loop of the engine: with a 3-event
  /// motif, most merge rounds happen here.
  void ExtendFinal(int depth, int inherited) {
    const EventIndex prev_idx = chosen_[static_cast<std::size_t>(depth - 1)];
    const NodeId prev_src = graph_.event_src(prev_idx);
    const NodeId prev_dst = graph_.event_dst(prev_idx);
    const Timestamp t_prev = graph_.event_time(prev_idx);
    const Timestamp upper = ExtensionUpperBound(prev_idx, t_prev);
    if (upper <= t_prev) return;
    // The edge-run path serves both inducedness predicates: static mode
    // rejects whole runs via the code pre-filter, temporal-window mode
    // admits at most the first scope event after t_prev without a rank
    // query. For other option sets the incident merge below is cheaper (no
    // per-pair setup).
    if (saturated_final_ && num_nodes_ == opt_.max_nodes) {
      SaturatedFinal(depth, prev_src, prev_dst, t_prev, upper);
      return;
    }

    const int frontier = num_nodes_;
    IncidentIter cur[kMaxCoreNodes];
    IncidentIter end[kMaxCoreNodes];
    for (int d = 0; d < frontier; ++d) {
      const std::size_t s = static_cast<std::size_t>(d);
      if (d < inherited) {
        cur[s] = cursors_[static_cast<std::size_t>(depth - 1)][s];
        end[s] = cursor_ends_[static_cast<std::size_t>(depth - 1)][s];
      } else {
        cur[s] = graph_.IncidentUpperBound(nodes_[s], prev_idx);
        end[s] = graph_.incident(nodes_[s]).end();
      }
    }

    // Per-call cache of the last new node's static-edge count to the scope:
    // bursty final runs repeat the same out-of-scope neighbor many times,
    // and the scope is fixed for the whole call.
    NodeId cached_new_node = kInvalidNode;
    int cached_new_delta = 0;

    constexpr EventIndex kDone = std::numeric_limits<EventIndex>::max();
    bool last_candidate = false;  // Temporal-window early stop (see Extend).
    while (!last_candidate) {
      EventIndex c = kDone;
      unsigned match = 0;
      IncidentIter best{};
      for (int d = 0; d < frontier; ++d) {
        const std::size_t s = static_cast<std::size_t>(d);
        if (cur[s] == end[s]) continue;
        const EventIndex v = *cur[s];
        if (v < c) {
          c = v;
          match = 1u << d;
          best = cur[s];
        } else if (v == c) {
          match |= 1u << d;
        }
      }
      if (c == kDone) break;
      for (int d = 0; match != 0; ++d, match >>= 1) {
        if (match & 1u) ++cur[static_cast<std::size_t>(d)];
      }

      // The winning cursor fronts the candidate's inlined hot fields — no
      // event-array loads in this loop.
      const Timestamp tc = best.time();
      if (tc <= t_prev) {
        // Timestamp-tie group of the previous event: jump past it (see the
        // non-final loop for the rationale).
        const EventIndex lo = graph_.UpperBoundTime(t_prev);
        for (int d = 0; d < frontier; ++d) {
          const std::size_t s = static_cast<std::size_t>(d);
          cur[s] = std::lower_bound(cur[s], end[s], lo);
        }
        continue;
      }
      if (tc > upper) break;  // Sorted by time: no more candidates.
      const NodeId c_src = best.src();
      const NodeId c_dst = best.dst();
      int src_digit = DigitOf(c_src);
      int dst_digit = DigitOf(c_dst);
      const int new_nodes = (src_digit < 0 ? 1 : 0) + (dst_digit < 0 ? 1 : 0);
      last_candidate = window_induced_ && new_nodes == 0;
      if (num_nodes_ + new_nodes > opt_.max_nodes) continue;

      if (opt_.cdg_restriction && (prev_src != c_src || prev_dst != c_dst) &&
          graph_.HasAdjacentEdgeEventInRange(c, t_prev, tc)) {
        continue;  // Another event on (c_src, c_dst) inside [t1, t2].
      }

      if (opt_.consecutive_events_restriction) {
        // Each endpoint digit's run matched c this round (c is incident to
        // it), so cur[digit] sits one past c and the node's largest
        // incident index below c is the entry two back — an O(1) read
        // replaces the binary-searched HasIncidentInIndexRange.
        bool violated = false;
        for (const int digit : {src_digit, dst_digit}) {
          if (digit < 0) continue;
          const std::size_t s = static_cast<std::size_t>(digit);
          const auto begin = graph_.incident(nodes_[s]).begin();
          if (cur[s] - begin >= 2) {
            const EventIndex pred = *(cur[s] - 2);
            if (pred > last_[s]) {
              violated = true;
              break;
            }
          }
        }
        if (violated) continue;
      }

      if (static_induced_) {
        // Static-inducedness fast path: the instance passes iff its
        // distinct digit pairs equal the scope's static edge count. The
        // distinct count and scope bounds reject most candidates before
        // any graph lookup; the one lookup left (a new node's edges into
        // the scope) is cached across the call.
        const int nd = src_digit < 0 ? num_nodes_
                                     : (dst_digit < 0 ? num_nodes_ : -1);
        const int sd = src_digit < 0 ? nd : src_digit;
        const int dd = dst_digit < 0 ? nd : dst_digit;
        const std::uint64_t code = packed_ | PackPair(sd, dd, depth);
        const int distinct = PackedDistinctPairCount(code, opt_.num_events);
        if (new_nodes == 0) {
          if (distinct != scope_static_edges_) continue;
        } else {
          // The new node contributes at least its own event edge and at
          // most 2 * num_nodes_ scope edges.
          const int needed = distinct - scope_static_edges_;
          if (needed < 1 || needed > 2 * num_nodes_) continue;
          const NodeId w = src_digit < 0 ? c_src : c_dst;
          if (w != cached_new_node) {
            cached_new_node = w;
            cached_new_delta = StaticEdgesToScope(w, num_nodes_);
          }
          if (needed != cached_new_delta) continue;
          // Scratch slot for the sink's node array (dead past num_nodes_;
          // real digit assignments always re-stamp their generation).
          nodes_[static_cast<std::size_t>(nd)] = w;
        }
        chosen_[static_cast<std::size_t>(depth)] = c;
        EmitUnchecked(code, num_nodes_ + new_nodes);
        continue;
      }

      // The instance is complete: emit without touching the undo
      // bookkeeping (nodes_ scratch slots past num_nodes_ are dead).
      int effective_nodes = num_nodes_;
      if (src_digit < 0) {
        src_digit = effective_nodes;
        nodes_[static_cast<std::size_t>(effective_nodes)] = c_src;
        digit_gen_[static_cast<std::size_t>(effective_nodes++)] =
            ++gen_counter_;
      }
      if (dst_digit < 0) {
        dst_digit = effective_nodes;
        nodes_[static_cast<std::size_t>(effective_nodes)] = c_dst;
        digit_gen_[static_cast<std::size_t>(effective_nodes++)] =
            ++gen_counter_;
      }
      chosen_[static_cast<std::size_t>(depth)] = c;
      Emit(packed_ | PackPair(src_digit, dst_digit, depth), effective_nodes);
    }
  }

  /// Extends the partial instance at a non-final depth.
  void Extend(int depth, int inherited) {
    if (depth + 1 == opt_.num_events) {
      ExtendFinal(depth, inherited);
      return;
    }
    const EventIndex prev_idx = chosen_[static_cast<std::size_t>(depth - 1)];
    const NodeId prev_src = graph_.event_src(prev_idx);
    const NodeId prev_dst = graph_.event_dst(prev_idx);
    const Timestamp t_prev = graph_.event_time(prev_idx);
    const Timestamp upper = ExtensionUpperBound(prev_idx, t_prev);
    if (upper <= t_prev) return;

    // Candidate extensions are events strictly later than the previous
    // event and incident to the current node set. Each per-node incident
    // run is already sorted, so instead of gathering + sort + unique, the
    // runs are merged k-way in place from just past the previous event's
    // index (duplicates collapse by advancing every run that fronts the
    // same index). Merged candidates arrive in ascending index — hence
    // ascending time — order, so the time window needs no binary searches:
    // leading prev-time ties are skipped and the merge stops at the first
    // candidate past `upper`.
    const int frontier = num_nodes_;
    auto& cur = cursors_[static_cast<std::size_t>(depth)];
    auto& end = cursor_ends_[static_cast<std::size_t>(depth)];
    for (int d = 0; d < frontier; ++d) {
      const std::size_t s = static_cast<std::size_t>(d);
      if (d < inherited) {
        cur[s] = cursors_[static_cast<std::size_t>(depth - 1)][s];
        end[s] = cursor_ends_[static_cast<std::size_t>(depth - 1)][s];
      } else {
        cur[s] = graph_.IncidentUpperBound(nodes_[s], prev_idx);
        end[s] = graph_.incident(nodes_[s]).end();
      }
    }

    constexpr EventIndex kDone = std::numeric_limits<EventIndex>::max();
    bool last_candidate = false;
    while (!last_candidate) {
      EventIndex c = kDone;
      unsigned match = 0;
      IncidentIter best{};
      for (int d = 0; d < frontier; ++d) {
        const std::size_t s = static_cast<std::size_t>(d);
        if (cur[s] == end[s]) continue;
        const EventIndex v = *cur[s];
        if (v < c) {
          c = v;
          match = 1u << d;
          best = cur[s];
        } else if (v == c) {
          match |= 1u << d;
        }
      }
      if (c == kDone) break;
      for (int d = 0; match != 0; ++d, match >>= 1) {
        if (match & 1u) ++cur[static_cast<std::size_t>(d)];
      }

      const Timestamp tc = best.time();
      if (tc <= t_prev) {
        // c sits in the previous event's timestamp-tie group (index order
        // implies tc == t_prev here). The whole group is inadmissible and
        // contiguous in index, so jump every cursor past it with one
        // bounded binary search instead of draining it one merge round at
        // a time — tie-free data never reaches this branch.
        const EventIndex lo = graph_.UpperBoundTime(t_prev);
        for (int d = 0; d < frontier; ++d) {
          const std::size_t s = static_cast<std::size_t>(d);
          cur[s] = std::lower_bound(cur[s], end[s], lo);
        }
        continue;
      }
      if (tc > upper) break;  // Sorted by time: no more candidates.
      const NodeId c_src = best.src();
      const NodeId c_dst = best.dst();
      int src_digit = DigitOf(c_src);
      int dst_digit = DigitOf(c_dst);
      const int new_nodes = (src_digit < 0 ? 1 : 0) + (dst_digit < 0 ? 1 : 0);
      // Temporal-window early stop: a candidate among the scope nodes lies
      // in the window of every later candidate (and of its own timestamp
      // ties) without being chosen there, so whether or not it is admitted
      // itself, the merge ends with it.
      last_candidate = window_induced_ && new_nodes == 0;
      // Candidates are incident to the node set, so at most one endpoint is
      // new; the node cap is the only remaining node constraint.
      if (num_nodes_ + new_nodes > opt_.max_nodes) continue;

      if (opt_.cdg_restriction && (prev_src != c_src || prev_dst != c_dst) &&
          graph_.HasAdjacentEdgeEventInRange(c, t_prev, tc)) {
        continue;  // Another event on (c_src, c_dst) inside [t1, t2].
      }

      if (opt_.consecutive_events_restriction) {
        // Each endpoint digit's run matched c this round (c is incident to
        // it), so cur[digit] sits one past c and the node's largest
        // incident index below c is the entry two back — an O(1) read
        // replaces the binary-searched HasIncidentInIndexRange.
        bool violated = false;
        for (const int digit : {src_digit, dst_digit}) {
          if (digit < 0) continue;
          const std::size_t s = static_cast<std::size_t>(digit);
          const auto begin = graph_.incident(nodes_[s]).begin();
          if (cur[s] - begin >= 2) {
            const EventIndex pred = *(cur[s] - 2);
            if (pred > last_[s]) {
              violated = true;
              break;
            }
          }
        }
        if (violated) continue;
      }

      // Apply the extension.
      const int saved_num_nodes = num_nodes_;
      const int saved_scope_edges = scope_static_edges_;
      if (src_digit < 0) {
        if (static_induced_) {
          scope_static_edges_ += StaticEdgesToScope(c_src, num_nodes_);
        }
        src_digit = num_nodes_;
        nodes_[static_cast<std::size_t>(num_nodes_)] = c_src;
        last_[static_cast<std::size_t>(num_nodes_)] = c;
        digit_gen_[static_cast<std::size_t>(num_nodes_)] = ++gen_counter_;
        ++num_nodes_;
      }
      if (dst_digit < 0) {
        if (static_induced_) {
          scope_static_edges_ += StaticEdgesToScope(c_dst, num_nodes_);
        }
        dst_digit = num_nodes_;
        nodes_[static_cast<std::size_t>(num_nodes_)] = c_dst;
        last_[static_cast<std::size_t>(num_nodes_)] = c;
        digit_gen_[static_cast<std::size_t>(num_nodes_)] = ++gen_counter_;
        ++num_nodes_;
      }
      const EventIndex saved_src_last =
          last_[static_cast<std::size_t>(src_digit)];
      const EventIndex saved_dst_last =
          last_[static_cast<std::size_t>(dst_digit)];
      last_[static_cast<std::size_t>(src_digit)] = c;
      last_[static_cast<std::size_t>(dst_digit)] = c;
      chosen_[static_cast<std::size_t>(depth)] = c;
      packed_ |= PackPair(src_digit, dst_digit, depth);

      // Inducedness prefix prunes; a prefix that fails has no passing
      // completion, so the whole subtree is skipped before recursing.
      // Static: a passing instance must cover every scope static edge with
      // a distinct event pair, each remaining event covers at most one, and
      // introducing a node never shrinks the deficit (the node brings >= 1
      // scope edge but its event only one new pair), so the uncovered-edge
      // deficit may not exceed the remaining event budget. Temporal-window:
      // the predicate is prefix-closed (see WindowInduced).
      const bool prefix_viable =
          static_induced_
              ? scope_static_edges_ -
                        PackedDistinctPairCount(packed_, depth + 1) <=
                    opt_.num_events - (depth + 1)
              : !window_induced_ || WindowInduced(depth + 1, num_nodes_, tc);
      if (prefix_viable) {
        Extend(depth + 1, /*inherited=*/frontier);
      }

      // Undo.
      packed_ &= ~(std::uint64_t{0xFF} << (8 * depth));
      last_[static_cast<std::size_t>(src_digit)] = saved_src_last;
      last_[static_cast<std::size_t>(dst_digit)] = saved_dst_last;
      num_nodes_ = saved_num_nodes;
      scope_static_edges_ = saved_scope_edges;
    }
  }

  const Graph& graph_;
  const EnumerationOptions& opt_;
  Sink& sink_;
  // Timing knobs hoisted out of the candidate loop.
  const bool use_dc_;
  const bool use_dw_;
  const bool static_induced_;
  const bool window_induced_;
  /// Both inducedness predicates take the scope-saturated edge-run final
  /// path (SaturatedFinal).
  const bool saturated_final_;
  /// Saturated-final runs may be absorbed whole (see SaturatedFinal): no
  /// per-candidate order predicate to respect.
  const bool batch_saturated_;
  const Timestamp dc_;
  const Timestamp dw_;
  std::uint64_t count_ = 0;
  /// Under static inducedness: number of static edges (both orientations)
  /// among the current scope nodes — maintained incrementally as nodes join
  /// and leave, so the per-emit check is a pure packed-code byte scan.
  int scope_static_edges_ = 0;

  std::array<EventIndex, kMaxCoreEvents> chosen_{};
  std::array<NodeId, kMaxCoreNodes> nodes_{};     // Digit -> node id.
  std::array<EventIndex, kMaxCoreNodes> last_{};  // Digit -> last motif idx.
  /// Digit -> generation of its current node assignment (globally unique,
  /// monotone; 0 means never assigned). Keys the pair memo.
  std::array<std::uint64_t, kMaxCoreNodes> digit_gen_{};
  std::uint64_t gen_counter_ = 0;
  /// Ordered-digit-pair FindEdge memo (see MemoFor).
  std::array<std::array<PairMemo, kMaxCoreNodes>, kMaxCoreNodes> pair_memo_{};
  int num_nodes_ = 0;
  std::uint64_t packed_ = 0;
  // Per-depth k-way-merge cursors over the frontier's incident runs.
  std::array<std::array<IncidentIter, kMaxCoreNodes>, kMaxCoreEvents>
      cursors_{};
  std::array<std::array<IncidentIter, kMaxCoreNodes>, kMaxCoreEvents>
      cursor_ends_{};
};

/// Runs the DFS over instances whose first event lies in
/// [first_begin, first_end); returns the number of instances emitted.
/// Callers must validate options and clamp the range.
template <typename Graph, typename Sink>
std::uint64_t EnumerateCore(const Graph& graph,
                            const EnumerationOptions& options,
                            EventIndex first_begin, EventIndex first_end,
                            Sink& sink) {
  DfsEngine<Graph, Sink> engine(graph, options, sink);
  return engine.Run(first_begin, first_end);
}

/// Sink that only counts (CountInstances, CountInstancesInRange). The
/// EmitBatch no-op opts it into the saturated-run batch path — the engine
/// already advances its own instance counter by the run length.
struct CountOnlySink {
  void Emit(const EventIndex*, int, std::uint64_t, const NodeId*, int) {}
  void EmitBatch(std::uint64_t, std::uint64_t) {}
};

/// Sink adapting a lambda `fn(chosen, num_events, packed)` (the common
/// counting shape; the node identity is dropped).
template <typename Fn>
struct FnSink {
  Fn fn;
  void Emit(const EventIndex* chosen, int num_events, std::uint64_t packed,
            const NodeId*, int) {
    fn(chosen, num_events, packed);
  }
};

template <typename Fn>
FnSink<Fn> MakeFnSink(Fn fn) {
  return FnSink<Fn>{std::move(fn)};
}

}  // namespace internal
}  // namespace tmotif

#endif  // TMOTIF_CORE_ENUMERATE_CORE_H_
