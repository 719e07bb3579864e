#ifndef TMOTIF_TESTING_RANDOM_GRAPHS_H_
#define TMOTIF_TESTING_RANDOM_GRAPHS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "graph/temporal_graph.h"

namespace tmotif {
namespace testing {

/// Shape of a small random temporal graph for differential testing. Unlike
/// the realistic generator (gen/generator.h), these graphs are uniform and
/// tiny on purpose: small enough that the brute-force oracle stays cheap,
/// adversarial enough (duplicate timestamps, repeated edges, optional
/// durations) to exercise the enumerator's tie-breaking and timing edges.
struct RandomGraphSpec {
  int num_nodes = 6;
  int num_events = 16;
  /// Timestamps are drawn uniformly from [0, max_time]. Keeping this within
  /// a small multiple of num_events forces timestamp collisions.
  Timestamp max_time = 48;
  /// Probability that an event reuses an already-drawn timestamp instead of
  /// drawing a fresh one (stresses simultaneous-event handling).
  double prob_duplicate_time = 0.25;
  /// Durations are drawn uniformly from [0, max_duration] (0 = instant
  /// events, the convention of most models).
  Duration max_duration = 0;

  /// "n6 e16 t48 dup0.25 d0" style description for failure messages.
  std::string ToString() const;
};

/// Builds a random graph, deterministic in (seed, spec).
TemporalGraph RandomGraph(std::uint64_t seed, const RandomGraphSpec& spec);

/// Runs `fn(seed, graph)` on `count` random graphs with seeds
/// base_seed, base_seed + 1, ..., base_seed + count - 1.
void ForEachRandomGraph(
    std::uint64_t base_seed, int count, const RandomGraphSpec& spec,
    const std::function<void(std::uint64_t seed, const TemporalGraph& graph)>&
        fn);

}  // namespace testing
}  // namespace tmotif

#endif  // TMOTIF_TESTING_RANDOM_GRAPHS_H_
