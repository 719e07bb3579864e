#include "testing/random_graphs.h"

#include <cstdio>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace tmotif {
namespace testing {

std::string RandomGraphSpec::ToString() const {
  char buf[112];
  std::snprintf(buf, sizeof(buf), "n%d e%d t%lld dup%.2f d%lld", num_nodes,
                num_events, static_cast<long long>(max_time),
                prob_duplicate_time, static_cast<long long>(max_duration));
  return buf;
}

TemporalGraph RandomGraph(std::uint64_t seed, const RandomGraphSpec& spec) {
  TMOTIF_CHECK(spec.num_nodes >= 2);
  TMOTIF_CHECK(spec.num_events >= 0);
  TMOTIF_CHECK(spec.max_time >= 0);
  Rng rng(seed);
  TemporalGraphBuilder builder;
  builder.SetMinNumNodes(spec.num_nodes);
  std::vector<Timestamp> drawn_times;
  drawn_times.reserve(static_cast<std::size_t>(spec.num_events));
  for (int i = 0; i < spec.num_events; ++i) {
    const NodeId src =
        static_cast<NodeId>(rng.UniformU64(static_cast<std::uint64_t>(spec.num_nodes)));
    // Uniform over the other num_nodes - 1 nodes; the builder rejects
    // self-loops, so never draw src == dst.
    NodeId dst = static_cast<NodeId>(
        rng.UniformU64(static_cast<std::uint64_t>(spec.num_nodes - 1)));
    if (dst >= src) ++dst;
    Timestamp time;
    if (!drawn_times.empty() && rng.Bernoulli(spec.prob_duplicate_time)) {
      time = drawn_times[static_cast<std::size_t>(
          rng.UniformU64(drawn_times.size()))];
    } else {
      time = static_cast<Timestamp>(rng.UniformInt(0, spec.max_time));
    }
    drawn_times.push_back(time);
    const Duration duration =
        spec.max_duration > 0
            ? static_cast<Duration>(rng.UniformInt(0, spec.max_duration))
            : 0;
    builder.AddEvent(src, dst, time, duration);
  }
  return builder.Build();
}

void ForEachRandomGraph(
    std::uint64_t base_seed, int count, const RandomGraphSpec& spec,
    const std::function<void(std::uint64_t seed, const TemporalGraph& graph)>&
        fn) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    fn(seed, RandomGraph(seed, spec));
  }
}

}  // namespace testing
}  // namespace tmotif
