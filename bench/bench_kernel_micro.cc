// bench_kernel_micro: per-kernel microbenchmarks of the vectorized
// counting core (src/core/simd/). Each of the three kernels — the
// swiss-table probe-group matcher, the packed-code distinct-pair scan, and
// the run-level code pre-filter — is timed on the scalar reference table
// and on the best table the host CPU can dispatch, over workloads shaped
// like the enumerator's real traffic (half-hit probe groups, 8-event
// codes). These are isolated-kernel numbers: a micro speedup does not
// predict the end-to-end effect of a table (see PERFORMANCE.md).
//
// Rows go to stdout; BENCH_kernel_micro.json records
// <kernel>_scalar_ns / <kernel>_best_ns (ns per op, informational) and
// <kernel>_speedup (best-ISA over scalar, gated higher-is-better by
// tools/bench_diff so a change that quietly devectorizes a kernel fails
// CI on SSE4.2 hardware), plus the numeric dispatch level of the timed
// "best" table.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/enumerate_core.h"
#include "core/simd/dispatch.h"
#include "core/simd/kernels.h"

namespace tmotif {
namespace {

#if defined(__GNUC__) || defined(__clang__)
template <typename T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+r"(value) : : "memory");
}
#else
template <typename T>
inline void DoNotOptimize(T& value) {
  volatile T sink = value;
  (void)sink;
}
#endif

/// Best-of-N wall time of `fn()` in seconds (minimum absorbs scheduler
/// hiccups, the same convention as bench_obs_overhead).
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

constexpr int kReps = 7;

// ---------------------------------------------------------------------------
// Workloads. All seeded and identical for both tables, so the scalar and
// vector timings measure the same work (the kernel diff test already pins
// that the *outputs* agree).
// ---------------------------------------------------------------------------

/// Control-byte groups with ~2 tag hits and ~2 empties per 16-slot group:
/// the steady state of a 3/4-full swiss table.
struct ProbeWorkload {
  std::vector<std::uint8_t> groups;  // kGroupSize bytes each.
  std::vector<std::uint8_t> tags;    // One query tag per group.
  int num_groups = 0;
};

ProbeWorkload BuildProbeWorkload(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ProbeWorkload w;
  w.num_groups = 4096;
  w.groups.resize(static_cast<std::size_t>(w.num_groups) * simd::kGroupSize);
  w.tags.resize(static_cast<std::size_t>(w.num_groups));
  std::uniform_int_distribution<int> tag_dist(0, 0x7F);
  std::uniform_int_distribution<int> slot_dist(0, simd::kGroupSize - 1);
  for (int g = 0; g < w.num_groups; ++g) {
    std::uint8_t* group =
        w.groups.data() + static_cast<std::size_t>(g) * simd::kGroupSize;
    for (int i = 0; i < simd::kGroupSize; ++i) {
      group[i] = static_cast<std::uint8_t>(tag_dist(rng));
    }
    group[slot_dist(rng)] = simd::kEmptyCtrl;
    group[slot_dist(rng)] = simd::kEmptyCtrl;
    const std::uint8_t tag = static_cast<std::uint8_t>(tag_dist(rng));
    group[slot_dist(rng)] = tag;
    group[slot_dist(rng)] = tag;
    w.tags[static_cast<std::size_t>(g)] = tag;
  }
  return w;
}

std::uint64_t DrainProbe(const simd::KernelOps* ops, const ProbeWorkload& w,
                         int passes) {
  std::uint64_t checksum = 0;
  for (int p = 0; p < passes; ++p) {
    for (int g = 0; g < w.num_groups; ++g) {
      const std::uint8_t* group =
          w.groups.data() + static_cast<std::size_t>(g) * simd::kGroupSize;
      checksum += ops->match_tags(group, w.tags[static_cast<std::size_t>(g)]);
      checksum += ops->match_empty(group);
    }
  }
  return checksum;
}

/// Realistic 8-event packed codes over a 4-digit alphabet (heavy byte
/// repetition, like real saturated-scope traffic).
std::vector<std::uint64_t> BuildCodes(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> digit(0, 3);
  std::vector<std::uint64_t> codes(static_cast<std::size_t>(n));
  for (std::uint64_t& code : codes) {
    code = 0;
    for (int i = 0; i < internal::kMaxCoreEvents; ++i) {
      int src = digit(rng);
      int dst = digit(rng);
      if (src == 0 && dst == 0) dst = 1;
      code |= internal::PackPair(src, dst, i);
    }
  }
  return codes;
}

std::uint64_t DrainDistinct(const simd::KernelOps* ops,
                            const std::vector<std::uint64_t>& codes,
                            int passes) {
  std::uint64_t checksum = 0;
  for (int p = 0; p < passes; ++p) {
    for (const std::uint64_t code : codes) {
      checksum += static_cast<std::uint64_t>(
          ops->distinct_pair_count(code, internal::kMaxCoreEvents));
    }
  }
  return checksum;
}

std::uint64_t DrainPrefilter(const simd::KernelOps* ops,
                             const std::vector<std::uint64_t>& codes,
                             int passes) {
  // Saturated-scope batch shape: up to 72 pair codes per call.
  constexpr int kBatch = 72;
  std::uint8_t pass_mask[kBatch];
  std::uint64_t checksum = 0;
  const int n = static_cast<int>(codes.size());
  for (int p = 0; p < passes; ++p) {
    for (int base = 0; base < n; base += kBatch) {
      const int len = std::min(kBatch, n - base);
      ops->prefilter_codes(codes.data() + base, len,
                           internal::kMaxCoreEvents, /*want=*/4, pass_mask);
      for (int i = 0; i < len; ++i) checksum += pass_mask[i];
    }
  }
  return checksum;
}

struct KernelRow {
  const char* name;
  double scalar_ns = 0.0;
  double best_ns = 0.0;
  double speedup = 0.0;
};

}  // namespace

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  PrintBenchHeader("Counting-kernel microbenchmarks (scalar vs dispatched)",
                   "perf appendix; runtime was out of scope for the paper",
                   args);

  const simd::KernelOps* scalar = simd::ScalarKernels();
  const simd::KernelOps* best = &simd::Kernels();
  const simd::DispatchLevel level = simd::ActiveDispatchLevel();
  std::printf("dispatched ISA: %s (level %d)\n\n",
              simd::DispatchLevelName(level), static_cast<int>(level));

  WallTimer timer;
  std::vector<KernelRow> rows;

  {
    const ProbeWorkload w = BuildProbeWorkload(args.seed + 1);
    const int passes = 300;
    auto time_table = [&](const simd::KernelOps* ops) {
      return BestSeconds(kReps, [&] {
        std::uint64_t checksum = DrainProbe(ops, w, passes);
        DoNotOptimize(checksum);
      });
    };
    // One match_tags + one match_empty per group per pass.
    const double ops_done =
        2.0 * static_cast<double>(w.num_groups) * passes;
    KernelRow row{"probe", 0, 0, 0};
    row.scalar_ns = time_table(scalar) / ops_done * 1e9;
    row.best_ns = time_table(best) / ops_done * 1e9;
    row.speedup = row.best_ns > 0 ? row.scalar_ns / row.best_ns : 0.0;
    rows.push_back(row);
  }
  const std::vector<std::uint64_t> codes = BuildCodes(args.seed + 2, 4096);
  {
    const int passes = 400;
    auto time_table = [&](const simd::KernelOps* ops) {
      return BestSeconds(kReps, [&] {
        std::uint64_t checksum = DrainDistinct(ops, codes, passes);
        DoNotOptimize(checksum);
      });
    };
    const double ops_done = static_cast<double>(codes.size()) * passes;
    KernelRow row{"distinct", 0, 0, 0};
    row.scalar_ns = time_table(scalar) / ops_done * 1e9;
    row.best_ns = time_table(best) / ops_done * 1e9;
    row.speedup = row.best_ns > 0 ? row.scalar_ns / row.best_ns : 0.0;
    rows.push_back(row);
  }
  {
    const int passes = 400;
    auto time_table = [&](const simd::KernelOps* ops) {
      return BestSeconds(kReps, [&] {
        std::uint64_t checksum = DrainPrefilter(ops, codes, passes);
        DoNotOptimize(checksum);
      });
    };
    const double ops_done = static_cast<double>(codes.size()) * passes;
    KernelRow row{"prefilter", 0, 0, 0};
    row.scalar_ns = time_table(scalar) / ops_done * 1e9;
    row.best_ns = time_table(best) / ops_done * 1e9;
    row.speedup = row.best_ns > 0 ? row.scalar_ns / row.best_ns : 0.0;
    rows.push_back(row);
  }

  std::printf("%-10s %14s %14s %10s\n", "kernel", "scalar ns/op",
              "best ns/op", "speedup");
  std::vector<std::pair<std::string, double>> fields = {
      {"dispatch_level", static_cast<double>(level)}};
  for (const KernelRow& row : rows) {
    std::printf("%-10s %14.3f %14.3f %9.2fx\n", row.name, row.scalar_ns,
                row.best_ns, row.speedup);
    fields.emplace_back(std::string(row.name) + "_scalar_ns", row.scalar_ns);
    fields.emplace_back(std::string(row.name) + "_best_ns", row.best_ns);
    fields.emplace_back(std::string(row.name) + "_speedup", row.speedup);
  }
  WriteBenchResult(args, "kernel_micro", timer.Seconds(), fields);
  return 0;
}

}  // namespace tmotif

int main(int argc, char** argv) { return tmotif::Main(argc, argv); }
