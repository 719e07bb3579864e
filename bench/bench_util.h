#ifndef TMOTIF_BENCH_BENCH_UTIL_H_
#define TMOTIF_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/presets.h"
#include "graph/temporal_graph.h"

namespace tmotif {

/// Command-line arguments shared by every bench binary. All benches run
/// with defaults (no flags needed) and print paper-style rows to stdout.
///   --scale=X   multiply every dataset's default bench scale by X
///   --seed=N    generator seed
///   --out=DIR   CSV output directory (default "bench_out")
struct BenchArgs {
  double scale_multiplier = 1.0;
  std::uint64_t seed = 42;
  std::string out_dir = "bench_out";
};

/// Parses flags; unknown flags abort with a usage message.
BenchArgs ParseBenchArgs(int argc, char** argv);

/// Generates a dataset at its default bench scale times the multiplier.
TemporalGraph LoadBenchDataset(DatasetId id, const BenchArgs& args);

/// Effective scale used by `LoadBenchDataset`.
double EffectiveScale(DatasetId id, const BenchArgs& args);

/// Prints a standard header naming the paper artefact being reproduced.
void PrintBenchHeader(const std::string& title, const std::string& paper_ref,
                      const BenchArgs& args);

/// The message-network subset the paper highlights repeatedly.
std::vector<DatasetId> MessageDatasets();

/// Writes `<out_dir>/BENCH_<name>.json`: one machine-readable record of this
/// run — bench name, effective scale multiplier, seed, and wall seconds
/// (tools/run_benches.sh collects one per bench). Overwrites any previous
/// record.
void WriteBenchResult(const BenchArgs& args, const std::string& name,
                      double seconds);

/// Wall-clock helper for reporting bench runtimes.
class WallTimer {
 public:
  WallTimer();
  /// Seconds since construction.
  double Seconds() const;

 private:
  std::int64_t start_ns_;
};

}  // namespace tmotif

#endif  // TMOTIF_BENCH_BENCH_UTIL_H_
