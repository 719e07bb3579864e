#include "bench_util.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/report.h"

namespace tmotif {

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      args.scale_multiplier = std::atof(arg + 8);
      if (args.scale_multiplier <= 0.0) {
        std::fprintf(stderr, "--scale must be positive\n");
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      args.seed = static_cast<std::uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      args.out_dir = arg + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale=X] [--seed=N] [--out=DIR]\n", argv[0]);
      std::exit(2);
    }
  }
  return args;
}

double EffectiveScale(DatasetId id, const BenchArgs& args) {
  return DefaultBenchScale(id) * args.scale_multiplier;
}

TemporalGraph LoadBenchDataset(DatasetId id, const BenchArgs& args) {
  return GenerateDataset(id, EffectiveScale(id, args), args.seed);
}

void PrintBenchHeader(const std::string& title, const std::string& paper_ref,
                      const BenchArgs& args) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Datasets: synthetic presets (see src/gen/presets.h), "
              "scale x%.2f, seed %llu\n",
              args.scale_multiplier,
              static_cast<unsigned long long>(args.seed));
  std::printf("================================================================\n\n");
}

void WriteBenchResult(const BenchArgs& args, const std::string& name,
                      double seconds) {
  const std::string path =
      BenchOutputPath(args.out_dir, "BENCH_" + name + ".json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\"bench\": \"%s\", \"scale\": %.4f, \"seed\": %llu, "
               "\"seconds\": %.6f}\n",
               name.c_str(), args.scale_multiplier,
               static_cast<unsigned long long>(args.seed), seconds);
  std::fclose(file);
}

std::vector<DatasetId> MessageDatasets() {
  return {DatasetId::kCollegeMsg, DatasetId::kSmsCopenhagen,
          DatasetId::kSmsA};
}

WallTimer::WallTimer()
    : start_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) {}

double WallTimer::Seconds() const {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<double>(now - start_ns_) * 1e-9;
}

}  // namespace tmotif
