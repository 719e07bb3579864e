// bench_diff: compares BENCH_*.json timing records (as written by
// bench_util's WriteBenchResult) against a baseline and prints a trend
// table, so the perf trajectory accumulated across PRs is actually checked
// instead of just uploaded. Exits nonzero when any bench slowed down beyond
// its threshold.
//
//   bench_diff --old=baseline_dir --new=build/bench_out
//   bench_diff --old=... --new=... --threshold=0.5 --min-seconds=0.05
//   bench_diff --old=... --new=... --threshold-for=stream_ingest=0.8
//
// The baseline directory may hold BENCH_*.json records directly (a single
// run) and/or subdirectories each holding one past run's records (a rolling
// history, as maintained by CI). With several runs per bench the gate
// compares against the per-bench *median*, which is robust to one noisy
// run on either side — the reason single-previous-run baselines needed a
// +60% threshold.
//
// --threshold-for=NAME=F overrides the relative-slowdown threshold for one
// bench (repeatable); benches not named use --threshold.
//
// Records without a top-level "seconds" field (e.g. Google Benchmark's own
// JSON from bench_perf_counting) are skipped. Benches present on only one
// side are reported but never fail the run (benches come and go across
// PRs).
//
// Besides "seconds", a fixed set of gated fields (see kGatedFields) is
// pulled out of specific records and compared as its own "bench.field" row
// with a per-field direction. Throughput fields (instances/s) are
// higher-is-better: the row regresses when the new value drops below
// median / (1 + threshold). Ratio fields like bench_obs_overhead's
// instrumented/compiled-out overhead ratios are lower-is-better, gated
// like seconds but formatted unitless. This is how the per-preset and
// fast-path instances/s fields of counting_throughput and the telemetry
// overhead ratios are gated instead of just recorded.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/text_table.h"

namespace tmotif {
namespace {

namespace fs = std::filesystem;

struct CliArgs {
  std::string old_dir;
  std::string new_dir;
  /// Allowed relative slowdown: fail when new > baseline * (1 + threshold).
  double threshold = 0.25;
  /// Records faster than this on either side are too noisy to gate on.
  double min_seconds = 0.01;
  /// Per-bench threshold overrides (--threshold-for=NAME=F).
  std::map<std::string, double> threshold_overrides;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --old=DIR --new=DIR [--threshold=F] "
               "[--min-seconds=F] [--threshold-for=NAME=F ...]\n",
               argv0);
}

bool Parse(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(a, prefix, n) == 0 ? a + n : nullptr;
    };
    if (const char* v = value("--old=")) args->old_dir = v;
    else if (const char* v = value("--new=")) args->new_dir = v;
    else if (const char* v = value("--threshold=")) args->threshold = std::atof(v);
    else if (const char* v = value("--min-seconds=")) args->min_seconds = std::atof(v);
    else if (const char* v = value("--threshold-for=")) {
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v) {
        std::fprintf(stderr, "--threshold-for expects NAME=F, got: %s\n", v);
        return false;
      }
      args->threshold_overrides[std::string(v, eq)] = std::atof(eq + 1);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return false;
    }
  }
  if (args->old_dir.empty() || args->new_dir.empty()) {
    std::fprintf(stderr, "--old and --new are required\n");
    return false;
  }
  if (args->threshold < 0) {
    std::fprintf(stderr, "--threshold must be >= 0\n");
    return false;
  }
  for (const auto& [bench, threshold] : args->threshold_overrides) {
    if (threshold < 0) {
      std::fprintf(stderr, "--threshold-for=%s must be >= 0\n",
                   bench.c_str());
      return false;
    }
  }
  return true;
}

/// Extracts the number following `"key":` from a flat JSON record; nullopt
/// when the key is absent. Good enough for the records we write ourselves.
std::optional<double> ExtractNumber(const std::string& json,
                                    const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = json.find(':', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  ++pos;
  while (pos < json.size() && std::isspace(static_cast<unsigned char>(json[pos]))) {
    ++pos;
  }
  char* parse_end = nullptr;
  const double parsed = std::strtod(json.c_str() + pos, &parse_end);
  if (parse_end == json.c_str() + pos) return std::nullopt;
  return parsed;
}

/// Gated fields: each (bench, field) pair becomes its own "bench.field"
/// record when the field is present in the bench's JSON. Absent fields are
/// skipped, so baselines written before a field existed coexist with newer
/// runs (one-sided rows never fail the gate). `higher_is_better` picks the
/// regression direction: true for throughputs, false for overhead ratios.
struct GatedField {
  const char* bench;
  const char* field;
  bool higher_is_better;
};
constexpr GatedField kGatedFields[] = {
    {"counting_throughput", "instances_per_sec", true},
    {"counting_throughput", "kovanen_instances_per_sec", true},
    {"counting_throughput", "song_instances_per_sec", true},
    {"counting_throughput", "hulovatyy_instances_per_sec", true},
    {"counting_throughput", "paranjape_instances_per_sec", true},
    {"counting_throughput", "fastpath_song_instances_per_sec", true},
    {"counting_throughput", "fastpath_vanilla_2node_instances_per_sec",
     true},
    {"counting_throughput", "window_induced_instances_per_sec", true},
    {"obs_overhead", "counting_overhead_ratio", false},
    {"obs_overhead", "ingest_overhead_ratio", false},
    {"checkpoint", "checkpoint_write_mbps", true},
    {"checkpoint", "checkpoint_restore_mbps", true},
    {"checkpoint", "degraded_ingest_ratio", true},
    // Vectorized-kernel microbench: best-ISA over scalar per kernel. A
    // change that quietly devectorizes a kernel shows up as a speedup
    // collapse, a regression even though wall seconds barely move.
    {"kernel_micro", "probe_speedup", true},
    {"kernel_micro", "distinct_speedup", true},
    {"kernel_micro", "prefilter_speedup", true},
};

/// True when a record name is a gated-field row ("bench.field") rather
/// than a seconds row; gated rows are formatted unitless and exempt from
/// the min-seconds noise gate.
bool IsGatedFieldRecord(const std::string& name) {
  return name.find('.') != std::string::npos;
}

/// Regression direction of a record. Seconds rows and lower-is-better
/// gated rows regress upward; throughput rows regress downward.
bool IsHigherBetter(const std::string& name) {
  for (const GatedField& gated : kGatedFields) {
    if (name == std::string(gated.bench) + "." + gated.field) {
      return gated.higher_is_better;
    }
  }
  return false;
}

/// BENCH_<name>.json -> seconds, for every parsable record directly in
/// `dir` (subdirectories are NOT descended into here), plus one
/// "bench.field" entry per present gated throughput field.
std::map<std::string, double> LoadRecords(const std::string& dir) {
  std::map<std::string, double> records;
  if (!fs::is_directory(dir)) return records;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json" || !entry.is_regular_file()) {
      continue;
    }
    std::ifstream file(entry.path());
    std::stringstream content;
    content << file.rdbuf();
    const std::optional<double> seconds =
        ExtractNumber(content.str(), "seconds");
    if (!seconds.has_value()) continue;  // Foreign format (Google Benchmark).
    const std::string bench =
        name.substr(6, name.size() - 6 - std::strlen(".json"));
    records[bench] = *seconds;
    for (const GatedField& gated : kGatedFields) {
      if (bench != gated.bench) continue;
      const std::optional<double> value =
          ExtractNumber(content.str(), gated.field);
      if (value.has_value()) {
        records[bench + "." + gated.field] = *value;
      }
    }
  }
  return records;
}

/// Per-bench samples across every run found under `dir`: flat records are
/// one run, and each immediate subdirectory holding records is another.
std::map<std::string, std::vector<double>> LoadBaselineRuns(
    const std::string& dir) {
  std::map<std::string, std::vector<double>> samples;
  const auto absorb = [&](const std::map<std::string, double>& run) {
    for (const auto& [bench, seconds] : run) {
      samples[bench].push_back(seconds);
    }
  };
  absorb(LoadRecords(dir));
  if (fs::is_directory(dir)) {
    // Sorted for deterministic output regardless of directory order.
    std::vector<fs::path> subdirs;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.is_directory()) subdirs.push_back(entry.path());
    }
    std::sort(subdirs.begin(), subdirs.end());
    for (const fs::path& sub : subdirs) absorb(LoadRecords(sub.string()));
  }
  return samples;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int Main(int argc, char** argv) {
  CliArgs args;
  if (!Parse(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  const std::map<std::string, std::vector<double>> baseline_runs =
      LoadBaselineRuns(args.old_dir);
  const std::map<std::string, double> new_records = LoadRecords(args.new_dir);
  if (baseline_runs.empty()) {
    std::fprintf(stderr, "no usable BENCH_*.json records under %s\n",
                 args.old_dir.c_str());
    return 2;
  }
  if (new_records.empty()) {
    std::fprintf(stderr, "no usable BENCH_*.json records under %s\n",
                 args.new_dir.c_str());
    return 2;
  }

  TextTable table({"Bench", "Baseline", "Runs", "New", "Delta", "Status"});
  int regressions = 0;
  std::map<std::string, bool> all;
  for (const auto& [bench, runs] : baseline_runs) {
    (void)runs;
    all[bench] = true;
  }
  for (const auto& [bench, seconds] : new_records) {
    (void)seconds;
    all[bench] = true;
  }
  for (const auto& [bench, unused] : all) {
    (void)unused;
    const auto old_it = baseline_runs.find(bench);
    const auto new_it = new_records.find(bench);
    // Gated-field rows ("bench.field") are unitless values, not seconds:
    // formatted without the unit and regressed in their field's direction
    // (throughputs invert, overhead ratios don't). The min-seconds noise
    // gate does not apply to them (their parent bench's wall time already
    // decides whether the run was real).
    const bool gated_row = IsGatedFieldRecord(bench);
    const bool higher_better = gated_row && IsHigherBetter(bench);
    const auto format_value = [&](char* buf, std::size_t size, double v) {
      if (gated_row) {
        std::snprintf(buf, size, "%.3g", v);
      } else {
        std::snprintf(buf, size, "%.3fs", v);
      }
    };
    char old_cell[32] = "-";
    char runs_cell[16] = "-";
    char new_cell[32] = "-";
    char delta_cell[32] = "-";
    const char* status = "ok";
    if (old_it == baseline_runs.end()) {
      format_value(new_cell, sizeof(new_cell), new_it->second);
      status = "new";
    } else if (new_it == new_records.end()) {
      format_value(old_cell, sizeof(old_cell), Median(old_it->second));
      std::snprintf(runs_cell, sizeof(runs_cell), "%zu",
                    old_it->second.size());
      status = "removed";
    } else {
      const double old_s = Median(old_it->second);
      const double new_s = new_it->second;
      format_value(old_cell, sizeof(old_cell), old_s);
      std::snprintf(runs_cell, sizeof(runs_cell), "%zu",
                    old_it->second.size());
      format_value(new_cell, sizeof(new_cell), new_s);
      if (old_s > 0) {
        std::snprintf(delta_cell, sizeof(delta_cell), "%+.1f%%",
                      100.0 * (new_s - old_s) / old_s);
      }
      const auto override_it = args.threshold_overrides.find(bench);
      const double threshold = override_it != args.threshold_overrides.end()
                                   ? override_it->second
                                   : args.threshold;
      const bool measurable =
          gated_row || old_s >= args.min_seconds || new_s >= args.min_seconds;
      const bool worse = higher_better ? new_s * (1.0 + threshold) < old_s
                                       : new_s > old_s * (1.0 + threshold);
      const bool better = higher_better ? new_s > old_s * (1.0 + threshold)
                                        : old_s > new_s * (1.0 + threshold);
      if (measurable && worse) {
        status = "REGRESSED";
        ++regressions;
      } else if (measurable && better) {
        status = "faster";
      } else if (!measurable) {
        status = "noise";
      }
    }
    table.AddRow()
        .AddCell(bench)
        .AddCell(old_cell)
        .AddCell(runs_cell)
        .AddCell(new_cell)
        .AddCell(delta_cell)
        .AddCell(status);
  }
  std::printf("%s", table.Render().c_str());
  std::printf("\n%zu benches compared (median baseline, threshold +%.0f%%, "
              "%zu override%s, min %.3fs): %d regression%s\n",
              all.size(), 100.0 * args.threshold,
              args.threshold_overrides.size(),
              args.threshold_overrides.size() == 1 ? "" : "s",
              args.min_seconds, regressions, regressions == 1 ? "" : "s");
  return regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace tmotif

int main(int argc, char** argv) { return tmotif::Main(argc, argv); }
