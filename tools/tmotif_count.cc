// tmotif_count: command-line temporal motif counter.
//
// Counts k-event temporal motifs in a whitespace-separated edge list
// ("src dst time [duration]" per line) under any of the four
// published models or a custom configuration.
//
//   tmotif_count --input=events.txt --model=paranjape --k=3 --dw=3600
//   tmotif_count --input=events.txt --model=kovanen --k=3 --dc=1500
//   tmotif_count --input=events.txt --k=3 --dc=2000 --dw=3000
//                --induced=static --cdg --top=20 --threads=4   (one line)
//
// Prints a ranked count table and optionally writes a CSV.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/report.h"
#include "common/csv.h"
#include "common/parse_int.h"
#include "core/counter.h"
#include "core/parallel.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "obs/export.h"
#include "model_flags.h"

namespace tmotif {
namespace {

struct CliArgs {
  std::string input;
  ModelFlags model;
  int top = 25;
  int threads = 1;
  std::string csv_out;
  bool compact_ids = true;
  std::string metrics_out;  // Empty = no metrics dump.
};

void Usage(const char* argv0, std::FILE* out = stderr) {
  std::fprintf(
      out,
      "usage: %s --input=FILE [options]\n"
      "  --model=NAME     kovanen|song|hulovatyy|paranjape|custom "
      "(default custom)\n"
      "  --k=N            events per motif (default 3)\n"
      "  --max-nodes=N    node cap (default k)\n"
      "  --dc=SECONDS     consecutive-gap bound (custom, kovanen, hulovatyy)\n"
      "  --dw=SECONDS     whole-motif window bound (custom, song, paranjape)\n"
      "  --induced=KIND   none|static|window (custom model only)\n"
      "  --cdg            constrained-dynamic-graphlet restriction (custom "
      "only)\n"
      "  --consecutive    Kovanen consecutive-events restriction (custom "
      "only)\n"
      "  --top=N          rows to print (default 25, 0 = all)\n"
      "  --threads=N      split DFS counting over event ranges (default 1,\n"
      "                   at most 256; k <= 3 fast-path configs count\n"
      "                   serially)\n"
      "  --csv=FILE       also write full counts as CSV\n"
      "  --raw-ids        node ids are already dense (skip remapping); ids\n"
      "                   must be < 2147483647 and memory grows with the\n"
      "                   largest id\n"
      "  --metrics-out=FILE  dump a Prometheus-text metrics snapshot at "
      "exit ('-' = stdout)\n",
      argv0);
}

bool Parse(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto value = [&](const char* prefix) { return FlagValue(a, prefix); };
    bool valid = true;  // False when a numeric flag's value does not parse.
    if (const char* v = value("--input=")) args->input = v;
    else if (ParseModelFlag(a, &args->model, &valid)) {
      // A motif-model flag (model_flags.h).
    }
    else if (const char* v = value("--top=")) valid = ParseInt(v, &args->top);
    else if (const char* v = value("--threads=")) valid = ParseInt(v, &args->threads);
    else if (const char* v = value("--csv=")) args->csv_out = v;
    else if (std::strcmp(a, "--raw-ids") == 0) args->compact_ids = false;
    else if (const char* v = value("--metrics-out=")) args->metrics_out = v;
    else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      Usage(argv[0], stdout);
      std::exit(0);
    }
    else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return false;
    }
    if (!valid) {
      std::fprintf(stderr, "invalid value for %.*s\n",
                   static_cast<int>(std::strcspn(a, "=")), a);
      return false;
    }
  }
  if (args->input.empty()) {
    std::fprintf(stderr, "--input is required\n");
    return false;
  }
  if (!ValidateModelFlags(args->model)) return false;
  if (args->top < 0) {
    std::fprintf(stderr, "--top must be >= 0\n");
    return false;
  }
  if (args->threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return false;
  }
  if (args->threads > internal::kMaxThreads) {
    std::fprintf(stderr, "--threads must be <= %d\n", internal::kMaxThreads);
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  CliArgs args;
  if (!Parse(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  EnumerationOptions options;
  if (!BuildModelOptions(args.model, &options)) return 2;

  EdgeListOptions load_options;
  load_options.compact_node_ids = args.compact_ids;
  std::string load_error;
  const auto loaded = LoadEdgeList(args.input, load_options, &load_error);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "cannot read %s\n", load_error.c_str());
    return 1;
  }
  for (const EdgeListError& e : loaded->errors) {
    std::fprintf(stderr, "warning: %s:%zu: %s\n", args.input.c_str(), e.line,
                 e.message.c_str());
  }
  if (loaded->num_bad_lines > loaded->errors.size()) {
    std::fprintf(stderr, "warning: ... and %zu more malformed lines\n",
                 loaded->num_bad_lines - loaded->errors.size());
  }
  if (loaded->num_bad_lines > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed lines\n",
                 loaded->num_bad_lines);
  }
  const TemporalGraph& graph = loaded->graph;
  const GraphStats stats = ComputeStats(graph);
  std::printf("%s: %lld nodes, %lld events, %lld static edges, median "
              "inter-event gap %.0fs\n",
              args.input.c_str(), static_cast<long long>(stats.num_nodes),
              static_cast<long long>(stats.num_events),
              static_cast<long long>(stats.num_static_edges),
              stats.median_inter_event_time);
  std::printf("config: %d-event motifs, <=%d nodes, %s%s%s%s\n\n",
              options.num_events, options.max_nodes,
              options.timing.ToString().c_str(),
              options.consecutive_events_restriction ? ", consecutive" : "",
              options.cdg_restriction ? ", cdg" : "",
              options.inducedness == Inducedness::kNone
                  ? ""
                  : (options.inducedness == Inducedness::kStatic
                         ? ", static-induced"
                         : ", window-induced"));

  const MotifCounts counts = CountMotifs(graph, options, args.threads);
  std::printf("%llu instances across %zu motif types\n\n",
              static_cast<unsigned long long>(counts.total()),
              counts.num_codes());
  std::printf("%s",
              RenderMotifCounts(counts,
                                args.top <= 0
                                    ? 0
                                    : static_cast<std::size_t>(args.top))
                  .c_str());

  if (!args.csv_out.empty()) {
    CsvWriter csv(args.csv_out);
    csv.WriteRow({"motif", "count"});
    for (const auto& [code, count] : counts.SortedByCount()) {
      csv.WriteRow({code, std::to_string(count)});
    }
    if (!csv.Close()) {
      std::fprintf(stderr, "cannot write %s\n", args.csv_out.c_str());
      return 1;
    }
    std::printf("\nfull counts written to %s\n", args.csv_out.c_str());
  }

  if (!args.metrics_out.empty()) {
    const std::string text =
        obs::ToPrometheusText(obs::GlobalMetrics().Snapshot());
    std::FILE* out = args.metrics_out == "-"
                         ? stdout
                         : std::fopen(args.metrics_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_out.c_str());
      return 1;
    }
    bool written = std::fwrite(text.data(), 1, text.size(), out) ==
                   text.size();
    if (out != stdout) written = std::fclose(out) == 0 && written;
    if (!written) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace tmotif

int main(int argc, char** argv) { return tmotif::Main(argc, argv); }
