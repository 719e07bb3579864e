// tmotif_count: command-line temporal motif counter.
//
// Counts k-event temporal motifs in a whitespace-separated edge list
// ("src dst time [duration [label]]" per line) under any of the four
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
#include "core/models/model_info.h"
#include "core/parallel.h"
#include "core/simd/dispatch.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "obs/export.h"

namespace tmotif {
namespace {

struct CliArgs {
  std::string input;
  std::string model = "custom";  // kovanen|song|hulovatyy|paranjape|custom.
  int k = 3;
  int max_nodes = 0;  // 0 = k.
  long long dc = -1;
  long long dw = -1;
  std::string induced = "none";  // none|static|window.
  bool cdg = false;
  bool consecutive = false;
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
      "  --dc=SECONDS     consecutive-gap bound\n"
      "  --dw=SECONDS     whole-motif window bound\n"
      "  --induced=KIND   none|static|window (custom model only)\n"
      "  --cdg            constrained-dynamic-graphlet restriction\n"
      "  --consecutive    Kovanen consecutive-events restriction\n"
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
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(a, prefix, n) == 0 ? a + n : nullptr;
    };
    bool valid = true;  // False when a numeric flag's value does not parse.
    if (const char* v = value("--input=")) args->input = v;
    else if (const char* v = value("--model=")) args->model = v;
    else if (const char* v = value("--k=")) valid = ParseInt(v, &args->k);
    else if (const char* v = value("--max-nodes=")) valid = ParseInt(v, &args->max_nodes);
    else if (const char* v = value("--dc=")) valid = ParseInt(v, &args->dc);
    else if (const char* v = value("--dw=")) valid = ParseInt(v, &args->dw);
    else if (const char* v = value("--induced=")) args->induced = v;
    else if (std::strcmp(a, "--cdg") == 0) args->cdg = true;
    else if (std::strcmp(a, "--consecutive") == 0) args->consecutive = true;
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
  if (args->k < 1 || args->k > 8) {
    std::fprintf(stderr, "--k must be in [1, 8]\n");
    return false;
  }
  if (args->max_nodes != 0 &&
      (args->max_nodes < 2 || args->max_nodes > args->k + 1)) {
    std::fprintf(stderr, "--max-nodes must be in [2, k+1]\n");
    return false;
  }
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

bool BuildOptions(const CliArgs& args, EnumerationOptions* options) {
  const int max_nodes = args.max_nodes > 0 ? args.max_nodes : args.k;
  if (args.model != "custom") {
    ModelId model;
    if (args.model == "kovanen") model = ModelId::kKovanen;
    else if (args.model == "song") model = ModelId::kSong;
    else if (args.model == "hulovatyy") model = ModelId::kHulovatyy;
    else if (args.model == "paranjape") model = ModelId::kParanjape;
    else {
      std::fprintf(stderr, "unknown model: %s\n", args.model.c_str());
      return false;
    }
    const ModelAspects aspects = GetModelAspects(model);
    if (aspects.uses_delta_c && args.dc < 0) {
      std::fprintf(stderr, "%s requires --dc\n", aspects.name);
      return false;
    }
    if (aspects.uses_delta_w && args.dw < 0) {
      std::fprintf(stderr, "%s requires --dw\n", aspects.name);
      return false;
    }
    *options = OptionsForModel(model, args.k, max_nodes,
                               std::max<long long>(args.dc, 0),
                               std::max<long long>(args.dw, 0));
    return true;
  }
  options->num_events = args.k;
  options->max_nodes = max_nodes;
  if (args.dc >= 0) options->timing.delta_c = args.dc;
  if (args.dw >= 0) options->timing.delta_w = args.dw;
  options->cdg_restriction = args.cdg;
  options->consecutive_events_restriction = args.consecutive;
  if (args.induced == "none") {
    options->inducedness = Inducedness::kNone;
  } else if (args.induced == "static") {
    options->inducedness = Inducedness::kStatic;
  } else if (args.induced == "window") {
    options->inducedness = Inducedness::kTemporalWindow;
  } else {
    std::fprintf(stderr, "unknown --induced kind: %s\n",
                 args.induced.c_str());
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
  if (!BuildOptions(args, &options)) return 2;

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
    if (!csv.ok()) {
      std::fprintf(stderr, "cannot write %s\n", args.csv_out.c_str());
      return 1;
    }
    csv.WriteRow({"motif", "count"});
    for (const auto& [code, count] : counts.SortedByCount()) {
      csv.WriteRow({code, std::to_string(count)});
    }
    std::printf("\nfull counts written to %s\n", args.csv_out.c_str());
  }

  if (!args.metrics_out.empty()) {
    // The human-readable twin of the counting.simd_dispatch_level gauge in
    // the snapshot; stderr so "-" stdout dumps stay machine-parseable.
    std::fprintf(stderr, "counting kernels: %s dispatch\n",
                 simd::DispatchLevelName(simd::ActiveDispatchLevel()));
    const std::string text =
        obs::ToPrometheusText(obs::GlobalMetrics().Snapshot());
    std::FILE* out = args.metrics_out == "-"
                         ? stdout
                         : std::fopen(args.metrics_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_out.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), out);
    if (out != stdout) std::fclose(out);
  }
  return 0;
}

}  // namespace
}  // namespace tmotif

int main(int argc, char** argv) { return tmotif::Main(argc, argv); }
