// tmotif_stream: replays a temporal edge list as a time-ordered event
// stream and maintains sliding-window motif counts incrementally
// (stream/streaming_counter.h) instead of recounting per batch.
//
//   tmotif_stream --input=events.txt --model=paranjape --k=3 --dw=3600
//                 --window-events=4096 --batch=256 --report-every=8
//   tmotif_stream --input=events.txt --model=kovanen --k=3 --dc=1500
//                 --window-seconds=86400
//
// Snapshot reports and the final summary go to stdout (deterministic, so
// the golden tests can pin them); wall-clock throughput goes to stderr.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "common/parse_int.h"
#include "core/models/model_info.h"
#include "core/parallel.h"
#include "graph/graph_io.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"
#include "stream/streaming_counter.h"

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
  long long window_events = -1;
  long long window_seconds = -1;
  bool window_events_set = false;
  bool window_seconds_set = false;
  long long lateness = 0;
  int batch = 256;
  int report_every = 0;  // Batches between snapshot reports; 0 = final only.
  int top = 10;
  int threads = 1;
  bool compact_ids = true;
  std::string metrics_out;            // Empty = no metrics dump.
  std::string metrics_format = "prom";  // prom|jsonl.
  int metrics_interval = 0;  // Batches between metric dumps; 0 = final only.
  std::string trace_out;     // Empty = tracing off.
  std::string checkpoint_out;  // Empty = no checkpoints.
  int checkpoint_interval = 0;  // Batches between checkpoints; 0 = final only.
  std::string restore;          // Empty = start fresh.
  long long store_budget = 0;   // Instance-store byte budget; 0 = unlimited.
};

void Usage(const char* argv0, std::FILE* out = stderr) {
  std::fprintf(
      out,
      "usage: %s --input=FILE [options]\n"
      "  --model=NAME        kovanen|song|hulovatyy|paranjape|custom "
      "(default custom)\n"
      "  --k=N               events per motif (default 3)\n"
      "  --max-nodes=N       node cap (default k)\n"
      "  --dc=SECONDS        consecutive-gap bound\n"
      "  --dw=SECONDS        whole-motif window bound\n"
      "  --induced=KIND      none|static|window (custom model only)\n"
      "  --cdg               constrained-dynamic-graphlet restriction\n"
      "  --consecutive       Kovanen consecutive-events restriction\n"
      "  --window-events=N   count-based sliding window capacity\n"
      "  --window-seconds=S  time-based sliding window horizon\n"
      "                      (exactly one; default --window-events=4096)\n"
      "  --lateness=SECONDS  accept out-of-order events up to this far\n"
      "                      behind the stream clock (default 0 = drop)\n"
      "  --batch=N           events per ingested batch (default 256)\n"
      "  --report-every=N    print a snapshot every N batches (0 = final "
      "only)\n"
      "  --top=N             motif rows per report (default 10, 0 = all)\n"
      "  --threads=N         threads for store-off window recounts\n"
      "                      (default 1, at most 256)\n"
      "  --raw-ids           node ids are already dense (skip remapping);\n"
      "                      ids must be < 2147483647 and memory grows\n"
      "                      with the largest id\n"
      "  --metrics-out=FILE  dump a registry snapshot at exit "
      "('-' = stdout)\n"
      "  --metrics-format=F  prom|jsonl exporter format (default prom)\n"
      "  --metrics-interval=N  also dump every N batches (0 = final only)\n"
      "  --trace-out=FILE    record phase spans; dump chrome://tracing "
      "JSON ('-' = stdout)\n"
      "  --checkpoint-out=FILE  write a durable checkpoint here (atomic\n"
      "                      write + rename; see docs/RESILIENCE.md)\n"
      "  --checkpoint-interval=N  also checkpoint every N batches "
      "(0 = final only)\n"
      "  --restore=FILE      restore a checkpoint before replaying; the\n"
      "                      replay resumes after the checkpointed events\n"
      "  --store-budget=BYTES  instance-store memory budget; over it the\n"
      "                      store turns off until pressure clears\n"
      "                      (0 = unlimited)\n",
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
    else if (const char* v = value("--window-events=")) {
      valid = ParseInt(v, &args->window_events);
      args->window_events_set = true;
    }
    else if (const char* v = value("--window-seconds=")) {
      valid = ParseInt(v, &args->window_seconds);
      args->window_seconds_set = true;
    }
    else if (const char* v = value("--lateness=")) valid = ParseInt(v, &args->lateness);
    else if (const char* v = value("--batch=")) valid = ParseInt(v, &args->batch);
    else if (const char* v = value("--report-every=")) valid = ParseInt(v, &args->report_every);
    else if (const char* v = value("--top=")) valid = ParseInt(v, &args->top);
    else if (const char* v = value("--threads=")) valid = ParseInt(v, &args->threads);
    else if (std::strcmp(a, "--raw-ids") == 0) args->compact_ids = false;
    else if (const char* v = value("--metrics-out=")) args->metrics_out = v;
    else if (const char* v = value("--metrics-format=")) args->metrics_format = v;
    else if (const char* v = value("--metrics-interval=")) valid = ParseInt(v, &args->metrics_interval);
    else if (const char* v = value("--trace-out=")) args->trace_out = v;
    else if (const char* v = value("--checkpoint-out=")) args->checkpoint_out = v;
    else if (const char* v = value("--checkpoint-interval=")) valid = ParseInt(v, &args->checkpoint_interval);
    else if (const char* v = value("--restore=")) args->restore = v;
    else if (const char* v = value("--store-budget=")) valid = ParseInt(v, &args->store_budget);
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
  if (args->window_events_set && args->window_seconds_set) {
    std::fprintf(stderr,
                 "--window-events and --window-seconds are exclusive\n");
    return false;
  }
  if (args->window_events_set && args->window_events < 1) {
    std::fprintf(stderr, "--window-events must be >= 1\n");
    return false;
  }
  if (args->window_seconds_set && args->window_seconds < 1) {
    std::fprintf(stderr, "--window-seconds must be >= 1\n");
    return false;
  }
  if (args->lateness < 0) {
    std::fprintf(stderr, "--lateness must be >= 0\n");
    return false;
  }
  if (args->batch < 1) {
    std::fprintf(stderr, "--batch must be >= 1\n");
    return false;
  }
  if (args->report_every < 0) {
    std::fprintf(stderr, "--report-every must be >= 0\n");
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
  if (args->metrics_format != "prom" && args->metrics_format != "jsonl") {
    std::fprintf(stderr, "--metrics-format must be prom or jsonl\n");
    return false;
  }
  if (args->metrics_interval < 0) {
    std::fprintf(stderr, "--metrics-interval must be >= 0\n");
    return false;
  }
  if (args->metrics_interval > 0 && args->metrics_out.empty()) {
    std::fprintf(stderr, "--metrics-interval needs --metrics-out\n");
    return false;
  }
  if (args->checkpoint_interval < 0) {
    std::fprintf(stderr, "--checkpoint-interval must be >= 0\n");
    return false;
  }
  if (args->checkpoint_interval > 0 && args->checkpoint_out.empty()) {
    std::fprintf(stderr, "--checkpoint-interval needs --checkpoint-out\n");
    return false;
  }
  if (args->store_budget < 0) {
    std::fprintf(stderr, "--store-budget must be >= 0\n");
    return false;
  }
  return true;
}

/// Writes one registry snapshot to `out` in the configured format.
void DumpMetrics(const CliArgs& args, std::FILE* out) {
  const obs::MetricsSnapshot snap = obs::GlobalMetrics().Snapshot();
  const std::string text = args.metrics_format == "jsonl"
                               ? obs::ToJsonLines(snap)
                               : obs::ToPrometheusText(snap);
  std::fwrite(text.data(), 1, text.size(), out);
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
    std::fprintf(stderr, "unknown --induced kind: %s\n", args.induced.c_str());
    return false;
  }
  return true;
}

void PrintSnapshot(const StreamingMotifCounter& counter, int top) {
  std::printf("  window: %zu events spanning %llds (%lld..%lld), %llu "
              "instances across %zu motif types\n",
              counter.window_size(),
              static_cast<long long>(counter.window_max_time() -
                                     counter.window_min_time()),
              static_cast<long long>(counter.window_min_time()),
              static_cast<long long>(counter.window_max_time()),
              static_cast<unsigned long long>(counter.total()),
              counter.counts().num_codes());
  if (counter.total() == 0) return;
  std::printf("%s", RenderMotifCounts(
                        counter.counts(),
                        top <= 0 ? 0 : static_cast<std::size_t>(top))
                        .c_str());
}

int Main(int argc, char** argv) {
  CliArgs args;
  if (!Parse(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  StreamConfig config;
  if (!BuildOptions(args, &config.options)) return 2;
  if (args.window_seconds_set) {
    config.window = WindowPolicy::TimeBased(args.window_seconds);
  } else {
    config.window = WindowPolicy::CountBased(
        args.window_events_set ? args.window_events : 4096);
  }
  config.num_threads = std::max(args.threads, 1);
  config.lateness = args.lateness;
  config.store_budget_bytes = static_cast<std::size_t>(args.store_budget);

  EdgeListOptions load_options;
  load_options.compact_node_ids = args.compact_ids;
  load_options.keep_arrival_order = true;
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
  // Replay in file (arrival) order: for sorted files this is the canonical
  // stream order, and for unordered feeds it is exactly the out-of-order
  // delivery the --lateness horizon is for.
  const std::vector<Event>& events = loaded->arrival_events;

  std::printf("%s: replaying %zu events (batch %d, window %s)\n",
              args.input.c_str(), events.size(), args.batch,
              config.window.ToString().c_str());
  std::printf("config: %d-event motifs, <=%d nodes, %s%s%s%s\n\n",
              config.options.num_events, config.options.max_nodes,
              config.options.timing.ToString().c_str(),
              config.options.consecutive_events_restriction ? ", consecutive"
                                                            : "",
              config.options.cdg_restriction ? ", cdg" : "",
              config.options.inducedness == Inducedness::kNone
                  ? ""
                  : (config.options.inducedness == Inducedness::kStatic
                         ? ", static-induced"
                         : ", window-induced"));

  if (!args.trace_out.empty()) obs::TraceRecorder::Global().Enable();
  std::FILE* metrics_file = nullptr;
  if (!args.metrics_out.empty()) {
    metrics_file = args.metrics_out == "-"
                       ? stdout
                       : std::fopen(args.metrics_out.c_str(), "w");
    if (metrics_file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_out.c_str());
      return 1;
    }
  }

  StreamingMotifCounter counter(config);
  std::size_t resume_offset = 0;
  if (!args.restore.empty()) {
    const CheckpointResult restored = RestoreCheckpoint(args.restore, &counter);
    if (!restored.ok()) {
      std::fprintf(stderr, "cannot restore %s: %s: %s\n",
                   args.restore.c_str(),
                   CheckpointStatusName(restored.status),
                   restored.message.c_str());
      return 1;
    }
    // The checkpoint records how many replay events it had consumed; skip
    // them so the resumed run continues exactly where the writer stopped.
    resume_offset = std::min<std::size_t>(
        static_cast<std::size_t>(counter.stats().events_ingested),
        events.size());
    std::printf("restored %s: %zu window events, %llu counted instances; "
                "resuming at event %zu\n",
                args.restore.c_str(), counter.window_size(),
                static_cast<unsigned long long>(counter.total()),
                resume_offset);
  }
  const auto start = std::chrono::steady_clock::now();
  std::size_t batch_index = 0;
  for (std::size_t begin = resume_offset; begin < events.size();
       begin += static_cast<std::size_t>(args.batch)) {
    const std::size_t end =
        std::min(events.size(), begin + static_cast<std::size_t>(args.batch));
    counter.Ingest(std::vector<Event>(
        events.begin() + static_cast<std::ptrdiff_t>(begin),
        events.begin() + static_cast<std::ptrdiff_t>(end)));
    ++batch_index;
    if (args.report_every > 0 &&
        batch_index % static_cast<std::size_t>(args.report_every) == 0) {
      std::printf("[batch %zu, %zu events in]\n", batch_index, end);
      PrintSnapshot(counter, args.top);
      std::printf("\n");
    }
    if (args.metrics_interval > 0 && metrics_file != nullptr &&
        batch_index % static_cast<std::size_t>(args.metrics_interval) == 0) {
      if (args.metrics_format == "jsonl") {
        std::fprintf(metrics_file,
                     "{\"metric\":\"snapshot.batch\",\"type\":\"gauge\","
                     "\"value\":%zu}\n",
                     batch_index);
      } else {
        std::fprintf(metrics_file, "# snapshot after batch %zu\n",
                     batch_index);
      }
      DumpMetrics(args, metrics_file);
    }
    if (args.checkpoint_interval > 0 &&
        batch_index % static_cast<std::size_t>(args.checkpoint_interval) ==
            0) {
      const CheckpointResult written =
          WriteCheckpoint(counter, args.checkpoint_out);
      if (!written.ok()) {
        // A failed periodic checkpoint must not kill the stream: the
        // previous checkpoint (if any) is still intact under the final
        // name, so warn and keep ingesting.
        std::fprintf(stderr, "warning: checkpoint failed: %s: %s\n",
                     CheckpointStatusName(written.status),
                     written.message.c_str());
      }
    }
  }
  if (!args.checkpoint_out.empty()) {
    const CheckpointResult written =
        WriteCheckpoint(counter, args.checkpoint_out);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s: %s\n",
                   args.checkpoint_out.c_str(),
                   CheckpointStatusName(written.status),
                   written.message.c_str());
      return 1;
    }
  }

  const IngestStats& stats = counter.stats();
  std::printf("final state after %llu batches\n",
              static_cast<unsigned long long>(stats.batches));
  PrintSnapshot(counter, args.top);
  std::printf(
      "\nstream summary: %llu ingested (%llu never entered), %llu evicted; "
      "%llu instances added, %llu retracted; %llu tie corrections, %llu "
      "window recounts (%llu static-inducedness fallbacks)\n",
      static_cast<unsigned long long>(stats.events_ingested),
      static_cast<unsigned long long>(stats.events_dropped),
      static_cast<unsigned long long>(stats.events_evicted),
      static_cast<unsigned long long>(stats.instances_added),
      static_cast<unsigned long long>(stats.instances_retracted),
      static_cast<unsigned long long>(stats.tie_corrections),
      static_cast<unsigned long long>(stats.full_recounts),
      static_cast<unsigned long long>(stats.static_fallbacks));
  if (counter.store_active()) {
    std::printf(
        "instance store: %zu live candidates (~%llu bytes resident); %llu "
        "flip batches touched %llu entries (%llu admitted, %llu retired)\n",
        counter.store_size(),
        static_cast<unsigned long long>(counter.store_approx_bytes()),
        static_cast<unsigned long long>(stats.store_flip_batches),
        static_cast<unsigned long long>(stats.store_entries_touched),
        static_cast<unsigned long long>(stats.store_admitted),
        static_cast<unsigned long long>(stats.store_retired));
  }
  if (stats.store_demotions_recount + stats.store_promotions_full > 0) {
    std::printf(
        "store budget: %llu-byte cap, store ended %s (demotions %llu, "
        "promotions %llu)\n",
        static_cast<unsigned long long>(config.store_budget_bytes),
        counter.store_mode() == StoreMode::kFull ? "on" : "off",
        static_cast<unsigned long long>(stats.store_demotions_recount),
        static_cast<unsigned long long>(stats.store_promotions_full));
  }
  if (stats.late_events + stats.late_dropped > 0) {
    std::printf(
        "late events: %llu spliced (%llu delta batches, %llu recounts), "
        "%llu dropped beyond the %llds horizon\n",
        static_cast<unsigned long long>(stats.late_events),
        static_cast<unsigned long long>(stats.late_splices),
        static_cast<unsigned long long>(stats.late_recounts),
        static_cast<unsigned long long>(stats.late_dropped),
        static_cast<long long>(config.lateness));
  }
  if (metrics_file != nullptr) {
    DumpMetrics(args, metrics_file);
    if (metrics_file != stdout) std::fclose(metrics_file);
  }
  if (!args.trace_out.empty()) {
    if (args.trace_out == "-") {
      std::ostringstream trace_json;
      obs::TraceRecorder::Global().WriteJson(trace_json);
      std::fputs(trace_json.str().c_str(), stdout);
    } else {
      std::ofstream trace_file(args.trace_out);
      if (!trace_file) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
      obs::TraceRecorder::Global().WriteJson(trace_file);
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (seconds > 0 && !events.empty()) {
    std::fprintf(stderr, "replayed %zu events in %.3fs (%.0f events/s)\n",
                 events.size(), seconds,
                 static_cast<double>(events.size()) / seconds);
  }
  return 0;
}

}  // namespace
}  // namespace tmotif

int main(int argc, char** argv) { return tmotif::Main(argc, argv); }
