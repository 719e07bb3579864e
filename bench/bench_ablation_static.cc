// Ablation for the paper's premise (Section 1): temporal information
// multiplies the motif spectrum and sharpens analysis. We compare the
// snapshot-era *communication motif* view (Zhao et al. [21]: static form
// only, no event order) against temporal motif codes on the same data:
//   * the 36-code temporal spectrum collapses to ~a dozen static forms;
//   * datasets that temporal codes separate cleanly become much harder to
//     tell apart from their static-form distributions.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "analysis/report.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/text_table.h"
#include "core/counter.h"
#include "core/models/zhao.h"
#include "core/static_form.h"

namespace tmotif {
namespace {

constexpr Timestamp kDeltaT = 1500;

std::map<std::string, double> TemporalDistribution(
    const TemporalGraph& graph) {
  EnumerationOptions o;
  o.num_events = 3;
  o.max_nodes = 3;
  o.timing = TimingConstraints::OnlyDeltaC(kDeltaT);
  const MotifCounts counts = CountMotifs(graph, o);
  std::map<std::string, double> dist;
  if (counts.total() == 0) return dist;
  for (const auto& [code, count] : counts.SortedByCode()) {
    dist[code] = static_cast<double>(count) /
                 static_cast<double>(counts.total());
  }
  return dist;
}

std::map<std::string, double> StaticDistribution(const TemporalGraph& graph) {
  ZhaoConfig config{3, 3, kDeltaT};
  const auto counts = CountCommunicationMotifs(graph, config);
  std::uint64_t total = 0;
  for (const auto& [form, count] : counts) total += count;
  std::map<std::string, double> dist;
  if (total == 0) return dist;
  for (const auto& [form, count] : counts) {
    dist[form] = static_cast<double>(count) / static_cast<double>(total);
  }
  return dist;
}

double L1Distance(const std::map<std::string, double>& a,
                  const std::map<std::string, double>& b) {
  double total = 0.0;
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    total += std::abs(value - (it == b.end() ? 0.0 : it->second));
  }
  for (const auto& [key, value] : b) {
    if (a.find(key) == a.end()) total += value;
  }
  return 0.5 * total;  // Total variation distance in [0, 1].
}

int Run(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  WallTimer run_timer;
  PrintBenchHeader(
      "Static vs temporal motif resolution",
      "Section 1 premise + related work [21]: what the snapshot-era static "
      "view loses relative to temporal motif codes (3-event, dt=1500s)",
      args);

  const DatasetId ids[] = {DatasetId::kSmsCopenhagen,
                           DatasetId::kCallsCopenhagen,
                           DatasetId::kStackOverflow};
  std::map<std::string, double> temporal[3];
  std::map<std::string, double> statics[3];
  for (int i = 0; i < 3; ++i) {
    const TemporalGraph graph = LoadBenchDataset(ids[i], args);
    temporal[i] = TemporalDistribution(graph);
    statics[i] = StaticDistribution(graph);
  }

  TextTable spectrum({"Network", "Temporal codes observed",
                      "Static forms observed"});
  for (int i = 0; i < 3; ++i) {
    spectrum.AddRow()
        .AddCell(DatasetName(ids[i]))
        .AddUint(temporal[i].size())
        .AddUint(statics[i].size());
  }
  std::printf("%s\n", spectrum.Render().c_str());

  TextTable distances({"Pair", "TV distance (temporal)",
                       "TV distance (static)"});
  CsvWriter csv(BenchOutputPath(args.out_dir, "ablation_static.csv"));
  csv.WriteRow({"pair", "tv_temporal", "tv_static"});
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      const std::string pair = std::string(DatasetName(ids[i])) + " vs " +
                               DatasetName(ids[j]);
      const double dt = L1Distance(temporal[i], temporal[j]);
      const double ds = L1Distance(statics[i], statics[j]);
      distances.AddRow().AddCell(pair).AddDouble(dt, 3).AddDouble(ds, 3);
      csv.WriteRow({pair, std::to_string(dt), std::to_string(ds)});
    }
  }
  std::printf("%s\n", distances.Render().c_str());
  std::printf(
      "Expected: every dataset uses (nearly) the full 36-code temporal "
      "spectrum but only ~a dozen static forms, and the temporal "
      "distributions separate the datasets at least as sharply as the "
      "static ones - the information the paper's Section 1 attributes to "
      "event order and timing.\n");
  WriteBenchResult(args, "ablation_static", run_timer.Seconds());
  return 0;
}

}  // namespace
}  // namespace tmotif

int main(int argc, char** argv) { return tmotif::Run(argc, argv); }
