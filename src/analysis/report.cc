#include "analysis/report.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdio>

#include "common/text_table.h"

namespace tmotif {

std::string RenderMotifCounts(const MotifCounts& counts, std::size_t limit) {
  TextTable table({"rank", "motif", "count", "share"});
  const auto rows = counts.SortedByCount();
  std::size_t shown = 0;
  for (const auto& [code, count] : rows) {
    if (limit != 0 && shown >= limit) break;
    ++shown;
    table.AddRow()
        .AddUint(shown)
        .AddCell(code)
        .AddUint(count)
        .AddPercent(counts.total() == 0
                        ? 0.0
                        : static_cast<double>(count) /
                              static_cast<double>(counts.total()));
  }
  return table.Render();
}

std::string RenderPairRatios(const EventPairStats& stats) {
  std::string out;
  char buf[48];
  for (int t = 0; t < kNumEventPairTypes; ++t) {
    const auto type = static_cast<EventPairType>(t);
    std::snprintf(buf, sizeof(buf), "%c %5.1f%%  ", EventPairLetter(type),
                  100.0 * stats.Ratio(type));
    out += buf;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string RenderPairSequenceHeatMap(const PairSequenceMatrix& matrix) {
  // Shade by log intensity the way the paper's color scale does.
  static const char kShades[] = {'.', ':', '-', '=', '+', '*', '#', '@'};
  std::string out = "      ";
  for (int c = 0; c < kNumEventPairTypes; ++c) {
    out += "   ";
    out.push_back(EventPairLetter(static_cast<EventPairType>(c)));
    out += "      ";
  }
  out += "\n";
  char buf[32];
  for (int r = 0; r < kNumEventPairTypes; ++r) {
    const auto first = static_cast<EventPairType>(r);
    out.push_back(EventPairLetter(first));
    out += "  ";
    for (int c = 0; c < kNumEventPairTypes; ++c) {
      const auto second = static_cast<EventPairType>(c);
      const std::uint64_t count = matrix.cell(first, second);
      const double intensity = matrix.LogIntensity(first, second);
      const int shade =
          count == 0
              ? 0
              : 1 + static_cast<int>(intensity * (sizeof(kShades) - 2));
      std::snprintf(buf, sizeof(buf), " %c %8llu", kShades[shade],
                    static_cast<unsigned long long>(count));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string BenchOutputPath(const std::string& dir, const std::string& name) {
  ::mkdir(dir.c_str(), 0755);  // Best effort; ignored when it exists.
  return dir + "/" + name;
}

}  // namespace tmotif
