// Oracle-style differential coverage for src/analysis/ (ROADMAP open
// item): timespan_analysis and event_pair_analysis run on the fast
// enumeration stack; here their outputs are reproduced from scratch over
// the brute-force ReferenceEnumerate instance lists, with an independent
// reimplementation of the event-pair classification, on the seeded oracle
// grid graphs.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/event_pair_analysis.h"
#include "analysis/timespan_analysis.h"
#include "common/histogram.h"
#include "core/models/model_info.h"
#include "core/timing.h"
#include "testing/random_graphs.h"
#include "testing/reference_oracle.h"

namespace tmotif {
namespace {

using testing::ForEachRandomGraph;
using testing::RandomGraphSpec;
using testing::ReferenceEnumerate;
using testing::ReferenceInstance;

RandomGraphSpec SmallSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 6;
  spec.num_events = 16;
  spec.max_time = 48;
  spec.prob_duplicate_time = 0.25;
  return spec;
}

RandomGraphSpec DenseSpec() {
  RandomGraphSpec spec;
  spec.num_nodes = 4;
  spec.num_events = 14;
  spec.max_time = 20;
  spec.prob_duplicate_time = 0.4;
  return spec;
}

EnumerationOptions Opts(int k, int max_nodes, TimingConstraints timing = {},
                        Inducedness inducedness = Inducedness::kNone) {
  EnumerationOptions o;
  o.num_events = k;
  o.max_nodes = max_nodes;
  o.timing = timing;
  o.inducedness = inducedness;
  return o;
}

/// Independent spelling of the paper's six event-pair relations (Table 5);
/// deliberately NOT ClassifyEventPair, so the production classifier is
/// cross-checked too. Self-loops are impossible, so the six shared-node
/// cases are mutually exclusive.
EventPairType ReferenceClassify(const Event& a, const Event& b) {
  if (a.src == b.src && a.dst == b.dst) return EventPairType::kRepetition;
  if (a.src == b.dst && a.dst == b.src) return EventPairType::kPingPong;
  if (a.dst == b.dst && a.src != b.src) return EventPairType::kInBurst;
  if (a.src == b.src && a.dst != b.dst) return EventPairType::kOutBurst;
  if (a.dst == b.src && a.src != b.dst) return EventPairType::kConvey;
  if (a.src == b.dst && a.dst != b.src) return EventPairType::kWeaklyConnected;
  return EventPairType::kDisjoint;
}

/// The option grid the analyses are diffed under: vanilla timing-only plus
/// two model presets whose predicates stress the inducedness paths.
std::vector<std::pair<std::string, EnumerationOptions>> AnalysisGrid() {
  return {
      {"dw", Opts(3, 3, TimingConstraints::OnlyDeltaW(15))},
      {"dc_dw", Opts(3, 3, TimingConstraints::Both(8, 14))},
      {"unbounded", Opts(3, 3)},
      {"static_induced",
       Opts(3, 3, TimingConstraints::OnlyDeltaW(12), Inducedness::kStatic)},
      {"paranjape_preset",
       OptionsForModel(ModelId::kParanjape, 3, 3, 10, 15)},
      {"hulovatyy_preset",
       OptionsForModel(ModelId::kHulovatyy, 3, 3, 10, 15)},
  };
}

TEST(AnalysisOracle, TimespanProfilesMatchBruteForce) {
  int nonzero_profiles = 0;
  for (const auto& grid_case : AnalysisGrid()) {
    const std::string& case_name = grid_case.first;
    const EnumerationOptions& opts = grid_case.second;
    ForEachRandomGraph(
        0x7153a4, 8, DenseSpec(),
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const std::vector<ReferenceInstance> instances =
              ReferenceEnumerate(g, opts);
          // Spans per code, straight off the oracle's instance list.
          std::map<MotifCode, std::vector<Timestamp>> spans_by_code;
          for (const ReferenceInstance& instance : instances) {
            const Timestamp span =
                g.event(instance.event_indices.back()).time -
                g.event(instance.event_indices.front()).time;
            spans_by_code[instance.code].push_back(span);
          }
          // Every observed code, plus one the oracle never saw.
          std::vector<MotifCode> codes;
          for (const auto& [code, spans] : spans_by_code) {
            (void)spans;
            codes.push_back(code);
          }
          codes.push_back("011223");
          for (const MotifCode& code : codes) {
            const TimespanProfile profile = CollectTimespans(g, opts, code);
            const std::vector<Timestamp>& expected_spans =
                spans_by_code.count(code) ? spans_by_code[code]
                                          : std::vector<Timestamp>{};
            ASSERT_EQ(profile.num_instances, expected_spans.size())
                << case_name << " seed=" << seed << " code=" << code;
            // Reproduce the histogram with the documented bounds rule.
            Timestamp hi = 3600;
            if (opts.timing.delta_w.has_value()) {
              hi = *opts.timing.delta_w;
            } else if (opts.timing.delta_c.has_value()) {
              hi = LooseWindowBound(*opts.timing.delta_c, opts.num_events);
            }
            hi = std::max<Timestamp>(hi, 1);
            Histogram expected(0.0, static_cast<double>(hi), 30);
            double total_span = 0.0;
            for (const Timestamp span : expected_spans) {
              expected.Add(static_cast<double>(span));
              total_span += static_cast<double>(span);
            }
            ASSERT_EQ(profile.histogram.num_bins(), expected.num_bins())
                << case_name << " seed=" << seed << " code=" << code;
            for (int bin = 0; bin < expected.num_bins(); ++bin) {
              ASSERT_EQ(profile.histogram.bin_count(bin),
                        expected.bin_count(bin))
                  << case_name << " seed=" << seed << " code=" << code
                  << " bin=" << bin;
            }
            if (!expected_spans.empty()) {
              EXPECT_DOUBLE_EQ(
                  profile.mean_span,
                  total_span / static_cast<double>(expected_spans.size()))
                  << case_name << " seed=" << seed << " code=" << code;
              ++nonzero_profiles;
            }
          }
        });
  }
  EXPECT_GT(nonzero_profiles, 0);
}

TEST(AnalysisOracle, EventPairStatsMatchBruteForce) {
  int nonzero_cases = 0;
  for (const auto& grid_case : AnalysisGrid()) {
    const std::string& case_name = grid_case.first;
    const EnumerationOptions& opts = grid_case.second;
    ForEachRandomGraph(
        0xeba175, 8, SmallSpec(),
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const std::vector<ReferenceInstance> instances =
              ReferenceEnumerate(g, opts);
          std::array<std::uint64_t, kNumEventPairTypes> expected_counts{};
          std::uint64_t expected_disjoint = 0;
          for (const ReferenceInstance& instance : instances) {
            for (std::size_t i = 1; i < instance.event_indices.size(); ++i) {
              const EventPairType type = ReferenceClassify(
                  g.event(instance.event_indices[i - 1]),
                  g.event(instance.event_indices[i]));
              if (type == EventPairType::kDisjoint) {
                ++expected_disjoint;
              } else {
                ++expected_counts[static_cast<std::size_t>(type)];
              }
            }
          }
          const EventPairStats stats = CollectEventPairStats(g, opts);
          ASSERT_EQ(stats.num_instances, instances.size())
              << case_name << " seed=" << seed;
          ASSERT_EQ(stats.disjoint, expected_disjoint)
              << case_name << " seed=" << seed;
          for (int t = 0; t < kNumEventPairTypes; ++t) {
            ASSERT_EQ(stats.counts[static_cast<std::size_t>(t)],
                      expected_counts[static_cast<std::size_t>(t)])
                << case_name << " seed=" << seed << " type="
                << EventPairLetter(static_cast<EventPairType>(t));
          }
          if (!instances.empty()) ++nonzero_cases;
        });
  }
  EXPECT_GT(nonzero_cases, 0);
}

TEST(AnalysisOracle, PairSequenceMatrixMatchesBruteForce) {
  int nonzero_cases = 0;
  for (const auto& grid_case : AnalysisGrid()) {
    const std::string& case_name = grid_case.first;
    const EnumerationOptions& opts = grid_case.second;
    ForEachRandomGraph(
        0x9a7123, 8, DenseSpec(),
        [&](std::uint64_t seed, const TemporalGraph& g) {
          const std::vector<ReferenceInstance> instances =
              ReferenceEnumerate(g, opts);
          std::array<std::array<std::uint64_t, kNumEventPairTypes>,
                     kNumEventPairTypes>
              expected{};
          std::uint64_t expected_total = 0;
          for (const ReferenceInstance& instance : instances) {
            const EventPairType first =
                ReferenceClassify(g.event(instance.event_indices[0]),
                                  g.event(instance.event_indices[1]));
            const EventPairType second =
                ReferenceClassify(g.event(instance.event_indices[1]),
                                  g.event(instance.event_indices[2]));
            if (first == EventPairType::kDisjoint ||
                second == EventPairType::kDisjoint) {
              continue;
            }
            ++expected[static_cast<std::size_t>(first)]
                      [static_cast<std::size_t>(second)];
            ++expected_total;
          }
          const PairSequenceMatrix matrix =
              CollectPairSequenceMatrix(g, opts);
          ASSERT_EQ(matrix.total, expected_total)
              << case_name << " seed=" << seed;
          for (int a = 0; a < kNumEventPairTypes; ++a) {
            for (int b = 0; b < kNumEventPairTypes; ++b) {
              ASSERT_EQ(matrix.cells[static_cast<std::size_t>(a)]
                                    [static_cast<std::size_t>(b)],
                        expected[static_cast<std::size_t>(a)]
                                [static_cast<std::size_t>(b)])
                  << case_name << " seed=" << seed << " cell=("
                  << EventPairLetter(static_cast<EventPairType>(a)) << ","
                  << EventPairLetter(static_cast<EventPairType>(b)) << ")";
            }
          }
          if (expected_total > 0) ++nonzero_cases;
        });
  }
  EXPECT_GT(nonzero_cases, 0);
}

}  // namespace
}  // namespace tmotif
