#ifndef TMOTIF_GRAPH_GRAPH_IO_H_
#define TMOTIF_GRAPH_GRAPH_IO_H_

#include <optional>
#include <string>
#include <vector>

#include "graph/temporal_graph.h"

namespace tmotif {

/// Options for reading whitespace-separated edge lists
/// (`src dst time [duration]` per line, an optional fifth integer column
/// ignored; `#` / `%` start comments). A self-loop (src == dst; raw
/// datasets such as the stack exchange networks contain self-answers) is
/// skipped and counted in `num_skipped_self_loops`.
struct EdgeListOptions {
  /// Remap arbitrary non-negative ids onto a dense [0, n) range.
  bool compact_node_ids = false;
  /// Also return the accepted events in file (arrival) order — the graph
  /// itself is always canonically sorted, but a stream replay that wants
  /// to exercise out-of-order delivery (tmotif_stream --lateness) needs
  /// the order the feed actually produced.
  bool keep_arrival_order = false;
};

/// One rejected input line, with enough context to point a user at it.
struct EdgeListError {
  /// 1-based physical line number in the file (blank and comment lines
  /// count, exactly as an editor numbers them).
  std::size_t line = 0;
  /// What was wrong ("non-numeric field", "negative node id", ...).
  std::string message;
};

/// Cap on retained EdgeListError records per load; `num_bad_lines` keeps
/// the full count regardless.
inline constexpr std::size_t kMaxEdgeListErrors = 8;

struct EdgeListResult {
  TemporalGraph graph;
  /// Accepted events in file order (only when keep_arrival_order is set).
  std::vector<Event> arrival_events;
  std::size_t num_lines = 0;
  std::size_t num_events = 0;
  std::size_t num_skipped_self_loops = 0;
  std::size_t num_bad_lines = 0;
  /// The first kMaxEdgeListErrors rejected lines, in file order, each with
  /// its physical line number and a structured reason.
  std::vector<EdgeListError> errors;
};

/// Loads a temporal edge list; returns nullopt when the file cannot be
/// opened or a read fails, a directory included (when `error` is non-null
/// it receives "path: strerror" detail). Malformed lines, a line holding a
/// NUL byte among them, are counted, described in `errors`, and skipped —
/// never fatal.
std::optional<EdgeListResult> LoadEdgeList(const std::string& path,
                                           const EdgeListOptions& options = {},
                                           std::string* error = nullptr);

/// Writes `graph` as "src dst time duration" lines. Returns false
/// when the file cannot be opened or a write or the final flush fails.
bool SaveEdgeList(const TemporalGraph& graph, const std::string& path);

}  // namespace tmotif

#endif  // TMOTIF_GRAPH_GRAPH_IO_H_
