#include "graph/graph_io.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

namespace tmotif {
namespace {

/// Parses up to 5 whitespace-separated integer fields from the
/// NUL-terminated `line`, whose NUL sits at `end` (the fifth, a legacy
/// column, is parsed and ignored). Returns the number of fields parsed, or
/// -1 with `*why` set on any malformed token (non-numeric, out of
/// long-long range, trailing garbage after the fifth field) or on a NUL
/// byte inside the line. A trailing '\r' (CRLF files) is tolerated.
int ParseFields(const char* line, const char* end, long long out[5],
                const char** why) {
  int count = 0;
  const char* p = line;
  while (*p != '\0' && count < 5) {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
    if (*p == '\0') break;
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(p, &end, 10);
    if (end == p) {
      *why = "non-numeric field";
      return -1;
    }
    if (errno == ERANGE) {
      *why = "integer field out of range";
      return -1;
    }
    out[count++] = value;
    p = end;
  }
  // Trailing garbage check.
  while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  if (*p != '\0' && count == 5) {
    *why = "trailing garbage after 5 fields";
    return -1;
  }
  // The scan stops at the first NUL; one before `end` is part of the line.
  if (*p == '\0' && p != end) {
    *why = "NUL byte in line";
    return -1;
  }
  return count;
}

}  // namespace

std::optional<EdgeListResult> LoadEdgeList(const std::string& path,
                                           const EdgeListOptions& options,
                                           std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    if (error != nullptr) *error = path + ": " + std::strerror(errno);
    return std::nullopt;
  }

  EdgeListResult result;
  TemporalGraphBuilder builder;
  std::unordered_map<long long, NodeId> remap;
  const auto map_node = [&](long long raw) -> NodeId {
    if (!options.compact_node_ids) return static_cast<NodeId>(raw);
    const auto [it, inserted] =
        remap.emplace(raw, static_cast<NodeId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  std::size_t physical_line = 0;
  const auto record_error = [&](const char* message) {
    ++result.num_bad_lines;
    if (result.errors.size() < kMaxEdgeListErrors) {
      result.errors.push_back(EdgeListError{physical_line, message});
    }
  };
  // `line` holds `size` bytes and a NUL after them.
  const auto process_line = [&](const char* line, std::size_t size) {
    ++physical_line;
    if (size == 0 || (size == 1 && line[0] == '\r')) return;
    ++result.num_lines;
    if (line[0] == '#' || line[0] == '%') return;
    long long fields[5] = {0, 0, 0, 0, 0};
    const char* why = "";
    const int n = ParseFields(line, line + size, fields, &why);
    if (n < 0) {
      record_error(why);
      return;
    }
    if (n < 3) {
      record_error("expected at least 3 fields (src dst time)");
      return;
    }
    if (fields[0] < 0 || fields[1] < 0) {
      record_error("negative node id");
      return;
    }
    // Raw ids index a dense node table of max id + 1 entries, and that
    // count must itself fit the 32-bit id type.
    if (!options.compact_node_ids &&
        (fields[0] >= static_cast<long long>(INT32_MAX) ||
         fields[1] >= static_cast<long long>(INT32_MAX))) {
      record_error("node id exceeds the 32-bit id space "
                   "(enable compact_node_ids to remap)");
      return;
    }
    if (n >= 4 && fields[3] < 0) {
      record_error("negative duration");
      return;
    }
    if (fields[0] == fields[1]) {
      ++result.num_skipped_self_loops;
      return;
    }
    // Built in place from named scalars: GCC 12 at -O2/-O3 flags a named
    // local Event pushed into a vector as -Wdangling-pointer (a false
    // positive that -Werror turns fatal).
    const NodeId src = map_node(fields[0]);
    const NodeId dst = map_node(fields[1]);
    const Timestamp time = static_cast<Timestamp>(fields[2]);
    const Duration duration = n >= 4 ? static_cast<Duration>(fields[3]) : 0;
    builder.AddEvent(Event{src, dst, time, duration});
    if (options.keep_arrival_order) {
      result.arrival_events.push_back(Event{src, dst, time, duration});
    }
    ++result.num_events;
  };

  // Reads 64 KiB blocks and parses each line in place, its newline
  // overwritten by the NUL; a line that spans blocks collects in `carry`.
  constexpr std::size_t kBlockBytes = 64 * 1024;
  std::vector<char> block(kBlockBytes);
  std::string carry;
  std::size_t got;
  while ((got = std::fread(block.data(), 1, kBlockBytes, file)) > 0) {
    char* p = block.data();
    char* const end = p + got;
    char* newline;
    while ((newline = static_cast<char*>(
                std::memchr(p, '\n', static_cast<std::size_t>(end - p)))) !=
           nullptr) {
      *newline = '\0';
      if (carry.empty()) {
        process_line(p, static_cast<std::size_t>(newline - p));
      } else {
        carry.append(p, newline);
        process_line(carry.c_str(), carry.size());
        carry.clear();
      }
      p = newline + 1;
    }
    carry.append(p, end);
  }
  // fread returns 0 at end of file and on a read error (a directory, an
  // I/O fault); only the stream's error flag tells them apart.
  if (std::ferror(file)) {
    const int read_errno = errno;
    std::fclose(file);
    if (error != nullptr) *error = path + ": " + std::strerror(read_errno);
    return std::nullopt;
  }
  process_line(carry.c_str(), carry.size());
  std::fclose(file);

  result.graph = builder.Build();
  return result;
}

bool SaveEdgeList(const TemporalGraph& graph, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Event& e : graph.events()) {
    if (std::fprintf(file, "%d %d %lld %lld\n", e.src, e.dst,
                     static_cast<long long>(e.time),
                     static_cast<long long>(e.duration)) < 0) {
      break;
    }
  }
  // A failed write sets the error flag; fclose flushes what is buffered.
  const bool written = !std::ferror(file);
  return std::fclose(file) == 0 && written;
}

}  // namespace tmotif
