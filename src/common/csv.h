#ifndef TMOTIF_COMMON_CSV_H_
#define TMOTIF_COMMON_CSV_H_

#include <cstdio>
#include <string>
#include <vector>

namespace tmotif {

/// Row-oriented CSV writer with RFC-4180-style quoting. The bench binaries
/// use it to export every table/figure series for external plotting, and
/// tmotif_count for --csv.
class CsvWriter {
 public:
  /// Opens `path` for writing; `ok()` tells whether that worked.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter() { Close(); }

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  bool ok() const { return file_ != nullptr; }

  /// Appends one row; a no-op when the file is not open.
  void WriteRow(const std::vector<std::string>& cells);

  /// Flushes and closes the file. False when it was not open, or when a
  /// write, the flush or the close failed (rows are buffered, so a full
  /// disk usually shows only here).
  bool Close();

 private:
  std::FILE* file_ = nullptr;
};

/// Escapes a single CSV field (quotes when it contains comma/quote/newline).
std::string CsvEscape(const std::string& field);

}  // namespace tmotif

#endif  // TMOTIF_COMMON_CSV_H_
