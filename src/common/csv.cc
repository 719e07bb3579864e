#include "common/csv.h"

namespace tmotif {

CsvWriter::CsvWriter(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
}

bool CsvWriter::Close() {
  if (file_ == nullptr) return false;
  const bool written = !std::ferror(file_);
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  return written && closed;
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  if (file_ == nullptr) return;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) std::fputc(',', file_);
    const std::string escaped = CsvEscape(cells[i]);
    std::fwrite(escaped.data(), 1, escaped.size(), file_);
  }
  std::fputc('\n', file_);
}

std::string CsvEscape(const std::string& field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace tmotif
