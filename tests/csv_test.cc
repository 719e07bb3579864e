#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace tmotif {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(CsvEscape, PlainFieldsUnchanged) {
  EXPECT_EQ(CsvEscape("hello"), "hello");
  EXPECT_EQ(CsvEscape("123"), "123");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(CsvEscape, QuotesSpecialCharacters) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

std::string ReadFile(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return out;
  int ch;
  while ((ch = std::fgetc(f)) != EOF) out.push_back(static_cast<char>(ch));
  std::fclose(f);
  return out;
}

TEST(CsvWriter, WritesEscapedRows) {
  const std::string path = TempPath("rows.csv");
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"motif", "count", "note"});
    writer.WriteRow({"010102", "42", "has,comma"});
    writer.WriteRow({"011202", "7", "quote\"inside"});
    EXPECT_TRUE(writer.Close());
  }
  EXPECT_EQ(ReadFile(path),
            "motif,count,note\n"
            "010102,42,\"has,comma\"\n"
            "011202,7,\"quote\"\"inside\"\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, UnwritablePathReportsNotOk) {
  CsvWriter writer("/nonexistent-dir/file.csv");
  EXPECT_FALSE(writer.ok());
  writer.WriteRow({"ignored"});  // Must not crash.
  EXPECT_FALSE(writer.Close());
}

TEST(CsvWriter, FailedWriteFailsClose) {
  // /dev/full opens but every write fails with ENOSPC; the rows sit in the
  // stdio buffer, so the failure shows at the flush Close does.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "no /dev/full on this system";
  std::fclose(probe);
  CsvWriter writer("/dev/full");
  ASSERT_TRUE(writer.ok());
  writer.WriteRow({"motif", "count"});
  EXPECT_FALSE(writer.Close());
  EXPECT_FALSE(writer.ok());
}

}  // namespace
}  // namespace tmotif
