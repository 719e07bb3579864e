#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace tmotif {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

TEST(LoadEdgeList, ParsesBasicTriples) {
  const std::string path = TempPath("basic.txt");
  WriteFile(path, "0 1 10\n1 2 20\n2 0 30\n");
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_events, 3u);
  EXPECT_EQ(result->graph.num_events(), 3);
  EXPECT_EQ(result->graph.event(1).src, 1);
  EXPECT_EQ(result->graph.event(1).time, 20);
  std::remove(path.c_str());
}

TEST(LoadEdgeList, ParsesDuration) {
  const std::string path = TempPath("duration.txt");
  WriteFile(path, "0 1 10 5\n");
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->graph.event(0).duration, 5);
  std::remove(path.c_str());
}

TEST(LoadEdgeList, FifthColumnIsParsedAndIgnored) {
  // A five-column line loads the same event as its four-column prefix,
  // whatever integer the fifth column holds; a non-numeric fifth token
  // still rejects its line.
  const std::string five = TempPath("five.txt");
  const std::string four = TempPath("four.txt");
  WriteFile(five, "0 1 10 5 2\n1 2 20 0 -9\n2 0 30 1 4000000000\n"
                  "0 2 40 0 x\n");
  WriteFile(four, "0 1 10 5\n1 2 20 0\n2 0 30 1\n");
  const auto with_fifth = LoadEdgeList(five);
  const auto prefix = LoadEdgeList(four);
  ASSERT_TRUE(with_fifth.has_value());
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(with_fifth->graph.events(), prefix->graph.events());
  EXPECT_EQ(with_fifth->num_events, 3u);
  ASSERT_EQ(with_fifth->errors.size(), 1u);
  EXPECT_EQ(with_fifth->errors[0].line, 4u);
  EXPECT_EQ(with_fifth->errors[0].message, "non-numeric field");
  std::remove(five.c_str());
  std::remove(four.c_str());
}

TEST(LoadEdgeList, SkipsCommentsAndBlankLines) {
  const std::string path = TempPath("comments.txt");
  WriteFile(path, "# header\n% matrix-market style\n\n0 1 10\n");
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_events, 1u);
  EXPECT_EQ(result->num_bad_lines, 0u);
  std::remove(path.c_str());
}

TEST(LoadEdgeList, SkipsAndCountsSelfLoops) {
  const std::string path = TempPath("selfloop.txt");
  WriteFile(path, "3 3 10\n0 1 20\n");
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_events, 1u);
  EXPECT_EQ(result->num_skipped_self_loops, 1u);
  std::remove(path.c_str());
}

TEST(LoadEdgeList, CountsMalformedLines) {
  const std::string path = TempPath("bad.txt");
  WriteFile(path, "0 1\nnot numbers at all\n0 1 10\n-1 2 5\n");
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_events, 1u);
  EXPECT_EQ(result->num_bad_lines, 3u);
  std::remove(path.c_str());
}

TEST(LoadEdgeList, CompactNodeIdsRemapsSparseIds) {
  const std::string path = TempPath("sparse.txt");
  WriteFile(path, "1000000 2000000 1\n2000000 1000000 2\n");
  EdgeListOptions options;
  options.compact_node_ids = true;
  const auto result = LoadEdgeList(path, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->graph.num_nodes(), 2);
  EXPECT_EQ(result->graph.event(0).src, 0);
  EXPECT_EQ(result->graph.event(1).src, 1);
  std::remove(path.c_str());
}

TEST(LoadEdgeList, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadEdgeList("/no/such/file.txt").has_value());
}

TEST(LoadEdgeList, MissingFileFillsErrorString) {
  std::string error;
  EXPECT_FALSE(LoadEdgeList("/no/such/file.txt", {}, &error).has_value());
  EXPECT_NE(error.find("/no/such/file.txt"), std::string::npos);
  EXPECT_NE(error.find("No such file"), std::string::npos);
}

TEST(LoadEdgeList, ReadErrorIsAnError) {
  // A directory opens for reading, but every read fails (EISDIR): that is
  // an error like a missing file, not an empty edge list.
  const std::string dir = ::testing::TempDir();
  std::string error;
  EXPECT_FALSE(LoadEdgeList(dir, {}, &error).has_value());
  EXPECT_EQ(error.find(dir + ": "), 0u);
  EXPECT_NE(error.find("Is a directory"), std::string::npos);
}

TEST(LoadEdgeList, LineWithANulByteIsMalformed) {
  // The field scan stops at a NUL, but the bytes after it are still part of
  // the line: "0 1 5\0junk" is as malformed as "0 1 5 junk".
  const std::string path = TempPath("nul.txt");
  const char content[] = "0 1 5\0junk\n1 2 9\n";
  WriteFile(path, std::string(content, sizeof(content) - 1));
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_events, 1u);
  EXPECT_EQ(result->graph.event(0).src, 1);
  EXPECT_EQ(result->num_bad_lines, 1u);
  ASSERT_EQ(result->errors.size(), 1u);
  EXPECT_EQ(result->errors[0].line, 1u);
  EXPECT_EQ(result->errors[0].message, "NUL byte in line");
  std::remove(path.c_str());
}

TEST(LoadEdgeList, ReportsStructuredErrorsWithPhysicalLineNumbers) {
  const std::string path = TempPath("structured.txt");
  // Blank and comment lines still advance the physical line counter, so
  // the reported numbers match what an editor shows.
  WriteFile(path,
            "# header\n"
            "\n"
            "0 1\n"                          // line 3: too few fields
            "not numbers at all\n"           // line 4: non-numeric
            "0 1 10\n"                       // line 5: fine
            "-1 2 5\n"                       // line 6: negative node id
            "1 2 999999999999999999999999\n"  // line 7: overflow
            "0 1 10 -4\n"                    // line 8: negative duration
            "0 1 10 4 5 6\n");               // line 9: 6 fields
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_events, 1u);
  EXPECT_EQ(result->num_bad_lines, 6u);
  ASSERT_EQ(result->errors.size(), 6u);
  EXPECT_EQ(result->errors[0].line, 3u);
  EXPECT_NE(result->errors[0].message.find("at least 3 fields"),
            std::string::npos);
  EXPECT_EQ(result->errors[1].line, 4u);
  EXPECT_NE(result->errors[1].message.find("non-numeric"), std::string::npos);
  EXPECT_EQ(result->errors[2].line, 6u);
  EXPECT_NE(result->errors[2].message.find("negative node id"),
            std::string::npos);
  EXPECT_EQ(result->errors[3].line, 7u);
  EXPECT_NE(result->errors[3].message.find("out of range"),
            std::string::npos);
  EXPECT_EQ(result->errors[4].line, 8u);
  EXPECT_NE(result->errors[4].message.find("negative duration"),
            std::string::npos);
  EXPECT_EQ(result->errors[5].line, 9u);
  EXPECT_NE(result->errors[5].message.find("trailing garbage"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(LoadEdgeList, RejectsRawNodeIdsBeyondInt32WithoutCompaction) {
  const std::string path = TempPath("wide_ids.txt");
  // INT32_MAX itself is out: the dense node count max id + 1 would
  // overflow the 32-bit id type.
  WriteFile(path, "5000000000 1 10\n0 2147483647 5\n0 1 20\n");
  const auto without = LoadEdgeList(path);
  ASSERT_TRUE(without.has_value());
  EXPECT_EQ(without->num_events, 1u);
  ASSERT_EQ(without->errors.size(), 2u);
  for (const auto& error : without->errors) {
    EXPECT_NE(error.message.find("32-bit id space"), std::string::npos);
  }

  EdgeListOptions compact;
  compact.compact_node_ids = true;  // Remapping makes wide ids legal.
  const auto with = LoadEdgeList(path, compact);
  ASSERT_TRUE(with.has_value());
  EXPECT_EQ(with->num_events, 3u);
  EXPECT_EQ(with->num_bad_lines, 0u);
  std::remove(path.c_str());
}

TEST(LoadEdgeList, ErrorRecordsAreCappedButTheCountIsNot) {
  const std::string path = TempPath("many_bad.txt");
  std::string content;
  for (int i = 0; i < 12; ++i) content += "bogus line\n";
  content += "0 1 10\n";
  WriteFile(path, content);
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_events, 1u);
  EXPECT_EQ(result->num_bad_lines, 12u);
  EXPECT_EQ(result->errors.size(), kMaxEdgeListErrors);
  std::remove(path.c_str());
}

TEST(LoadEdgeList, ToleratesCrlfLineEndings) {
  const std::string path = TempPath("crlf.txt");
  WriteFile(path, "0 1 10\r\n\r\n1 2 20\r\n");
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_events, 2u);
  EXPECT_EQ(result->num_bad_lines, 0u);
  std::remove(path.c_str());
}

// Lines longer than the loader's 64 KiB read block: a comment, an event
// whose whitespace spans three blocks, and a CRLF line without a final
// newline after a bad line, whose physical number must survive the splits.
TEST(LoadEdgeList, LinesLongerThanAReadBlock) {
  const std::string path = TempPath("long_lines.txt");
  const std::string comment = "#" + std::string(100000, 'x') + "\n";
  const std::string spaced = "0 1" + std::string(150000, ' ') + "7\n";
  WriteFile(path, comment + spaced + "not numbers\n1 2 9\r");
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_lines, 4u);
  EXPECT_EQ(result->num_events, 2u);
  EXPECT_EQ(result->graph.event(0).time, 7);
  EXPECT_EQ(result->graph.event(1).src, 1);
  ASSERT_EQ(result->errors.size(), 1u);
  EXPECT_EQ(result->errors[0].line, 3u);
  EXPECT_EQ(result->errors[0].message, "non-numeric field");
  std::remove(path.c_str());
}

TEST(SaveEdgeList, RoundTripsThroughLoad) {
  // Durations, a timestamp tie, negative time and a node with no events
  // below the largest id: the loaded graph holds the same events.
  TemporalGraphBuilder builder;
  builder.AddEvent(0, 1, 10, 3)
      .AddEvent(1, 2, 20)
      .AddEvent(2, 0, 20, 7)
      .AddEvent(4, 1, -5, 0)
      .AddEvent(1, 0, 10, 1);
  const TemporalGraph g = builder.Build();

  const std::string path = TempPath("save.txt");
  ASSERT_TRUE(SaveEdgeList(g, path));
  const auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_bad_lines, 0u);
  EXPECT_EQ(result->graph.events(), g.events());
  EXPECT_EQ(result->graph.num_nodes(), g.num_nodes());
  std::remove(path.c_str());
}

TEST(SaveEdgeList, FailsOnUnwritablePath) {
  const TemporalGraph g = GraphFromEvents({{0, 1, 1}});
  EXPECT_FALSE(SaveEdgeList(g, "/nonexistent-dir/out.txt"));
}

TEST(SaveEdgeList, FailsWhenAWriteFails) {
  // Every write to /dev/full fails with ENOSPC, though it opens: one event
  // fails at the final flush, 10,000 events (more than one stdio buffer)
  // in a write.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "no /dev/full on this system";
  std::fclose(probe);
  TemporalGraphBuilder builder;
  for (int i = 0; i < 10000; ++i) builder.AddEvent(0, 1, i);
  EXPECT_FALSE(SaveEdgeList(GraphFromEvents({{0, 1, 1}}), "/dev/full"));
  EXPECT_FALSE(SaveEdgeList(builder.Build(), "/dev/full"));
}

}  // namespace
}  // namespace tmotif
