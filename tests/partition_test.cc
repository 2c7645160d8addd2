#include <gtest/gtest.h>

#include <span>

#include "core/css_index.h"
#include "test_util.h"

namespace parparaw {
namespace {

TEST(CssIndexTest, RecordTagModeRunsAndOffsets) {
  // Figure 5's index: column 1 (decimals) has fields 199.99 and 19.99.
  const std::string input =
      "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\"\n";
  ParseOptions options;
  options.chunk_size = 7;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  std::vector<FieldEntry> scratch;
  auto index = BuildCssIndex(h->state, 1, &scratch);
  ASSERT_TRUE(index.ok());
  const std::span<const FieldEntry> fields = *index;
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].row, 0);
  EXPECT_EQ(fields[0].length, 6);  // "199.99"
  EXPECT_EQ(fields[1].row, 1);
  EXPECT_EQ(fields[1].length, 5);  // "19.99"
  // Offsets are consecutive within the column's CSS.
  EXPECT_EQ(fields[1].offset, fields[0].offset + 6);
  const std::string v0(
      h->state.css.begin() + fields[0].offset,
      h->state.css.begin() + fields[0].offset + fields[0].length);
  EXPECT_EQ(v0, "199.99");
}

TEST(CssIndexTest, RecordTagModeSkipsEmptyFields) {
  const std::string input = "a,1\nb,\nc,3\n";
  ParseOptions options;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  std::vector<FieldEntry> scratch;
  auto index = BuildCssIndex(h->state, 1, &scratch);
  ASSERT_TRUE(index.ok());
  const std::span<const FieldEntry> fields = *index;
  // The empty field of row 1 produces no run.
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].row, 0);
  EXPECT_EQ(fields[1].row, 2);
}

TEST(CssIndexTest, RecordTagModeTrailingEmptyFieldOfLastRecord) {
  // Regression: `a,b,` — the last record's trailing empty field ends at the
  // final newline or at the virtual record end (EOF with no newline). The
  // record must still count three columns while the empty field produces no
  // run, so conversion falls back to the column default.
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    for (const char* input : {"a,b,\n", "a,b,"}) {
      ParseOptions options;
      options.transpose_mode = mode;
      auto h = StepHarness::Make(input, options);
      ASSERT_TRUE(h->RunThroughPartition().ok());
      ASSERT_EQ(h->state.record_column_counts.size(), 1u) << input;
      EXPECT_EQ(h->state.record_column_counts[0], 3u) << input;
      std::vector<FieldEntry> scratch;
      auto index = BuildCssIndex(h->state, 2, &scratch);
      ASSERT_TRUE(index.ok());
      std::span<const FieldEntry> fields = *index;
      EXPECT_TRUE(fields.empty()) << input;
      // The non-empty sibling columns are unaffected.
      index = BuildCssIndex(h->state, 0, &scratch);
      ASSERT_TRUE(index.ok());
      fields = *index;
      ASSERT_EQ(fields.size(), 1u) << input;
      EXPECT_EQ(fields[0].length, 1) << input;
    }
  }
}

TEST(CssIndexTest, LoneDelimiterRecordHasNoRuns) {
  // `,` as the only record: two empty fields, zero kept symbols. Both
  // transpose modes agree that no column has a partition (num_partitions
  // is 0 when the CSS is empty) and every index lookup is empty.
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    for (const char* input : {",\n", ","}) {
      ParseOptions options;
      options.transpose_mode = mode;
      auto h = StepHarness::Make(input, options);
      ASSERT_TRUE(h->RunThroughPartition().ok());
      ASSERT_EQ(h->state.record_column_counts.size(), 1u) << input;
      EXPECT_EQ(h->state.record_column_counts[0], 2u) << input;
      std::vector<FieldEntry> scratch;
      for (uint32_t col = 0; col < 2; ++col) {
        auto index = BuildCssIndex(h->state, col, &scratch);
        ASSERT_TRUE(index.ok());
        const std::span<const FieldEntry> fields = *index;
        EXPECT_TRUE(fields.empty()) << input << " col " << col;
      }
    }
  }
}

TEST(CssIndexTest, InlineModeIncludesEmptyFields) {
  const std::string input = "a,1\nb,\nc,3\n";
  ParseOptions options;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  std::vector<FieldEntry> scratch;
  auto index = BuildCssIndex(h->state, 1, &scratch);
  ASSERT_TRUE(index.ok());
  const std::span<const FieldEntry> fields = *index;
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1].row, 1);
  EXPECT_EQ(fields[1].length, 0);  // empty field present with zero symbols
}

TEST(CssIndexTest, InlineModeInconsistentColumnsError) {
  const std::string input = "a,1\nonlyone\nc,3\n";
  ParseOptions options;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  std::vector<FieldEntry> scratch;
  const Status st = BuildCssIndex(h->state, 1, &scratch).status();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(CssIndexTest, VectorModeMatchesInlineMode) {
  const std::string input = "aa,bb\ncc,dd\nee,ff\n";
  ParseOptions inline_options;
  inline_options.tagging_mode = TaggingMode::kInlineTerminated;
  auto hi = StepHarness::Make(input, inline_options);
  ASSERT_TRUE(hi->RunThroughPartition().ok());

  ParseOptions vector_options;
  vector_options.tagging_mode = TaggingMode::kVectorDelimited;
  auto hv = StepHarness::Make(input, vector_options);
  ASSERT_TRUE(hv->RunThroughPartition().ok());

  for (uint32_t col = 0; col < 2; ++col) {
    std::vector<FieldEntry> scratch_i, scratch_v;
    auto index_i = BuildCssIndex(hi->state, col, &scratch_i);
    auto index_v = BuildCssIndex(hv->state, col, &scratch_v);
    ASSERT_TRUE(index_i.ok());
    ASSERT_TRUE(index_v.ok());
    const std::span<const FieldEntry> fi = *index_i;
    const std::span<const FieldEntry> fv = *index_v;
    ASSERT_EQ(fi.size(), fv.size());
    for (size_t k = 0; k < fi.size(); ++k) {
      EXPECT_EQ(fi[k].row, fv[k].row);
      EXPECT_EQ(fi[k].length, fv[k].length);
    }
  }
}

TEST(CssIndexTest, ColumnBeyondPartitionsIsEmpty) {
  ParseOptions options;
  auto h = StepHarness::Make("a,b\n", options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  std::vector<FieldEntry> scratch;
  auto index = BuildCssIndex(h->state, 7, &scratch);
  ASSERT_TRUE(index.ok());
  const std::span<const FieldEntry> fields = *index;
  EXPECT_TRUE(fields.empty());
}

TEST(CollectPositionsTest, MatchesSequentialFilter) {
  ThreadPool pool(4);
  const int64_t n = 100000;
  std::vector<int64_t> got;
  CollectPositions(&pool, n, [](int64_t i) { return i % 7 == 3; }, &got);
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 7 == 3) expected.push_back(i);
  }
  EXPECT_EQ(got, expected);
}

TEST(CollectPositionsTest, EmptyAndAll) {
  ThreadPool pool(2);
  std::vector<int64_t> got;
  CollectPositions(&pool, 0, [](int64_t) { return true; }, &got);
  EXPECT_TRUE(got.empty());
  CollectPositions(&pool, 5, [](int64_t) { return true; }, &got);
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  CollectPositions(&pool, 5, [](int64_t) { return false; }, &got);
  EXPECT_TRUE(got.empty());
}

class PartitionChunkSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PartitionChunkSweep, HistogramInvariantUnderChunkSize) {
  const std::string input =
      "aaa,b,cc\ndddd,ee,f\n,gg,\nhh,i,jjjj\n";
  ParseOptions options;
  options.chunk_size = GetParam();
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  ASSERT_EQ(h->state.column_histogram.size(), 3u);
  EXPECT_EQ(h->state.column_histogram[0], 3u + 4u + 0u + 2u);
  EXPECT_EQ(h->state.column_histogram[1], 1u + 2u + 2u + 1u);
  EXPECT_EQ(h->state.column_histogram[2], 2u + 1u + 0u + 4u);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, PartitionChunkSweep,
                         ::testing::Values(1, 3, 5, 9, 31));

}  // namespace
}  // namespace parparaw
