#include <gtest/gtest.h>

#include <map>

#include "test_util.h"

namespace parparaw {
namespace {

// Reconstructs (column, row) -> value from the tag step's outputs for the
// record-tag mode.
std::map<std::pair<uint32_t, uint32_t>, std::string> FieldsFromTags(
    const PipelineState& state) {
  std::map<std::pair<uint32_t, uint32_t>, std::string> fields;
  for (size_t i = 0; i < state.css.size(); ++i) {
    fields[{state.col_tags[i], state.rec_tags[i]}] +=
        static_cast<char>(state.css[i]);
  }
  return fields;
}

TEST(TagStepTest, Figure4Example) {
  // The running example of Figs. 3-5. Inspects the per-symbol tag
  // sidebands, so it pins the symbol-sort transposition explicitly.
  const std::string input =
      "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", "
      "black\"\n";
  ParseOptions options;
  options.chunk_size = 10;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->RunThroughTagging().ok());

  EXPECT_EQ(h->state.num_records, 2);
  EXPECT_EQ(h->state.num_out_rows, 2);
  EXPECT_EQ(h->state.num_partitions, 3u);
  EXPECT_EQ(h->state.min_columns, 3u);
  EXPECT_EQ(h->state.max_columns, 3u);

  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.at({0, 0}), "1941");
  EXPECT_EQ(fields.at({1, 0}), "199.99");
  EXPECT_EQ(fields.at({2, 0}), "Bookcase");
  EXPECT_EQ(fields.at({0, 1}), "1938");
  EXPECT_EQ(fields.at({1, 1}), "19.99");
  // Escaped quotes unescape to single quotes; the quoted newline stays.
  EXPECT_EQ(fields.at({2, 1}), "Frame\n\"Ribba\", black");
}

class TaggingChunkSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TaggingChunkSweep, TagsAreChunkSizeInvariant) {
  const std::string input =
      "a,\"b,\n\",c\n,,\nx,\"\"\"q\"\"\",z\ntrailing,1,2";
  ParseOptions base;
  base.chunk_size = 1 << 20;
  base.transpose_mode = TransposeMode::kSymbolSort;
  auto reference = StepHarness::Make(input, base);
  ASSERT_TRUE(reference->RunThroughTagging().ok());

  ParseOptions options;
  options.chunk_size = GetParam();
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());

  EXPECT_EQ(h->state.num_out_rows, reference->state.num_out_rows);
  EXPECT_EQ(h->state.css, reference->state.css);
  EXPECT_EQ(h->state.col_tags, reference->state.col_tags);
  EXPECT_EQ(h->state.rec_tags, reference->state.rec_tags);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, TaggingChunkSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 11, 31, 64));

TEST(TagStepTest, InlineTerminatedModeFigure6) {
  // Fig. 6's sample: 0,"Apples"\n1,\n2,"Pears"\n — column 1's CSS is
  // Apples\x1F\x1FPears\x1F (empty field = bare terminator).
  const std::string input = "0,\"Apples\"\n1,\n2,\"Pears\"\n";
  ParseOptions options;
  options.chunk_size = 5;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  const int64_t begin = h->state.column_css_offsets[1];
  const int64_t end = h->state.column_css_offsets[2];
  std::string css(h->state.css.begin() + begin, h->state.css.begin() + end);
  EXPECT_EQ(css, "Apples\x1F\x1FPears\x1F");
}

TEST(TagStepTest, VectorDelimitedModeKeepsDelimiterBytes) {
  const std::string input = "0,\"Apples\"\n1,\n2,\"Pears\"\n";
  ParseOptions options;
  options.chunk_size = 6;
  options.tagging_mode = TaggingMode::kVectorDelimited;
  options.transpose_mode = TransposeMode::kSymbolSort;  // reads field_end
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  const int64_t begin = h->state.column_css_offsets[1];
  const int64_t end = h->state.column_css_offsets[2];
  std::string css(h->state.css.begin() + begin, h->state.css.begin() + end);
  EXPECT_EQ(css, "Apples\n\nPears\n");
  // Field-end marks sit exactly on the delimiter slots.
  int marks = 0;
  for (int64_t i = begin; i < end; ++i) {
    if (h->state.field_end[i]) {
      ++marks;
      EXPECT_EQ(h->state.css[i], static_cast<uint8_t>('\n'));
    }
  }
  EXPECT_EQ(marks, 3);
}

// Runs the tag step in the inline-terminated mode over `input` with the
// default terminator (0x1F) and returns its status.
Status TagInlineTerminated(const std::string& input, TransposeMode mode,
                           size_t chunk_size,
                           std::vector<int> skip_columns = {},
                           std::vector<int64_t> skip_records = {},
                           ColumnCountPolicy policy =
                               ColumnCountPolicy::kRobust) {
  ParseOptions options;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  options.transpose_mode = mode;
  options.chunk_size = chunk_size;
  options.skip_columns = std::move(skip_columns);
  options.skip_records = std::move(skip_records);
  options.column_count_policy = policy;
  auto h = StepHarness::Make(input, options);
  return h->RunThroughTagging();
}

// The collision check follows each field across chunk boundaries and
// applies the same keep decision as the emission: a terminator byte in a
// kept field fails the parse wherever the chunk boundaries fall, one in a
// skipped column or a dropped record does not.
void ExpectTerminatorCollisionsFollowFields(TransposeMode mode) {
  // Field 1 ("bcdefgh", bytes 2..8) spans several chunks; bytes 3, 6 and 8
  // sit in its first, a middle and its last chunk for chunk sizes 3..5.
  for (size_t pos : {2u, 3u, 6u, 8u}) {
    std::string input = "a,bcdefgh,i\nj,k,l\n";
    input[pos] = 0x1F;
    for (size_t chunk : {1u, 2u, 3u, 4u, 5u, 64u}) {
      const std::string context =
          "pos=" + std::to_string(pos) + " chunk=" + std::to_string(chunk);
      const Status kept = TagInlineTerminated(input, mode, chunk);
      EXPECT_FALSE(kept.ok()) << context;
      EXPECT_EQ(kept.code(), StatusCode::kParseError) << context;
      EXPECT_TRUE(TagInlineTerminated(input, mode, chunk, {1}).ok())
          << context;
      EXPECT_TRUE(TagInlineTerminated(input, mode, chunk, {}, {0}).ok())
          << context;
    }
  }
  // A record dropped by the column-count policy: record 1 has one column
  // where two are expected.
  const std::string ragged = "a,b\n\x1F\nc,d\n";
  for (size_t chunk : {1u, 2u, 64u}) {
    EXPECT_FALSE(TagInlineTerminated(ragged, mode, chunk).ok()) << chunk;
    EXPECT_TRUE(TagInlineTerminated(ragged, mode, chunk, {}, {},
                                    ColumnCountPolicy::kReject)
                    .ok())
        << chunk;
  }
}

TEST(TagStepTest, InlineModeDetectsTerminatorCollision) {
  std::string input = "a,b\n";
  input[0] = 0x1F;  // the default terminator as field data
  ParseOptions options;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  auto h = StepHarness::Make(input, options);
  const Status st = h->RunThroughTagging();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  ExpectTerminatorCollisionsFollowFields(TransposeMode::kSymbolSort);
}

TEST(TagStepTest, RaggedRecordsCountsAndPartitions) {
  const std::string input = "1,Apples\n2\n3,Pears,extra\n";
  ParseOptions options;
  options.chunk_size = 4;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  ASSERT_EQ(h->state.num_records, 3);
  EXPECT_EQ(h->state.record_column_counts[0], 2u);
  EXPECT_EQ(h->state.record_column_counts[1], 1u);
  EXPECT_EQ(h->state.record_column_counts[2], 3u);
  EXPECT_EQ(h->state.min_columns, 1u);
  EXPECT_EQ(h->state.max_columns, 3u);
  EXPECT_EQ(h->state.num_partitions, 3u);
}

TEST(TagStepTest, RejectPolicyDropsInconsistentRecords) {
  const std::string input = "1,Apples\n2\n3,Pears\n";
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kReject;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  EXPECT_EQ(h->state.num_out_rows, 2);
  EXPECT_EQ(h->state.record_dropped[1], 1);
  // Dropped records leave no tagged symbols.
  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.at({0, 0}), "1");
  EXPECT_EQ(fields.at({0, 1}), "3");  // row remapped from record 2
}

TEST(TagStepTest, ValidatePolicyErrorsOnInconsistency) {
  const std::string input = "1,Apples\n2\n";
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kValidate;
  auto h = StepHarness::Make(input, options);
  const Status st = h->RunThroughTagging();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("record 1"), std::string::npos)
      << st.message();
}

TEST(TagStepTest, SkipRecordsDropsRequestedIndices) {
  const std::string input = "r0,a\nr1,b\nr2,c\nr3,d\n";
  ParseOptions options;
  options.skip_records = {1, 3};
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  EXPECT_EQ(h->state.num_out_rows, 2);
  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.at({0, 0}), "r0");
  EXPECT_EQ(fields.at({0, 1}), "r2");
}

TEST(TagStepTest, SkipColumnsDropsSymbols) {
  const std::string input = "a,bb,c\nd,ee,f\n";
  ParseOptions options;
  options.skip_columns = {1};
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.count({1, 0}), 0u);
  EXPECT_EQ(fields.count({1, 1}), 0u);
  EXPECT_EQ(fields.at({0, 0}), "a");
  EXPECT_EQ(fields.at({2, 1}), "f");
}

TEST(TagStepTest, ExcludeTrailingRecordForStreaming) {
  const std::string input = "a,b\npartial,rec";
  ParseOptions options;
  options.exclude_trailing_record = true;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  EXPECT_EQ(h->state.num_records, 2);
  EXPECT_EQ(h->state.num_out_rows, 1);
  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.count({0, 1}), 0u);
}

TEST(PartitionStepTest, SymbolsGroupedByColumnInRecordOrder) {
  const std::string input = "a1,b1\na2,b2\na3,b3\n";
  ParseOptions options;
  options.chunk_size = 3;
  options.transpose_mode = TransposeMode::kSymbolSort;  // reads rec_tags
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  ASSERT_EQ(h->state.column_histogram.size(), 2u);
  EXPECT_EQ(h->state.column_histogram[0], 6u);
  EXPECT_EQ(h->state.column_histogram[1], 6u);
  std::string col0(h->state.css.begin(), h->state.css.begin() + 6);
  std::string col1(h->state.css.begin() + 6, h->state.css.end());
  EXPECT_EQ(col0, "a1a2a3");
  EXPECT_EQ(col1, "b1b2b3");
  // Record tags stay aligned with their symbols.
  EXPECT_EQ(h->state.rec_tags[0], 0u);
  EXPECT_EQ(h->state.rec_tags[2], 1u);
  EXPECT_EQ(h->state.rec_tags[4], 2u);
}

TEST(PartitionStepTest, EmptyInputProducesEmptyPartitions) {
  ParseOptions options;
  auto h = StepHarness::Make("\n", options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  // One empty record: no symbols at all, one partition from max col 0.
  EXPECT_EQ(h->state.css.size(), 0u);
}

// --- TransposeMode::kFieldGather step-level tests. The differential suite
// (transpose_differential_test.cc) proves whole-table equivalence; these
// pin the intermediate layout the gather path promises. ---

// Runs the same input through both transpose modes and asserts the CSS
// buffer and its per-column offsets come out byte-identical.
void ExpectGatherCssMatchesSymbolSort(const std::string& input,
                                      ParseOptions options) {
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto symbol = StepHarness::Make(input, options);
  ASSERT_NE(symbol, nullptr);
  ASSERT_TRUE(symbol->RunThroughPartition().ok());

  options.transpose_mode = TransposeMode::kFieldGather;
  auto gather = StepHarness::Make(input, options);
  ASSERT_NE(gather, nullptr);
  ASSERT_TRUE(gather->RunThroughPartition().ok());

  EXPECT_EQ(gather->state.num_partitions, symbol->state.num_partitions);
  EXPECT_EQ(gather->state.column_css_offsets,
            symbol->state.column_css_offsets);
  EXPECT_EQ(gather->state.column_histogram, symbol->state.column_histogram);
  EXPECT_EQ(gather->state.css, symbol->state.css);
}

TEST(FieldGatherTest, CssMatchesSymbolSortOnFigure4) {
  const std::string input =
      "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", "
      "black\"\n";
  ParseOptions options;
  options.chunk_size = 10;
  ExpectGatherCssMatchesSymbolSort(input, options);
}

TEST(FieldGatherTest, CssMatchesSymbolSortAcrossTaggingModes) {
  const std::string input = "0,\"Apples\"\n1,\n2,\"Pears\"\n";
  for (TaggingMode mode :
       {TaggingMode::kRecordTags, TaggingMode::kInlineTerminated,
        TaggingMode::kVectorDelimited}) {
    ParseOptions options;
    options.chunk_size = 5;
    options.tagging_mode = mode;
    ExpectGatherCssMatchesSymbolSort(input, options);
  }
}

TEST(FieldGatherTest, CssMatchesSymbolSortWithDropsAndSkips) {
  const std::string input = "r0,a,x\nr1,b,y\nr2\nr3,d,z\npartial,rec";
  ParseOptions options;
  options.chunk_size = 7;
  options.skip_records = {1};
  options.skip_columns = {1};
  options.column_count_policy = ColumnCountPolicy::kReject;
  options.exclude_trailing_record = true;
  ExpectGatherCssMatchesSymbolSort(input, options);
}

TEST(FieldGatherTest, EntriesGroupByColumnInRecordOrder) {
  const std::string input = "a1,b1\na2,b2\na3,b3\n";
  ParseOptions options;
  options.chunk_size = 3;
  options.transpose_mode = TransposeMode::kFieldGather;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  ASSERT_EQ(h->state.gather_entry_offsets.size(), 3u);
  EXPECT_EQ(h->state.gather_entry_offsets[0], 0);
  EXPECT_EQ(h->state.gather_entry_offsets[1], 3);
  EXPECT_EQ(h->state.gather_entry_offsets[2], 6);
  std::string col0(h->state.css.begin(), h->state.css.begin() + 6);
  std::string col1(h->state.css.begin() + 6, h->state.css.end());
  EXPECT_EQ(col0, "a1a2a3");
  EXPECT_EQ(col1, "b1b2b3");
  for (int64_t k = 0; k < 3; ++k) {
    const FieldEntry& entry = h->state.gather_entries[k];
    EXPECT_EQ(entry.row, k);
    EXPECT_EQ(entry.offset, k * 2);
    EXPECT_EQ(entry.length, 2);
  }
}

TEST(FieldGatherTest, ChunkSizeInvariant) {
  const std::string input =
      "a,\"b,\n\",c\n,,\nx,\"\"\"q\"\"\",z\ntrailing,1,2";
  ParseOptions base;
  base.chunk_size = 1 << 20;
  base.transpose_mode = TransposeMode::kFieldGather;
  auto reference = StepHarness::Make(input, base);
  ASSERT_TRUE(reference->RunThroughPartition().ok());
  for (size_t chunk : {1u, 2u, 3u, 5u, 7u, 11u, 31u, 64u}) {
    ParseOptions options;
    options.chunk_size = chunk;
    options.transpose_mode = TransposeMode::kFieldGather;
    auto h = StepHarness::Make(input, options);
    ASSERT_TRUE(h->RunThroughPartition().ok()) << "chunk=" << chunk;
    EXPECT_EQ(h->state.css, reference->state.css) << "chunk=" << chunk;
    EXPECT_EQ(h->state.column_css_offsets,
              reference->state.column_css_offsets)
        << "chunk=" << chunk;
    EXPECT_EQ(h->state.gather_entry_offsets,
              reference->state.gather_entry_offsets)
        << "chunk=" << chunk;
  }
}

TEST(FieldGatherTest, InlineModeDetectsTerminatorCollision) {
  std::string input = "a,b\n";
  input[0] = 0x1F;  // the default terminator as field data
  ParseOptions options;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  options.transpose_mode = TransposeMode::kFieldGather;
  auto h = StepHarness::Make(input, options);
  const Status st = h->RunThroughTagging();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  ExpectTerminatorCollisionsFollowFields(TransposeMode::kFieldGather);
}

// Satellite: adversarial delimiter-dense records must fail with a bounded
// ParseError instead of growing per-column tables without limit.
TEST(TagStepTest, MaxRecordColumnsRejectsAdversarialRow) {
  ParseOptions options;
  options.max_record_columns = 8;
  const std::string input = "ok,row\n" + std::string(63, ',') + "\nnext,r\n";
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    options.transpose_mode = mode;
    auto h = StepHarness::Make(input, options);
    const Status st = h->RunThroughTagging();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    // The error names the offending record and its byte span.
    EXPECT_NE(st.message().find("record 1"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("bytes 7..70"), std::string::npos)
        << st.message();
  }
}

// The full max_record_columns error for a record and its byte span.
std::string MaxColumnsError(int64_t record, int64_t begin, int64_t end,
                            uint32_t limit) {
  return "record " + std::to_string(record) + " (bytes " +
         std::to_string(begin) + ".." + std::to_string(end) +
         ") has more than " + std::to_string(limit) +
         " columns (ParseOptions::max_record_columns); raise the limit for "
         "genuinely wide data";
}

// Both transpose modes, at chunk sizes that put the crossing delimiter at
// different mask-block and chunk positions, report the same text.
void ExpectMaxColumnsError(const std::string& input, uint32_t limit,
                           const std::string& want) {
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    for (size_t chunk : {1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u, 2048u}) {
      ParseOptions options;
      options.max_record_columns = limit;
      options.transpose_mode = mode;
      options.chunk_size = chunk;
      auto h = StepHarness::Make(input, options);
      const Status st = h->RunThroughTagging();
      ASSERT_FALSE(st.ok()) << "chunk=" << chunk;
      EXPECT_EQ(st.code(), StatusCode::kParseError);
      EXPECT_EQ(st.message(), want) << "chunk=" << chunk;
    }
  }
}

TEST(TagStepTest, MaxRecordColumnsCrossedMidWord) {
  // Record 1 spans bytes 7..27; its 8th comma (column 8) is byte 14.
  ExpectMaxColumnsError("ok,row\n" + std::string(20, ',') + "\nnext,r\n", 8,
                        MaxColumnsError(1, 7, 27, 8));
}

TEST(TagStepTest, MaxRecordColumnsCrossedAtWordEdges) {
  // Record 1's 8th comma is byte 64: bit 0 of the second mask block (and of
  // the first block of chunk 1 at chunk size 64).
  ExpectMaxColumnsError(std::string(56, 'x') + "\n" + std::string(8, ',') +
                            "y\n",
                        8, MaxColumnsError(1, 57, 66, 8));
  // ... and byte 63: the last bit of the first block.
  ExpectMaxColumnsError(std::string(55, 'x') + "\n" + std::string(8, ',') +
                            "y\n",
                        8, MaxColumnsError(1, 56, 65, 8));
}

TEST(TagStepTest, MaxRecordColumnsChunkEnteredPastLimit) {
  // Record 1 (bytes 4..16) has 12 commas; at small chunk sizes later
  // chunks are entered with the column already at or past the limit of 4,
  // and the earliest crossing (byte 7) still decides the report.
  ExpectMaxColumnsError("a,b\n" + std::string(12, ',') + "\nc\n", 4,
                        MaxColumnsError(1, 4, 16, 4));
}

TEST(TagStepTest, MaxRecordColumnsAllowsLimitExactly) {
  ParseOptions options;
  options.max_record_columns = 4;
  auto h = StepHarness::Make("a,b,c,d\n", options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  EXPECT_EQ(h->state.max_columns, 4u);
}

}  // namespace
}  // namespace parparaw
