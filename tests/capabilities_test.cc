#include <gtest/gtest.h>

#include <string>

#include "core/parser.h"
#include "dfa/formats.h"

namespace parparaw {
namespace {

TEST(CapabilitiesTest, SkipRowsPrunesHeader) {
  ParseOptions options;
  options.schema.AddField(Field("id", DataType::Int64()));
  options.schema.AddField(Field("name", DataType::String()));
  options.skip_rows = 1;
  auto result = Parser::Parse("id,name\n1,a\n2,b\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(0), 1);
}

TEST(CapabilitiesTest, SkipRowsAreRawLinesNotRecords) {
  // A quoted newline makes record 0 span two physical rows; skipping two
  // rows cuts into the middle of it — rows are raw lines by design (§4.3).
  ParseOptions options;
  options.skip_rows = 2;
  auto result = Parser::Parse("\"a\nb\",x\nsecond,y\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 1);
  EXPECT_EQ(result->table.columns[0].StringValue(0), "second");
}

TEST(CapabilitiesTest, SkipMoreRowsThanExist) {
  ParseOptions options;
  options.skip_rows = 10;
  auto result = Parser::Parse("a,b\nc,d\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_rows, 0);
}

TEST(CapabilitiesTest, SkipRecordsRemovesRows) {
  ParseOptions options;
  options.skip_records = {0, 2};
  auto result = Parser::Parse("r0\nr1\nr2\nr3\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[0].StringValue(0), "r1");
  EXPECT_EQ(result->table.columns[0].StringValue(1), "r3");
  EXPECT_EQ(result->records_dropped, 2);
}

TEST(CapabilitiesTest, SelectColumnsViaSkip) {
  ParseOptions options;
  options.schema.AddField(Field("a", DataType::Int64()));
  options.schema.AddField(Field("b", DataType::String()));
  options.schema.AddField(Field("c", DataType::Int64()));
  options.skip_columns = {1};
  auto result = Parser::Parse("1,middle,3\n4,x,6\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_columns(), 2);
  EXPECT_EQ(result->table.schema.field(0).name, "a");
  EXPECT_EQ(result->table.schema.field(1).name, "c");
  EXPECT_EQ(result->table.columns[1].Value<int64_t>(1), 6);
}

TEST(CapabilitiesTest, InferNumberOfColumns) {
  ParseOptions options;  // no schema
  auto result = Parser::Parse("a,b,c\nd,e,f\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_columns(), 3);
  EXPECT_EQ(result->min_columns, 3u);
  EXPECT_EQ(result->max_columns, 3u);
}

TEST(CapabilitiesTest, MinMaxColumnsReportedForRaggedInput) {
  ParseOptions options;
  auto result = Parser::Parse("a\nb,c\nd,e,f,g\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->min_columns, 1u);
  EXPECT_EQ(result->max_columns, 4u);
  EXPECT_EQ(result->table.num_columns(), 4);
}

TEST(CapabilitiesTest, TypeInference) {
  ParseOptions options;
  options.infer_types = true;
  auto result = Parser::Parse(
      "1,1.5,2020-01-01,2020-01-01 10:00:00,true,mixed\n"
      "2,2,2021-06-15,2021-06-15,false,7\n",
      options);
  ASSERT_TRUE(result.ok());
  const Schema& schema = result->table.schema;
  EXPECT_TRUE(schema.field(0).type == DataType::Int64());
  EXPECT_TRUE(schema.field(1).type == DataType::Float64());  // int ⊔ float
  EXPECT_TRUE(schema.field(2).type == DataType::Date32());
  EXPECT_TRUE(schema.field(3).type ==
              DataType::TimestampMicros());  // ts ⊔ date
  EXPECT_TRUE(schema.field(4).type == DataType::Bool());
  EXPECT_TRUE(schema.field(5).type == DataType::String());  // string ⊔ int
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(1), 2);
  EXPECT_DOUBLE_EQ(result->table.columns[1].Value<double>(1), 2.0);
}

TEST(CapabilitiesTest, InferenceWithEmptyColumnFallsBackToString) {
  ParseOptions options;
  options.infer_types = true;
  auto result = Parser::Parse("1,\n2,\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->table.schema.field(0).type == DataType::Int64());
  EXPECT_TRUE(result->table.schema.field(1).type == DataType::String());
}

TEST(CapabilitiesTest, RejectPolicyWithSchema) {
  ParseOptions options;
  options.schema.AddField(Field("a", DataType::String()));
  options.schema.AddField(Field("b", DataType::String()));
  options.column_count_policy = ColumnCountPolicy::kReject;
  auto result = Parser::Parse("x,y\nshort\nz,w\np,q,extra\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[0].StringValue(0), "x");
  EXPECT_EQ(result->table.columns[0].StringValue(1), "z");
  EXPECT_EQ(result->records_dropped, 2);
}

TEST(CapabilitiesTest, RejectPolicyWithoutSchemaUsesMaxCount) {
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kReject;
  auto result = Parser::Parse("a,b,c\nshort\nd,e,f\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.num_columns(), 3);
}

TEST(CapabilitiesTest, ValidatePolicy) {
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kValidate;
  EXPECT_TRUE(Parser::Parse("a,b\nc,d\n", options).ok());
  EXPECT_FALSE(Parser::Parse("a,b\nc\n", options).ok());
}

TEST(CapabilitiesTest, RejectCombinesWithSkipRecords) {
  // Skipped records are exempt from the column-count check.
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kValidate;
  options.skip_records = {1};
  auto result = Parser::Parse("a,b\nBROKEN\nc,d\n", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows, 2);
}

TEST(CapabilitiesTest, BlockAndDeviceCollaborationLevels) {
  // Force tiny thresholds so every collaboration path runs.
  const std::string big_a(1000, 'A');
  const std::string big_b(5000, 'B');
  ParseOptions options;
  options.schema.AddField(Field("id", DataType::Int64()));
  options.schema.AddField(Field("text", DataType::String()));
  options.block_collaboration_threshold = 64;
  options.device_collaboration_threshold = 2000;
  const std::string input =
      "1,short\n2," + big_a + "\n3," + big_b + "\n4,tiny\n";
  auto result = Parser::Parse(input, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 4);
  EXPECT_EQ(result->table.columns[1].StringValue(0), "short");
  EXPECT_EQ(result->table.columns[1].StringValue(1), big_a);
  EXPECT_EQ(result->table.columns[1].StringValue(2), big_b);
  EXPECT_EQ(result->table.columns[1].StringValue(3), "tiny");
}

TEST(CapabilitiesTest, DefaultsLongerThanDeviceThresholdAreCopied) {
  // A default over the device threshold is not a CSS field: it must be
  // copied in place, not deferred to the per-field device-level copy.
  const std::string long_default(3000, 'D');
  const std::string big(2500, 'B');
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    ParseOptions options;
    options.transpose_mode = mode;
    options.schema.AddField(Field("id", DataType::Int64()));
    Field text("text", DataType::String());
    text.default_value = long_default;
    options.schema.AddField(text);
    options.block_collaboration_threshold = 64;
    options.device_collaboration_threshold = 2000;
    auto result = Parser::Parse("1,\n2," + big + "\n3\n", options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->table.num_rows, 3);
    EXPECT_EQ(result->table.columns[1].StringValue(0), long_default);
    EXPECT_EQ(result->table.columns[1].StringValue(1), big);
    EXPECT_EQ(result->table.columns[1].StringValue(2), long_default);
  }
}

TEST(CapabilitiesTest, NotNullableColumnRejectsNullRows) {
  ParseOptions options;
  options.schema.AddField(Field("id", DataType::Int64(), /*nullable=*/false));
  auto result = Parser::Parse("1\n\n3\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 3);
  EXPECT_EQ(result->table.rejected[0], 0);
  EXPECT_EQ(result->table.rejected[1], 1);  // empty -> null -> reject
  EXPECT_EQ(result->table.rejected[2], 0);
}

TEST(CapabilitiesTest, SchemaWiderThanInputYieldsNullColumns) {
  ParseOptions options;
  options.schema.AddField(Field("a", DataType::String()));
  options.schema.AddField(Field("b", DataType::String()));
  options.schema.AddField(Field("c", DataType::String()));
  auto result = Parser::Parse("x,y\nz,w\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_columns(), 3);
  EXPECT_TRUE(result->table.columns[2].IsNull(0));
  EXPECT_TRUE(result->table.columns[2].IsNull(1));
}

TEST(CapabilitiesTest, ExtendedLogFormatEndToEnd) {
  auto format = ExtendedLogFormat();
  ASSERT_TRUE(format.ok());
  ParseOptions options;
  options.format = *format;
  const std::string input =
      "#Version: 1.0\n"
      "#Fields: date time method uri status\n"
      "2020-05-01 10:00:00 GET /index.html 200\n"
      "2020-05-01 10:00:01 POST \"/search q=a b\" 404\n";
  auto result = Parser::Parse(input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows, 2);
  ASSERT_EQ(result->table.num_columns(), 5);
  EXPECT_EQ(result->table.columns[2].StringValue(0), "GET");
  // The quoted URI keeps its embedded spaces.
  EXPECT_EQ(result->table.columns[3].StringValue(1), "/search q=a b");
  EXPECT_EQ(result->table.columns[4].StringValue(1), "404");
}

}  // namespace
}  // namespace parparaw
