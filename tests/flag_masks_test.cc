#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dfa/flag_masks.h"
#include "dialect/dialect.h"
#include "simd/simd_kernels.h"
#include "test_util.h"
#include "text/unicode.h"

namespace parparaw {
namespace {

// splitmix64: a small deterministic generator for seeded inputs.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

// --- The mask builder against a per-byte reference. ---

// Per-byte reference for LoadFlagMasks over bytes [0, n) of p.
FlagMasks ReferenceMasks(const uint8_t* p, size_t n) {
  FlagMasks m;
  m.size = static_cast<unsigned>(std::min<size_t>(n, 64));
  for (unsigned j = 0; j < m.size; ++j) {
    if (p[j] & kSymbolRecordDelimiter) m.record |= uint64_t{1} << j;
    if (p[j] & kSymbolFieldDelimiter) m.field |= uint64_t{1} << j;
    if (p[j] & kSymbolControl) m.control |= uint64_t{1} << j;
  }
  return m;
}

void ExpectMasksEqual(const FlagMasks& want, const FlagMasks& got,
                      const std::string& context) {
  EXPECT_EQ(want.size, got.size) << context;
  EXPECT_EQ(want.record, got.record) << context;
  EXPECT_EQ(want.field, got.field) << context;
  EXPECT_EQ(want.control, got.control) << context;
  EXPECT_EQ(want.values(), got.values()) << context;
}

TEST(FlagMasksTest, BitsBelowCoversBothEdges) {
  EXPECT_EQ(BitsBelow(0), 0u);
  EXPECT_EQ(BitsBelow(1), 1u);
  EXPECT_EQ(BitsBelow(63), 0x7FFFFFFFFFFFFFFFull);
  EXPECT_EQ(BitsBelow(64), ~uint64_t{0});
  for (unsigned n = 0; n <= 64; ++n) {
    EXPECT_EQ(std::popcount(BitsBelow(n)), static_cast<int>(n)) << n;
  }
  EXPECT_EQ(HighestBit(1), 0u);
  EXPECT_EQ(HighestBit(uint64_t{1} << 63), 63u);
  EXPECT_EQ(HighestBit(~uint64_t{0}), 63u);
}

TEST(FlagMasksTest, EveryFlagCombinationAtEveryPosition) {
  // All 8 combinations of the three SymbolFlags bits, alone at each of the
  // 64 positions of a full block.
  for (uint8_t combo = 0; combo < 8; ++combo) {
    for (unsigned j = 0; j < 64; ++j) {
      std::vector<uint8_t> flags(64, 0);
      flags[j] = combo;
      const std::string context =
          "combo=" + std::to_string(combo) + " j=" + std::to_string(j);
      ExpectMasksEqual(ReferenceMasks(flags.data(), 64),
                       LoadFlagMasks(flags.data(), 64), context);
    }
  }
}

TEST(FlagMasksTest, EveryLengthAndUnalignedStart) {
  Rng rng(7);
  for (size_t offset = 0; offset < 9; ++offset) {
    for (size_t n = 0; n <= 64; ++n) {
      // Exactly offset + n bytes on the heap, so a read past the last flag
      // byte is an out-of-bounds read under AddressSanitizer.
      std::vector<uint8_t> buffer(offset + n);
      for (uint8_t& b : buffer) {
        // Mostly SymbolFlags values; some bytes carry stray high bits that
        // must not leak into any mask.
        b = static_cast<uint8_t>(rng.Next() % 4 == 0 ? rng.Next()
                                                     : rng.Next() % 8);
      }
      const uint8_t* p = buffer.data() + offset;
      const std::string context =
          "offset=" + std::to_string(offset) + " n=" + std::to_string(n);
      const FlagMasks got = LoadFlagMasks(p, n);
      ExpectMasksEqual(ReferenceMasks(p, n), got, context);
      // No bit at or past n.
      EXPECT_EQ((got.record | got.field | got.control | got.values()) &
                    ~BitsBelow(static_cast<unsigned>(n)),
                0u)
          << context;
    }
  }
}

TEST(FlagMasksTest, ByteEqualMaskIsExactPerByte) {
  Rng rng(11);
  // Values around the SWAR zero-byte test's edge cases: 0x00/0x01 (a
  // borrow-based test reports false positives above a zero byte), 0x7F/0x80
  // (the low-7-bit carry boundary), 0xFF, and the default terminator.
  const uint8_t kValues[] = {0x00, 0x01, 0x1F, 0x7F, 0x80, 0x81, 0xFE, 0xFF};
  for (uint8_t value : kValues) {
    for (size_t offset = 0; offset < 9; ++offset) {
      for (size_t n = 0; n <= 64; ++n) {
        std::vector<uint8_t> buffer(offset + n);
        for (uint8_t& b : buffer) {
          const uint64_t r = rng.Next();
          b = r % 3 == 0 ? value
                         : static_cast<uint8_t>(value + (r >> 8) % 3 - 1);
        }
        const uint8_t* p = buffer.data() + offset;
        uint64_t want = 0;
        for (size_t j = 0; j < n; ++j) {
          if (p[j] == value) want |= uint64_t{1} << j;
        }
        EXPECT_EQ(ByteEqualMask(p, n, value), want)
            << "value=" << int{value} << " offset=" << offset << " n=" << n;
      }
    }
  }
}

TEST(FlagMasksTest, ForEachFlagBlockTilesTheRange) {
  Rng rng(13);
  std::vector<uint8_t> flags(300);
  for (uint8_t& b : flags) b = static_cast<uint8_t>(rng.Next() % 8);
  for (size_t begin : {0u, 1u, 63u, 64u, 65u, 130u}) {
    for (size_t end : {begin, begin + 1, begin + 63, begin + 64, begin + 65,
                       size_t{300}}) {
      if (end < begin || end > flags.size()) continue;
      std::vector<uint8_t> rebuilt;
      ForEachFlagBlock(flags.data(), begin, end,
                       [&](size_t base, const FlagMasks& m) {
                         EXPECT_EQ(base, begin + rebuilt.size());
                         for (unsigned j = 0; j < m.size; ++j) {
                           rebuilt.push_back(static_cast<uint8_t>(
                               ((m.record >> j) & 1) |
                               (((m.field >> j) & 1) << 1) |
                               (((m.control >> j) & 1) << 2)));
                         }
                       });
      EXPECT_EQ(rebuilt, std::vector<uint8_t>(flags.begin() + begin,
                                              flags.begin() + end))
          << begin << ".." << end;
    }
  }
}

// --- The tag passes against a per-byte walk written here. ---

enum class InputKind { kRfc4180, kCrlfComments, kFixedWidth };

const char* KindName(InputKind kind) {
  switch (kind) {
    case InputKind::kRfc4180:
      return "rfc4180";
    case InputKind::kCrlfComments:
      return "crlf_comments";
    case InputKind::kFixedWidth:
      return "fixed_width";
  }
  return "?";
}

std::string RandomField(Rng* rng) {
  static const char* const kUtf8[] = {"\xC3\xA9", "\xE4\xB8\xAD",
                                      "\xF0\x9F\x98\x80"};
  std::string field;
  switch (rng->Next() % 6) {
    case 0:
      break;  // empty
    case 1:
      for (uint64_t i = 0, n = 1 + rng->Next() % 8; i < n; ++i) {
        field.push_back(static_cast<char>('a' + rng->Next() % 26));
      }
      break;
    case 2: {
      // Quoted, with embedded delimiters, a newline and escaped quotes.
      field = "\"";
      for (uint64_t i = 0, n = rng->Next() % 12; i < n; ++i) {
        static const char* const kPieces[] = {"x", ",", "\n", "\"\"", " "};
        field += kPieces[rng->Next() % 5];
      }
      field += "\"";
      break;
    }
    case 3:
      // Multi-byte UTF-8, so chunk starts land inside code points.
      for (uint64_t i = 0, n = 1 + rng->Next() % 6; i < n; ++i) {
        field += kUtf8[rng->Next() % 3];
      }
      break;
    default:
      // Long enough to span several mask blocks.
      for (uint64_t i = 0, n = 60 + rng->Next() % 140; i < n; ++i) {
        field.push_back(static_cast<char>('A' + rng->Next() % 26));
      }
      if (rng->Next() % 2 == 0) field = "\"" + field + ",\"\"\"";
      break;
  }
  return field;
}

std::string InputFor(InputKind kind, uint64_t seed) {
  Rng rng(seed * 977 + 3);
  std::string input;
  const int records = 8 + static_cast<int>(rng.Next() % 40);
  if (kind == InputKind::kFixedWidth) {
    for (int r = 0; r < records; ++r) {
      for (int i = 0; i < 9; ++i) {
        input.push_back(static_cast<char>('a' + rng.Next() % 26));
      }
      input += "\n";
    }
    return input;
  }
  const std::string eol = kind == InputKind::kCrlfComments ? "\r\n" : "\n";
  for (int r = 0; r < records; ++r) {
    if (kind == InputKind::kCrlfComments && rng.Next() % 5 == 0) {
      input += "# a comment, with commas" + eol;
      continue;
    }
    const int columns = 1 + static_cast<int>(rng.Next() % 6);
    for (int c = 0; c < columns; ++c) {
      if (c > 0) input += ",";
      input += RandomField(&rng);
    }
    input += eol;
  }
  // Half the inputs end in an unterminated trailing record.
  if (seed % 2 == 1) input += "tail,\"open";
  if (seed % 4 == 1) input += "\"";
  return input;
}

Format FormatFor(InputKind kind) {
  if (kind == InputKind::kRfc4180) return Format{};  // harness default
  dialect::DialectSpec spec;
  if (kind == InputKind::kCrlfComments) {
    spec.name = "crlf-comments";
    spec.record_delimiter = "\r\n";
    spec.comment = '#';
  } else {
    spec.name = "fixed-3-2-4";
    spec.fixed_widths = {3, 2, 4};
    spec.quote = 0;
  }
  auto compiled = dialect::Compile(spec);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled->within_budget);
  return compiled->format;
}

// The per-byte reference of the count and extent passes.
struct ReferenceTags {
  std::vector<uint32_t> column_counts;
  std::vector<FieldExtent> extents;
  uint32_t max_col = 0;
};

ReferenceTags WalkPerByte(const PipelineState& state) {
  ReferenceTags ref;
  ref.column_counts.assign(state.num_records, 0);
  std::vector<uint8_t> skipped;
  for (int col : state.options->skip_columns) {
    if (col >= static_cast<int>(skipped.size())) skipped.resize(col + 1, 0);
    skipped[col] = 1;
  }
  uint32_t col = 0;
  int64_t rec = 0;
  int64_t length = 0;
  const auto end_field = [&](int64_t src_end) {
    const bool dropped = rec >= state.num_records ||
                         (!state.record_dropped.empty() &&
                          state.record_dropped[rec] != 0);
    const bool keep =
        !dropped && !(col < skipped.size() && skipped[col] != 0);
    FieldExtent ex;
    ex.src_end = src_end;
    ex.length = length;
    ex.row = keep ? state.out_row_of_record[rec] : -1;
    ex.column = keep ? col : kDroppedColumn;
    ref.extents.push_back(ex);
    length = 0;
  };
  // Bytes before the first chunk (a leading UTF-8 continuation) belong to
  // no chunk.
  for (size_t i = AdjustChunkBeginUtf8(state.data, state.size, 0);
       i < state.size; ++i) {
    const uint8_t f = state.symbol_flags[i];
    if (f & kSymbolRecordDelimiter) {
      end_field(static_cast<int64_t>(i));
      ref.column_counts[rec] = col + 1;
      ref.max_col = std::max(ref.max_col, col);
      ++rec;
      col = 0;
    } else if (f & kSymbolFieldDelimiter) {
      if ((f & kSymbolControl) == 0) ++length;  // inclusive boundary
      end_field(static_cast<int64_t>(i));
      ++col;
      ref.max_col = std::max(ref.max_col, col);
    } else if ((f & kSymbolControl) == 0) {
      ++length;
    }
  }
  if (state.has_trailing_record) {
    end_field(static_cast<int64_t>(state.size));
    ref.column_counts[rec] = col + 1;
  }
  return ref;
}

simd::FlagWalkResult CountPerByte(const uint8_t* flags, size_t begin,
                                  size_t end) {
  simd::FlagWalkResult result;
  for (size_t i = begin; i < end; ++i) {
    if (flags[i] & kSymbolRecordDelimiter) {
      ++result.records;
      result.fields_since_record = 0;
      result.saw_record_delimiter = true;
    } else if (flags[i] & kSymbolFieldDelimiter) {
      ++result.fields_since_record;
    }
  }
  return result;
}

TEST(FlagMasksTest, CountEmittedFlagsOnEveryFlagCombination) {
  // Synthetic flag bytes, including a combination no built-in DFA emits (a
  // record delimiter that also carries the field bit): the record bit
  // takes precedence, as in the per-byte walk.
  Rng rng(17);
  std::vector<uint8_t> flags(1000);
  for (uint8_t& b : flags) {
    b = static_cast<uint8_t>(rng.Next() % 3 == 0 ? rng.Next() % 8 : 0);
  }
  for (int k = 0; k < 400; ++k) {
    size_t b = rng.Next() % (flags.size() + 1);
    size_t e = rng.Next() % (flags.size() + 1);
    if (b > e) std::swap(b, e);
    const simd::FlagWalkResult want = CountPerByte(flags.data(), b, e);
    const simd::FlagWalkResult got =
        simd::CountEmittedFlags(flags.data(), b, e);
    EXPECT_EQ(got.records, want.records) << b << ".." << e;
    EXPECT_EQ(got.fields_since_record, want.fields_since_record)
        << b << ".." << e;
    EXPECT_EQ(got.saw_record_delimiter, want.saw_record_delimiter)
        << b << ".." << e;
  }
}

class TagPassReferenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TagPassReferenceTest, MatchesPerByteWalk) {
  const size_t chunk_size = GetParam();
  int inclusive_boundaries = 0;
  int utf8_chunk_starts = 0;
  for (InputKind kind : {InputKind::kRfc4180, InputKind::kCrlfComments,
                         InputKind::kFixedWidth}) {
    const Format format = FormatFor(kind);
    for (uint64_t seed = 0; seed < 12; ++seed) {
      const std::string input = InputFor(kind, seed);
      ParseOptions options;
      options.format = format;
      options.chunk_size = chunk_size;
      options.transpose_mode = TransposeMode::kFieldGather;
      static const TaggingMode kModes[] = {TaggingMode::kRecordTags,
                                           TaggingMode::kVectorDelimited,
                                           TaggingMode::kInlineTerminated};
      options.tagging_mode = kModes[seed % 3];
      if (seed % 4 == 2) options.skip_columns = {1};
      if (seed % 5 == 3) options.skip_records = {0, 2};
      if (seed % 6 == 4) {
        options.column_count_policy = ColumnCountPolicy::kReject;
      }
      const std::string context = std::string(KindName(kind)) +
                                  " seed=" + std::to_string(seed) +
                                  " chunk=" + std::to_string(chunk_size);
      auto h = StepHarness::Make(input, options);
      ASSERT_NE(h, nullptr) << context;
      ASSERT_TRUE(h->RunThroughTagging().ok()) << context;
      const PipelineState& state = h->state;

      const ReferenceTags ref = WalkPerByte(state);
      ASSERT_EQ(state.record_column_counts, ref.column_counts) << context;
      if (state.num_partitions > 0) {
        EXPECT_EQ(state.num_partitions, ref.max_col + 1) << context;
      }
      ASSERT_EQ(state.gather_extents.size(), ref.extents.size()) << context;
      for (size_t i = 0; i < ref.extents.size(); ++i) {
        const FieldExtent& want = ref.extents[i];
        const FieldExtent& got = state.gather_extents[i];
        ASSERT_EQ(got.src_end, want.src_end) << context << " extent " << i;
        ASSERT_EQ(got.length, want.length) << context << " extent " << i;
        ASSERT_EQ(got.row, want.row) << context << " extent " << i;
        ASSERT_EQ(got.column, want.column) << context << " extent " << i;
      }

      // CountEmittedFlags over every chunk and over unaligned spans.
      const uint8_t* flags = state.symbol_flags.data();
      Rng rng(seed + chunk_size);
      for (int k = 0; k < 16; ++k) {
        size_t b = rng.Next() % (state.size + 1);
        size_t e = rng.Next() % (state.size + 1);
        if (b > e) std::swap(b, e);
        const simd::FlagWalkResult want = CountPerByte(flags, b, e);
        const simd::FlagWalkResult got = simd::CountEmittedFlags(flags, b, e);
        EXPECT_EQ(got.records, want.records) << context;
        EXPECT_EQ(got.fields_since_record, want.fields_since_record)
            << context;
        EXPECT_EQ(got.saw_record_delimiter, want.saw_record_delimiter)
            << context;
      }

      for (size_t i = 0; i < state.size; ++i) {
        if ((state.symbol_flags[i] & kSymbolFieldDelimiter) &&
            !(state.symbol_flags[i] & kSymbolControl)) {
          ++inclusive_boundaries;
        }
      }
      for (int64_t c = 1; c < state.num_chunks; ++c) {
        const size_t raw = static_cast<size_t>(c) * chunk_size;
        if (raw < state.size &&
            AdjustChunkBeginUtf8(state.data, state.size, raw) != raw) {
          ++utf8_chunk_starts;
        }
      }
    }
  }
  // The inputs reach the shapes the word passes must get right.
  EXPECT_GT(inclusive_boundaries, 0);
  if (chunk_size < 100) {
    EXPECT_GT(utf8_chunk_starts, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, TagPassReferenceTest,
                         ::testing::Values(size_t{1}, size_t{63}, size_t{64},
                                           size_t{65}, size_t{2048}));

}  // namespace
}  // namespace parparaw
