#include "core/css_index.h"

#include "obs/obs.h"
#include "util/stopwatch.h"

namespace parparaw {

namespace {

Status InconsistentColumnCount(uint32_t column, int64_t count,
                               int64_t num_out_rows) {
  return Status::ParseError(
      "column " + std::to_string(column) + " has " + std::to_string(count) +
      " fields for " + std::to_string(num_out_rows) +
      " records; inconsistent column counts require the record-tag mode "
      "or the reject policy");
}

}  // namespace

Result<std::span<const FieldEntry>> BuildCssIndex(
    const PipelineState& state, uint32_t column,
    std::vector<FieldEntry>* scratch) {
  obs::TraceSpan span(state.options->tracer, "step.css_index", "pipeline");
  Stopwatch watch;
  const auto finish = [&](std::span<const FieldEntry> fields) {
    obs::RecordMillis(state.options->metrics, "step.css_index_us",
                      watch.ElapsedMillis());
    obs::AddCount(state.options->metrics, "css_index.fields",
                  static_cast<int64_t>(fields.size()));
    return fields;
  };
  if (column >= state.num_partitions) return std::span<const FieldEntry>();
  const TaggingMode mode = state.options->tagging_mode;

  if (state.transpose_mode == TransposeMode::kFieldGather) {
    // The partition step already bucketed the field entries by column with
    // offsets relative to the global CSS, and (record-tag mode) left out
    // the empty fields the run-length encoding would not see: the slice is
    // the whole index.
    const int64_t entry_begin = state.gather_entry_offsets[column];
    const int64_t entry_end = state.gather_entry_offsets[column + 1];
    const int64_t count = entry_end - entry_begin;
    if (mode != TaggingMode::kRecordTags && count != state.num_out_rows) {
      return InconsistentColumnCount(column, count, state.num_out_rows);
    }
    return finish(std::span<const FieldEntry>(
        state.gather_entries.data() + entry_begin,
        static_cast<size_t>(count)));
  }

  scratch->clear();
  const int64_t begin = state.column_css_offsets[column];
  const int64_t end = state.column_css_offsets[column + 1];
  const int64_t n = end - begin;

  if (mode == TaggingMode::kRecordTags) {
    // Run-length encode the record tags: run starts where the tag differs
    // from its predecessor.
    std::vector<int64_t> heads;
    CollectPositions(
        state.pool, n,
        [&](int64_t i) {
          return i == 0 ||
                 state.rec_tags[begin + i] != state.rec_tags[begin + i - 1];
        },
        &heads);
    scratch->resize(heads.size());
    for (size_t k = 0; k < heads.size(); ++k) {
      const int64_t start = heads[k];
      const int64_t stop = (k + 1 < heads.size()) ? heads[k + 1] : n;
      (*scratch)[k] = FieldEntry{
          static_cast<int64_t>(state.rec_tags[begin + start]), begin + start,
          stop - start};
    }
    return finish(*scratch);
  }

  // Inline-terminated / vector-delimited: one terminator slot per field,
  // field k belongs to output row k.
  std::vector<int64_t> ends;
  if (mode == TaggingMode::kInlineTerminated) {
    const uint8_t terminator = state.options->terminator;
    CollectPositions(
        state.pool, n,
        [&](int64_t i) { return state.css[begin + i] == terminator; }, &ends);
  } else {
    CollectPositions(
        state.pool, n, [&](int64_t i) { return state.field_end[begin + i] != 0; },
        &ends);
  }
  if (static_cast<int64_t>(ends.size()) != state.num_out_rows) {
    return InconsistentColumnCount(
        column, static_cast<int64_t>(ends.size()), state.num_out_rows);
  }
  scratch->resize(ends.size());
  for (size_t k = 0; k < ends.size(); ++k) {
    const int64_t start = (k == 0) ? 0 : ends[k - 1] + 1;
    (*scratch)[k] = FieldEntry{static_cast<int64_t>(k), begin + start,
                               ends[k] - start};
  }
  return finish(*scratch);
}

}  // namespace parparaw
