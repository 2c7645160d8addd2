#ifndef PARPARAW_CORE_CSS_INDEX_H_
#define PARPARAW_CORE_CSS_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/pipeline_state.h"
#include "util/result.h"

namespace parparaw {

// FieldEntry lives in core/pipeline_state.h (the gather transpose path
// stores entries in PipelineState, which this header includes).

/// \brief Step 6 (§3.3/§4.1): generate a column's CSS index.
///
/// Returns the column's fields in strictly increasing row order (each
/// record contributes at most one field per column) — the order the
/// convert step's row-block walk relies on.
///
/// kRecordTags: run-length encode the column's record tags; each run is one
/// field (its value the record, its length the symbol count); an exclusive
/// prefix sum yields the offsets. Empty fields produce no run — the convert
/// step fills them from defaults (§4.3).
///
/// kInlineTerminated / kVectorDelimited: collect the terminator slots (or
/// the auxiliary field-end marks); field k belongs to output row k, which
/// requires a consistent column count (enforced by returning ParseError on
/// a count mismatch).
///
/// Under TransposeMode::kFieldGather the partition step has already built
/// the index: the result is a view into state.gather_entries and `scratch`
/// is untouched. Under kSymbolSort the index is built into `*scratch` and
/// the result views it. Either way the view lives as long as its storage
/// is left unmodified.
Result<std::span<const FieldEntry>> BuildCssIndex(
    const PipelineState& state, uint32_t column,
    std::vector<FieldEntry>* scratch);

/// Collects the positions i in [0, n) where pred(i) is true, in order,
/// using a chunked count + exclusive-prefix-sum + fill pattern (the GPU
/// compaction idiom shared with the tag step).
template <typename Pred>
void CollectPositions(ThreadPool* pool, int64_t n, Pred pred,
                      std::vector<int64_t>* positions);

}  // namespace parparaw

#include "core/css_index_inl.h"

#endif  // PARPARAW_CORE_CSS_INDEX_H_
