#ifndef DANGORON_EVAL_REFERENCE_WALK_H_
#define DANGORON_EVAL_REFERENCE_WALK_H_

#include "common/status.h"
#include "engine/dangoron_engine.h"
#include "engine/query.h"
#include "sketch/basic_window_index.h"

namespace dangoron {

/// The pair-major reference walk of a Dangoron query: one pair at a time
/// across every window of the query, with the exact O(1) cell, the Eq. 2
/// below/within/above jumps under `options.max_jump_steps` and the query's
/// pair range. The oracle the engine's window-major pass is pinned to byte
/// for byte, and the scalar yardstick of bench_query_time; no serving path
/// calls it. Single-threaded, with the engine's kJumpPrefetchPairs row
/// prefetch. `stats` (optional) receives the walk's cells_evaluated,
/// cells_jumped and jumps; its other fields are zeroed.
Result<CorrelationMatrixSeries> ReferenceWalk(const DangoronOptions& options,
                                              const BasicWindowIndex& index,
                                              const SlidingQuery& query,
                                              EngineStats* stats = nullptr);

}  // namespace dangoron

#endif  // DANGORON_EVAL_REFERENCE_WALK_H_
