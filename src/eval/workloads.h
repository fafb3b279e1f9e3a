#ifndef DANGORON_EVAL_WORKLOADS_H_
#define DANGORON_EVAL_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "engine/correlation_engine.h"
#include "engine/query.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// The canonical evaluation workload of the paper: a USCRN-like hourly
/// climate year. Defaults match the E1 configuration in DESIGN.md
/// (l = 30 days, eta = 1 day, beta = 0.8, basic window = 24 h).
struct ClimateWorkload {
  int64_t num_stations = 128;
  int64_t num_hours = 24 * 365;
  uint64_t seed = 42;

  /// Generates the data matrix (interpolated, ready for engines).
  Result<TimeSeriesMatrix> Generate() const;

  /// The default sliding query over the generated data.
  SlidingQuery DefaultQuery(double threshold = 0.8) const;
};

/// Wall-clock timings of an engine's Prepare and Query, with the result.
struct EngineRun {
  double prepare_seconds = 0.0;
  double query_seconds = 0.0;
  CorrelationMatrixSeries result;
  EngineStats stats;
};

/// Prepares `engine` on `data`, then runs `query` `repetitions` times (at
/// least once) and reports the minimum query time — the "pure query time"
/// measure of the paper. The first run also produces the returned result.
Result<EngineRun> RunEngineTimed(CorrelationEngine* engine,
                                 const TimeSeriesMatrix& data,
                                 const SlidingQuery& query, int repetitions);

}  // namespace dangoron

#endif  // DANGORON_EVAL_WORKLOADS_H_
