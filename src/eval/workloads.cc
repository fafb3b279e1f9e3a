#include "eval/workloads.h"

#include "common/stopwatch.h"
#include "ts/generators.h"
#include "ts/resample.h"

namespace dangoron {

Result<TimeSeriesMatrix> ClimateWorkload::Generate() const {
  ClimateSpec spec;
  spec.num_stations = num_stations;
  spec.num_hours = num_hours;
  spec.seed = seed;
  ASSIGN_OR_RETURN(ClimateDataset dataset, GenerateClimate(spec));
  return std::move(dataset.data);
}

SlidingQuery ClimateWorkload::DefaultQuery(double threshold) const {
  SlidingQuery query;
  query.start = 0;
  query.end = num_hours;
  query.window = 24 * 30;  // 30-day window
  query.step = 24;         // slide one day
  query.threshold = threshold;
  return query;
}

Result<EngineRun> RunEngineTimed(CorrelationEngine* engine,
                                 const TimeSeriesMatrix& data,
                                 const SlidingQuery& query, int repetitions) {
  EngineRun run;
  Stopwatch prepare_watch;
  RETURN_IF_ERROR(engine->Prepare(data));
  run.prepare_seconds = prepare_watch.ElapsedSeconds();

  // Warmup, also produces the returned result.
  Stopwatch first_watch;
  ASSIGN_OR_RETURN(run.result, engine->Query(query));
  run.query_seconds = first_watch.ElapsedSeconds();
  run.stats = engine->stats();

  for (int rep = 1; rep < repetitions; ++rep) {
    Stopwatch watch;
    ASSIGN_OR_RETURN(CorrelationMatrixSeries repeat, engine->Query(query));
    run.query_seconds = std::min(run.query_seconds, watch.ElapsedSeconds());
  }
  return run;
}

}  // namespace dangoron
