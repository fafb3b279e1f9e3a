#ifndef DANGORON_ENGINE_TSUBASA_ENGINE_H_
#define DANGORON_ENGINE_TSUBASA_ENGINE_H_

#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "engine/correlation_engine.h"
#include "sketch/basic_window_index.h"

namespace dangoron {

/// Options of the TSUBASA baseline.
struct TsubasaOptions {
  /// Basic window size of the sketch.
  int64_t basic_window = 24;
  /// Worker threads for the sketch build (queries are single-threaded,
  /// matching the paper's "pure query time" comparisons).
  int num_threads = 1;
};

/// Reimplementation of TSUBASA (Xu, Liu, Nargesian — SIGMOD'22), the paper's
/// baseline: per-basic-window sketches combined *per query window* into the
/// exact correlation. Arbitrary (unaligned) windows are supported by
/// computing the partial head/tail basic windows from raw data.
///
/// The published algorithm recombines every window of a sliding query from
/// scratch — O(ns) sketch touches per pair per window with no reuse across
/// overlapping windows. That faithful cost model is exactly the weakness the
/// Dangoron paper targets ("lacks efficiency for sliding queries"), so this
/// implementation deliberately does not share Dangoron's prefix/jump reuse.
class TsubasaEngine : public CorrelationEngine {
 public:
  explicit TsubasaEngine(const TsubasaOptions& options = {});

  std::string name() const override { return "tsubasa"; }
  Status Prepare(const TimeSeriesMatrix& data) override;
  /// Each window's O(ns) recombination is independent, so windows stream
  /// out one by one; cancellation skips the remaining recombinations.
  Status QueryToSink(const SlidingQuery& query, WindowSink* sink) override;

 private:
  TsubasaOptions options_;
  const TimeSeriesMatrix* data_ = nullptr;
  std::optional<BasicWindowIndex> index_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dangoron

#endif  // DANGORON_ENGINE_TSUBASA_ENGINE_H_
