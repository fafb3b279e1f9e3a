// Writes BENCH_query.json to the cwd: the exact query path's banded SIMD
// sweep against the scalar pair-major reference walk (eval/reference_walk.h)
// on the USCRN-like climate workload, plus the sweep's time-to-first-window
// ("query_sweep" rows); and the approx tier's Eq. 2 jump walk against that
// exact sweep on uncached white noise ("query_jump" rows). Every row carries
// its provenance. scripts/check_bench_regression.py gates the within-run
// ratios. The paper's E1 comparison against TSUBASA is `bench_paper e1`.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_provenance.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/dangoron_engine.h"
#include "engine/window_sink.h"
#include "eval/reference_walk.h"
#include "eval/workloads.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

// Swallows every window, recording time-to-first-window: the engine-level
// streaming measure (exact mode emits window 0 after one window's sweep).
class TtfwSink final : public WindowSink {
 public:
  Status OnBegin(const SlidingQuery& query, int64_t num_series) override {
    (void)query;
    (void)num_series;
    timer_.Reset();
    first_window_seconds_ = -1.0;
    return Status::Ok();
  }
  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override {
    (void)window_index;
    (void)edges;
    if (first_window_seconds_ < 0.0) {
      first_window_seconds_ = timer_.ElapsedSeconds();
    }
    return true;
  }
  double first_window_seconds() const { return first_window_seconds_; }

 private:
  Stopwatch timer_;
  double first_window_seconds_ = -1.0;
};

// Best-of-`reps` wall time of `query_fn` (returning a Result), printing the
// first failure. Returns a negative value on failure.
template <typename QueryFn>
double BestSeconds(QueryFn query_fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    const auto result = query_fn();
    if (!result.ok()) {
      std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
      return -1.0;
    }
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// Machine-readable record of the exact-query sweep comparison, one JSON
// object per problem size: the scalar pair-major reference walk (the
// differential oracle, with the jump walk's row prefetch) vs the
// vectorized window-major sweep, plus the engine's time-to-first-window.
// Both run single-threaded against one prebuilt index, so the ratio
// measures the kernels, not the pool. The speedup
// and the ttfw/full ratio are within-run and hardware-normalized — what
// scripts/check_bench_regression.py gates. Returns false when any
// measurement failed (so the caller exits nonzero and CI reports the
// failure directly instead of gating on a half-written file).
bool WriteQueryComparisonJson(const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  const std::string provenance = ProvenanceJson();
  bool ok = true;
  std::fprintf(out, "[\n");
  bool first = true;
  for (const int64_t n : {64, 256, 512}) {
    ClimateWorkload workload;
    workload.num_stations = n;
    workload.num_hours = 24 * 90;
    const auto data = workload.Generate();
    if (!data.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   data.status().ToString().c_str());
      ok = false;
      break;
    }
    const SlidingQuery query = workload.DefaultQuery(0.7);

    DangoronOptions options;
    options.enable_jumping = false;
    auto index = DangoronEngine::BuildIndex(*data, options, /*pool=*/nullptr);
    if (!index.ok()) {
      std::fprintf(stderr, "build: %s\n", index.status().ToString().c_str());
      ok = false;
      break;
    }

    const double scalar_s = BestSeconds(
        [&] { return ReferenceWalk(options, *index, query); }, 3);
    const double sweep_s = BestSeconds(
        [&] {
          return DangoronEngine::QueryPrepared(options, *index, query,
                                               /*pool=*/nullptr,
                                               /*stats=*/nullptr);
        },
        3);
    if (scalar_s < 0.0 || sweep_s < 0.0) {
      ok = false;
      break;
    }

    // Time-to-first-window of the sweep path (informational fraction; the
    // gate only requires first < full).
    double ttfw_s = -1.0;
    double full_s = -1.0;
    for (int r = 0; r < 3; ++r) {
      TtfwSink sink;
      Stopwatch timer;
      const Status status = DangoronEngine::QueryPreparedToSink(
          options, *index, query, /*pool=*/nullptr, /*stats=*/nullptr, &sink);
      if (!status.ok()) {
        std::fprintf(stderr, "ttfw: %s\n", status.ToString().c_str());
        break;
      }
      const double elapsed = timer.ElapsedSeconds();
      if (full_s < 0.0 || elapsed < full_s) {
        full_s = elapsed;
        ttfw_s = sink.first_window_seconds();
      }
    }
    if (full_s <= 0.0 || ttfw_s < 0.0) {
      ok = false;
      break;
    }

    const int64_t num_pairs = n * (n - 1) / 2;
    const double cells = static_cast<double>(num_pairs) *
                         static_cast<double>(query.NumWindows());
    std::fprintf(
        out,
        "%s  {\"bench\": \"query_sweep\", \"n_series\": %lld, "
        "\"num_windows\": %lld, \"num_pairs\": %lld,\n"
        "   \"scalar_ms\": %.3f, \"sweep_ms\": %.3f, "
        "\"scalar_ns_per_cell\": %.3f, \"sweep_ns_per_cell\": %.3f,\n"
        "   \"speedup\": %.3f, \"ttfw_ms\": %.4f, \"full_ms\": %.3f, "
        "\"ttfw_fraction\": %.4f,\n   %s}",
        first ? "" : ",\n", static_cast<long long>(n),
        static_cast<long long>(query.NumWindows()),
        static_cast<long long>(num_pairs), scalar_s * 1e3, sweep_s * 1e3,
        scalar_s / cells * 1e9, sweep_s / cells * 1e9, scalar_s / sweep_s,
        ttfw_s * 1e3, full_s * 1e3, ttfw_s / full_s, provenance.c_str());
    first = false;
    std::fprintf(stderr,
                 "query sweep n=%lld: scalar %.1f ms, sweep %.1f ms, "
                 "speedup %.2fx, ttfw %.2f ms (%.1f%% of full)\n",
                 static_cast<long long>(n), scalar_s * 1e3, sweep_s * 1e3,
                 scalar_s / sweep_s, ttfw_s * 1e3, ttfw_s / full_s * 1e2);
  }
  // The approx tier's engine options (the server's jump walk) against the
  // exact sweep, one prebuilt index and one thread each, on white noise whose
  // correlations sit far below beta: the stretches Eq. 2 jumps. n = 512
  // puts the pair sketch past L2, where the walk's probes into the prefix
  // rows miss cache unless it prefetches them.
  for (const int64_t n : {32, 128, 512}) {
    if (!ok) {
      break;
    }
    constexpr int64_t kBasicWindow = 24;
    constexpr int64_t kNumBasicWindows = 90;
    Rng rng(14);
    const TimeSeriesMatrix data =
        GenerateWhiteNoise(n, kNumBasicWindows * kBasicWindow, &rng);
    SlidingQuery query;
    query.start = 0;
    query.end = kNumBasicWindows * kBasicWindow;
    query.window = 30 * kBasicWindow;
    query.step = kBasicWindow;
    query.threshold = 0.7;

    DangoronOptions exact;
    exact.basic_window = kBasicWindow;
    exact.enable_jumping = false;
    exact.horizontal_pruning = false;
    DangoronOptions approx = exact;
    approx.enable_jumping = true;
    auto index = DangoronEngine::BuildIndex(data, exact, /*pool=*/nullptr);
    if (!index.ok()) {
      std::fprintf(stderr, "build: %s\n", index.status().ToString().c_str());
      ok = false;
      break;
    }
    EngineStats approx_stats;
    const double exact_s = BestSeconds(
        [&] {
          return DangoronEngine::QueryPrepared(exact, *index, query,
                                               /*pool=*/nullptr,
                                               /*stats=*/nullptr);
        },
        5);
    const double approx_s = BestSeconds(
        [&] {
          approx_stats = EngineStats{};
          return DangoronEngine::QueryPrepared(approx, *index, query,
                                               /*pool=*/nullptr,
                                               &approx_stats);
        },
        5);
    if (exact_s < 0.0 || approx_s < 0.0) {
      ok = false;
      break;
    }
    const int64_t num_pairs = n * (n - 1) / 2;
    const double jumped_fraction =
        static_cast<double>(approx_stats.cells_jumped) /
        (static_cast<double>(num_pairs) *
         static_cast<double>(query.NumWindows()));
    std::fprintf(
        out,
        ",\n  {\"bench\": \"query_jump\", \"n_series\": %lld, "
        "\"num_windows\": %lld, \"num_pairs\": %lld,\n"
        "   \"exact_ms\": %.3f, \"approx_ms\": %.3f, "
        "\"approx_speedup\": %.3f, \"jumped_fraction\": %.4f,\n   %s}",
        static_cast<long long>(n), static_cast<long long>(query.NumWindows()),
        static_cast<long long>(num_pairs), exact_s * 1e3, approx_s * 1e3,
        exact_s / approx_s, jumped_fraction, provenance.c_str());
    std::fprintf(stderr,
                 "query jump n=%lld: exact %.3f ms, approx %.3f ms (%.2fx), "
                 "%.1f%% of cells jumped\n",
                 static_cast<long long>(n), exact_s * 1e3, approx_s * 1e3,
                 exact_s / approx_s, jumped_fraction * 1e2);
  }
  std::fprintf(out, "\n]\n");
  std::fclose(out);
  return ok;
}

}  // namespace
}  // namespace dangoron

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (writes BENCH_query.json to the cwd)\n",
                 argv[0]);
    return 2;
  }
  return dangoron::WriteQueryComparisonJson("BENCH_query.json") ? 0 : 1;
}
