// Writes BENCH_query.json to the cwd: the exact query path's banded SIMD
// sweep against the scalar pair-major loop (use_sweep_kernel=false) on the
// USCRN-like climate workload, plus the sweep's time-to-first-window.
// scripts/check_bench_regression.py gates the within-run ratios. The
// paper's E1 comparison against TSUBASA is `bench_paper e1`.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/stopwatch.h"
#include "engine/dangoron_engine.h"
#include "engine/window_sink.h"
#include "eval/workloads.h"

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

// Best-of-`reps` pure query time of the exact (jump=off) path against a
// prebuilt index, single-threaded so the scalar/sweep ratio measures the
// kernels, not the pool. Returns a negative value on failure.
double TimeQuerySeconds(const DangoronOptions& options,
                        const BasicWindowIndex& index,
                        const SlidingQuery& query, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    auto result = DangoronEngine::QueryPrepared(options, index, query,
                                                /*pool=*/nullptr,
                                                /*stats=*/nullptr);
    if (!result.ok()) {
      std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
      return -1.0;
    }
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// Machine-readable record of the exact-query sweep comparison, one JSON
// object per problem size: the scalar pair-major cell loop
// (use_sweep_kernel=off, the differential oracle) vs the vectorized
// window-major sweep, plus the engine's time-to-first-window. The speedup
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

    options.use_sweep_kernel = false;
    const double scalar_s = TimeQuerySeconds(options, *index, query, 3);
    options.use_sweep_kernel = true;
    const double sweep_s = TimeQuerySeconds(options, *index, query, 3);
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
        "\"ttfw_fraction\": %.4f}",
        first ? "" : ",\n", static_cast<long long>(n),
        static_cast<long long>(query.NumWindows()),
        static_cast<long long>(num_pairs), scalar_s * 1e3, sweep_s * 1e3,
        scalar_s / cells * 1e9, sweep_s / cells * 1e9, scalar_s / sweep_s,
        ttfw_s * 1e3, full_s * 1e3, ttfw_s / full_s);
    first = false;
    std::fprintf(stderr,
                 "query sweep n=%lld: scalar %.1f ms, sweep %.1f ms, "
                 "speedup %.2fx, ttfw %.2f ms (%.1f%% of full)\n",
                 static_cast<long long>(n), scalar_s * 1e3, sweep_s * 1e3,
                 scalar_s / sweep_s, ttfw_s * 1e3, ttfw_s / full_s * 1e2);
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
