// Experiment E10: microkernel costs underlying the experiment tables
// (google-benchmark). These pin the constants the analytical cost model in
// DESIGN.md argues with: per-cell evaluation cost of each engine family,
// sketch build throughput, FFT throughput for Tomborg.

#include <benchmark/benchmark.h>

#include <complex>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_provenance.h"
#include "bound/bounds.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "corr/pearson.h"
#include "dft/fft.h"
#include "sketch/basic_window_index.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

// ------------------------------------------------------- Pearson kernels --

void BM_PearsonNaive(benchmark::State& state) {
  const int64_t window = state.range(0);
  Rng rng(1);
  std::vector<double> x, y;
  GenerateCorrelatedPair(window, 0.5, &rng, &x, &y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PearsonNaive(x, y));
  }
  state.SetItemsProcessed(state.iterations() * window);
}
BENCHMARK(BM_PearsonNaive)->Arg(24)->Arg(720)->Arg(8760);

void BM_SlidingMomentsStep(benchmark::State& state) {
  const int64_t step = state.range(0);
  Rng rng(2);
  std::vector<double> x, y;
  GenerateCorrelatedPair(1 << 20, 0.5, &rng, &x, &y);
  SlidingPairMoments moments(x, y, 0, 720);
  int64_t position = 0;
  for (auto _ : state) {
    if (position + step + 720 >= static_cast<int64_t>(x.size())) {
      state.PauseTiming();
      moments = SlidingPairMoments(x, y, 0, 720);
      position = 0;
      state.ResumeTiming();
    }
    moments.Slide(step);
    position += step;
    benchmark::DoNotOptimize(moments.Correlation());
  }
}
BENCHMARK(BM_SlidingMomentsStep)->Arg(1)->Arg(24);

// ------------------------------------------------------------ Sketch ops --

struct IndexFixture {
  TimeSeriesMatrix data;
  std::optional<BasicWindowIndex> index;

  explicit IndexFixture(int64_t n = 32, int64_t nb = 365, int64_t b = 24) {
    Rng rng(3);
    data = GenerateWhiteNoise(n, nb * b, &rng);
    BasicWindowIndexOptions options;
    options.basic_window = b;
    auto built = BasicWindowIndex::Build(data, options);
    index.emplace(std::move(*built));
  }
};

void BM_SketchPairRangeCorrelation(benchmark::State& state) {
  static IndexFixture* fixture = new IndexFixture();
  const BasicWindowIndex& index = *fixture->index;
  int64_t w = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.PairRangeCorrelation(7, w, w + 30));
    w = (w + 1) % (index.num_basic_windows() - 30);
  }
}
BENCHMARK(BM_SketchPairRangeCorrelation);

void BM_TsubasaStyleRecombination(benchmark::State& state) {
  // O(ns) per-window recombination: the baseline's per-cell cost.
  const int64_t ns = state.range(0);
  static IndexFixture* fixture = new IndexFixture();
  const BasicWindowIndex& index = *fixture->index;
  int64_t w = 0;
  for (auto _ : state) {
    double dot = 0.0;
    for (int64_t k = 0; k < ns; ++k) {
      dot += index.DotRange(7, w + k, w + k + 1);
    }
    benchmark::DoNotOptimize(dot);
    w = (w + 1) % (index.num_basic_windows() - ns);
  }
  state.SetItemsProcessed(state.iterations() * ns);
}
BENCHMARK(BM_TsubasaStyleRecombination)->Arg(7)->Arg(30)->Arg(60);

void SketchBuildBench(benchmark::State& state, bool blocked) {
  const int64_t n = state.range(0);
  Rng rng(4);
  TimeSeriesMatrix data = GenerateWhiteNoise(n, 24 * 365, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 24;
  options.use_blocked_kernel = blocked;
  for (auto _ : state) {
    auto index = BasicWindowIndex::Build(data, options);
    benchmark::DoNotOptimize(index.ok());
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1) / 2);
}

void BM_SketchBuildScalar(benchmark::State& state) {
  SketchBuildBench(state, /*blocked=*/false);
}
BENCHMARK(BM_SketchBuildScalar)->Arg(16)->Arg(32)->Arg(96)
    ->Unit(benchmark::kMillisecond);

void BM_SketchBuildBlocked(benchmark::State& state) {
  SketchBuildBench(state, /*blocked=*/true);
}
BENCHMARK(BM_SketchBuildBlocked)->Arg(16)->Arg(32)->Arg(96)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ Jump search --

void BM_JumpBinarySearch(benchmark::State& state) {
  static IndexFixture* fixture = new IndexFixture();
  const BasicWindowIndex& index = *fixture->index;
  const TemporalBound bound(&index, 30, 1);
  int64_t w = 0;
  const int64_t limit = index.num_basic_windows() - 160;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bound.MaxSkippableBelow(3, w, 0.1, 0.8, 128));
    w = (w + 1) % limit;
  }
}
BENCHMARK(BM_JumpBinarySearch);

// ------------------------------------------------------------------- FFT --

void BM_Fft(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  std::vector<std::complex<double>> data(static_cast<size_t>(n));
  for (auto& v : data) {
    v = {rng.NextGaussian(), rng.NextGaussian()};
  }
  for (auto _ : state) {
    std::vector<std::complex<double>> work = data;
    benchmark::DoNotOptimize(Fft(&work, false).ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(8760)->Arg(16384);

void BM_InverseRealDft(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  std::vector<double> series(static_cast<size_t>(n));
  for (double& v : series) {
    v = rng.NextGaussian();
  }
  const auto spectrum = RealDft(series);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InverseRealDft(*spectrum, n).ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InverseRealDft)->Arg(4096)->Arg(8760);

// ------------------------------------------- scalar vs blocked kernel JSON --

// Times one full pair-sketch build; returns the best of `reps` runs.
double TimeBuildSeconds(const TimeSeriesMatrix& data,
                        const BasicWindowIndexOptions& options, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    auto index = BasicWindowIndex::Build(data, options);
    benchmark::DoNotOptimize(index.ok());
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// Machine-readable record of the index-build kernel comparison, one JSON
// object per problem size, so the perf trajectory is tracked across PRs.
// ns_per_pair_window is the cost of one (pair, basic window) sketch cell;
// gbs is the effective rate over the 2 * b doubles each cell consumes.
void WriteKernelComparisonJson(const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  const int64_t b = 24;
  const int64_t nb = 90;
  const std::string provenance = ProvenanceJson();
  std::fprintf(out, "[\n");
  bool first = true;
  for (const int64_t n : {64, 256, 512}) {
    Rng rng(7);
    TimeSeriesMatrix data = GenerateWhiteNoise(n, nb * b, &rng);
    BasicWindowIndexOptions options;
    options.basic_window = b;

    options.use_blocked_kernel = false;
    const double scalar_s = TimeBuildSeconds(data, options, 3);
    options.use_blocked_kernel = true;
    const double blocked_s = TimeBuildSeconds(data, options, 3);

    const double pair_windows =
        static_cast<double>(n * (n - 1) / 2) * static_cast<double>(nb);
    const double bytes = pair_windows * 2.0 * static_cast<double>(b) * 8.0;
    std::fprintf(
        out,
        "%s  {\"kernel\": \"sketch_build\", \"n_series\": %lld, "
        "\"num_basic_windows\": %lld, \"basic_window\": %lld,\n"
        "   \"scalar_ns_per_pair_window\": %.3f, "
        "\"blocked_ns_per_pair_window\": %.3f,\n"
        "   \"scalar_gbs\": %.3f, \"blocked_gbs\": %.3f, "
        "\"speedup\": %.3f,\n   %s}",
        first ? "" : ",\n", static_cast<long long>(n),
        static_cast<long long>(nb), static_cast<long long>(b),
        scalar_s / pair_windows * 1e9, blocked_s / pair_windows * 1e9,
        bytes / scalar_s * 1e-9, bytes / blocked_s * 1e-9,
        scalar_s / blocked_s, provenance.c_str());
    first = false;
    std::fprintf(stderr,
                 "kernel comparison n=%lld: scalar %.1f ms, blocked %.1f ms, "
                 "speedup %.2fx\n",
                 static_cast<long long>(n), scalar_s * 1e3, blocked_s * 1e3,
                 scalar_s / blocked_s);
  }
  std::fprintf(out, "\n]\n");
  std::fclose(out);
}

}  // namespace
}  // namespace dangoron

int main(int argc, char** argv) {
  // The kernel comparison (and its BENCH_kernels.json overwrite) runs on
  // full sweeps only: list/help and filtered invocations stay side-effect
  // free. --kernel_comparison=on|off overrides either way — e.g.
  // `--kernel_comparison=on --benchmark_filter=NONE` emits just the JSON.
  bool list_only = false;
  bool filtered = false;
  int forced = 0;  // +1 on, -1 off
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.starts_with("--benchmark_list_tests")) {
      list_only = true;
    } else if (arg.starts_with("--benchmark_filter")) {
      filtered = true;
    }
    if (arg == "--kernel_comparison=on") {
      forced = 1;
    } else if (arg == "--kernel_comparison=off") {
      forced = -1;
    } else {
      argv[out++] = argv[i];  // strip our flag before benchmark parsing
    }
  }
  argv[out] = nullptr;  // keep the argv[argc] == NULL invariant
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const bool run_comparison =
      forced == 1 || (forced == 0 && !list_only && !filtered);
  if (run_comparison) {
    dangoron::WriteKernelComparisonJson("BENCH_kernels.json");
  }
  return 0;
}
