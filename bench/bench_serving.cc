// Serving-layer benchmarks: what the shared sketch cache and per-window
// result cache buy under single- and multi-client load. The cold numbers
// pay dataset prepare plus full pair evaluation; warm numbers measure the
// steady state a production server actually runs in.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "serve/server.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

constexpr int64_t kBasicWindow = 24;

TimeSeriesMatrix BenchData(int64_t n, int64_t num_basic_windows,
                           uint64_t seed) {
  Rng rng(seed);
  return GenerateWhiteNoise(n, num_basic_windows * kBasicWindow, &rng);
}

SlidingQuery BenchQuery(int64_t num_basic_windows) {
  SlidingQuery query;
  query.start = 0;
  query.end = num_basic_windows * kBasicWindow;
  query.window = 30 * kBasicWindow;
  query.step = kBasicWindow;
  query.threshold = 0.7;
  return query;
}

// A default request (server-default tier, no deadline) for dataset "d".
QueryRequest BenchRequest(const SlidingQuery& query) {
  return QueryRequest{"d", query, ServeOptions{}};
}

DangoronServerOptions BenchServerOptions() {
  DangoronServerOptions options;
  options.num_threads = 0;  // hardware concurrency
  options.basic_window = kBasicWindow;
  return options;
}

// Cold submission: a fresh server per iteration, so the query pays dataset
// prepare (index build) plus the full per-window evaluation.
void BM_ServerColdQuery(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t nb = 90;
  TimeSeriesMatrix data = BenchData(n, nb, 11);
  const SlidingQuery query = BenchQuery(nb);
  for (auto _ : state) {
    state.PauseTiming();
    DangoronServer server(BenchServerOptions());
    benchmark::DoNotOptimize(server.AddDataset("d", data).ok());
    state.ResumeTiming();
    auto result = server.Query(BenchRequest(query));
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_ServerColdQuery)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Warm repeat: the steady state — prepared sketch and every window served
// from cache; the query only assembles the response.
void BM_ServerWarmQuery(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t nb = 90;
  DangoronServer server(BenchServerOptions());
  benchmark::DoNotOptimize(server.AddDataset("d", BenchData(n, nb, 11)).ok());
  const SlidingQuery query = BenchQuery(nb);
  // Fill the caches.
  benchmark::DoNotOptimize(server.Query(BenchRequest(query)).ok());
  for (auto _ : state) {
    auto result = server.Query(BenchRequest(query));
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_ServerWarmQuery)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Warm overlap: shifted ranges against a warm server — measures partial
// window reuse plus evaluation of the uncached remainder.
void BM_ServerWarmOverlapQuery(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t nb = 180;
  DangoronServer server(BenchServerOptions());
  benchmark::DoNotOptimize(server.AddDataset("d", BenchData(n, nb, 12)).ok());
  SlidingQuery query = BenchQuery(nb);
  benchmark::DoNotOptimize(server.Query(BenchRequest(query)).ok());
  int64_t shift = 0;
  for (auto _ : state) {
    SlidingQuery shifted = query;
    shifted.start = shift * kBasicWindow;
    auto result = server.Query(BenchRequest(shifted));
    benchmark::DoNotOptimize(result.ok());
    shift = (shift + 7) % 60;
  }
}
BENCHMARK(BM_ServerWarmOverlapQuery)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Streaming drain: SubmitStreaming against a warm server, consuming every
// window — the steady-state cost of the window pipeline itself (queue and
// delivery overhead on top of pure cache hits).
void BM_ServerStreamingWarmDrain(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t nb = 90;
  DangoronServer server(BenchServerOptions());
  benchmark::DoNotOptimize(server.AddDataset("d", BenchData(n, nb, 11)).ok());
  const SlidingQuery query = BenchQuery(nb);
  // Fill the caches.
  benchmark::DoNotOptimize(server.Query(BenchRequest(query)).ok());
  for (auto _ : state) {
    auto stream = server.SubmitStreaming(BenchRequest(query));
    int64_t windows = 0;
    while (auto window = stream->Next()) {
      benchmark::DoNotOptimize(window->edges->size());
      ++windows;
    }
    CHECK(stream->status().ok());
    benchmark::DoNotOptimize(windows);
  }
}
BENCHMARK(BM_ServerStreamingWarmDrain)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Multi-client throughput: each benchmark thread is a client submitting the
// same rotating set of overlapping queries to one shared server.
void BM_ServerMultiClient(benchmark::State& state) {
  static DangoronServer* server = [] {
    auto* s = new DangoronServer(BenchServerOptions());
    CHECK(s->AddDataset("d", BenchData(64, 180, 13)).ok());
    return s;
  }();
  const SlidingQuery base = BenchQuery(180);
  int64_t shift = state.thread_index();
  for (auto _ : state) {
    SlidingQuery query = base;
    query.start = (shift % 60) * kBasicWindow;
    auto result = server->Query(BenchRequest(query));
    benchmark::DoNotOptimize(result.ok());
    shift += 7;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerMultiClient)->Threads(1)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ------------------------------------------------ cold vs warm JSON -------

// Appends one "serving_tiers" row: the approx tier against the exact tier
// on uncached windows over `n` white-noise series. n = 512 puts the pair
// sketch (~200 MB) far past L2: the regime where the jump walk's probes
// into the prefix rows miss cache unless the walk prefetches them.
void AppendServingTiersRow(int64_t n, int64_t nb, std::FILE* out) {
  TimeSeriesMatrix data = BenchData(n, nb, 14);
  const SlidingQuery query = BenchQuery(nb);
  // Sketch warm and window cache cold for both sides: the exact tier pays
  // the full vectorized sweep (every window uncached — a fresh server per
  // rep, so nothing warms across reps), the approx tier pays the Eq. 2
  // jumping walk that skips below-threshold stretches. One identical
  // workload per rep, min per side, so the gated ratio describes a single
  // query shape. The ratio is the latency headroom a deadline-bound client
  // buys by accepting jumped windows.
  double exact_uncached_s = 1e300;
  double approx_s = 1e300;
  int64_t cells_jumped = 0;
  int64_t cells_total = 0;
  for (int rep = 0; rep < 3; ++rep) {
    DangoronServer tier_server(BenchServerOptions());
    CHECK(tier_server.AddDataset("d", data).ok());
    // Warm the sketch outside the timed region with a disjoint family —
    // on the approx tier, the one that builds and caches full sketches.
    SlidingQuery prepare_query = query;
    prepare_query.end = prepare_query.start + prepare_query.window;
    prepare_query.threshold = 0.95;
    QueryRequest prepare_request{"d", prepare_query, ServeOptions{}};
    prepare_request.options.tier = ServeTier::kApprox;
    CHECK(tier_server.Query(prepare_request).ok());

    QueryRequest exact_request{"d", query, ServeOptions{}};
    exact_request.options.tier = ServeTier::kExact;
    Stopwatch exact_timer;
    auto exact = tier_server.Query(exact_request);
    CHECK(exact.ok());
    CHECK(exact->prepared_from_cache);
    exact_uncached_s = std::min(exact_uncached_s,
                                exact_timer.ElapsedSeconds());

    QueryRequest approx_request{"d", query, ServeOptions{}};
    approx_request.options.tier = ServeTier::kApprox;
    Stopwatch approx_timer;
    auto approx = tier_server.Query(approx_request);
    CHECK(approx.ok());
    CHECK(approx->tier_used == ServeTier::kApprox);
    approx_s = std::min(approx_s, approx_timer.ElapsedSeconds());
    cells_jumped = approx->cells_jumped;  // deterministic: same every rep
    cells_total = query.NumWindows() * n * (n - 1) / 2;
  }
  std::fprintf(out,
               ",\n  {\"bench\": \"serving_tiers\", \"n_series\": %lld, "
               "\"num_basic_windows\": %lld, \"basic_window\": %lld,\n"
               "   \"exact_uncached_ms\": %.3f, \"approx_ms\": %.3f, "
               "\"approx_speedup\": %.2f, \"jumped_fraction\": %.4f}",
               static_cast<long long>(n), static_cast<long long>(nb),
               static_cast<long long>(kBasicWindow),
               exact_uncached_s * 1e3, approx_s * 1e3,
               exact_uncached_s / approx_s,
               cells_total > 0 ? static_cast<double>(cells_jumped) /
                                     static_cast<double>(cells_total)
                               : 0.0);
  std::fprintf(stderr,
               "serving tiers n=%lld: exact uncached %.3f ms, approx "
               "%.3f ms (%.2fx), %.1f%% of cells jumped\n",
               static_cast<long long>(n), exact_uncached_s * 1e3,
               approx_s * 1e3, exact_uncached_s / approx_s,
               cells_total > 0 ? 100.0 * static_cast<double>(cells_jumped) /
                                     static_cast<double>(cells_total)
                               : 0.0);
}

// Machine-readable cold/warm comparison mirroring BENCH_kernels.json: the
// serving layer's acceptance numbers are the warm speedup (prepare
// amortized across repeat queries) and the streaming path's
// time-to-first-window as a fraction of full-query latency, plus the tier
// rows of AppendServingTiersRow (all ratios are measured within one run, so
// they stay comparable across machines).
void WriteServingComparisonJson(const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  const int64_t nb = 90;
  std::fprintf(out, "[\n");
  bool first = true;
  for (const int64_t n : {32, 128}) {
    TimeSeriesMatrix data = BenchData(n, nb, 14);
    const SlidingQuery query = BenchQuery(nb);

    double cold_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      DangoronServer server(BenchServerOptions());
      CHECK(server.AddDataset("d", data).ok());
      Stopwatch timer;
      CHECK(server.Query(BenchRequest(query)).ok());
      cold_s = std::min(cold_s, timer.ElapsedSeconds());
    }

    // Cold streaming submit: time-to-first-window vs draining everything.
    // Fresh server per rep, so the first window pays prepare + its first
    // evaluation run — the latency a streaming client actually observes.
    // Measured (and gated) only at n >= 128: below that the cold query is
    // prepare-dominated, so the ttfw < cold_full margin is a few dozen
    // microseconds of evaluation difference between two separately-prepared
    // servers — pure scheduler noise, not a code property.
    const bool measure_streaming = n >= 128;
    double ttfw_s = 1e300;
    double stream_total_s = 1e300;
    int64_t stream_windows = 0;
    for (int rep = 0; measure_streaming && rep < 3; ++rep) {
      DangoronServer server(BenchServerOptions());
      CHECK(server.AddDataset("d", data).ok());
      Stopwatch timer;
      auto stream = server.SubmitStreaming(BenchRequest(query));
      auto head = stream->Next();
      CHECK(head.has_value());
      ttfw_s = std::min(ttfw_s, timer.ElapsedSeconds());
      int64_t windows = 1;
      while (stream->Next()) {
        ++windows;
      }
      CHECK(stream->status().ok());
      stream_total_s = std::min(stream_total_s, timer.ElapsedSeconds());
      stream_windows = windows;
    }

    DangoronServer server(BenchServerOptions());
    CHECK(server.AddDataset("d", data).ok());
    CHECK(server.Query(BenchRequest(query)).ok());
    double warm_s = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch timer;
      CHECK(server.Query(BenchRequest(query)).ok());
      warm_s = std::min(warm_s, timer.ElapsedSeconds());
    }

    std::fprintf(out,
                 "%s  {\"bench\": \"serving_cold_warm\", \"n_series\": %lld, "
                 "\"num_basic_windows\": %lld, \"basic_window\": %lld,\n"
                 "   \"cold_ms\": %.3f, \"warm_ms\": %.3f, "
                 "\"warm_speedup\": %.1f}",
                 first ? "" : ",\n", static_cast<long long>(n),
                 static_cast<long long>(nb),
                 static_cast<long long>(kBasicWindow), cold_s * 1e3,
                 warm_s * 1e3, cold_s / warm_s);
    first = false;
    if (measure_streaming) {
      std::fprintf(out,
                   ",\n  {\"bench\": \"serving_streaming\", \"n_series\": "
                   "%lld, \"num_basic_windows\": %lld, \"basic_window\": "
                   "%lld,\n"
                   "   \"windows\": %lld, \"ttfw_ms\": %.3f, "
                   "\"stream_total_ms\": %.3f, \"cold_full_ms\": %.3f, "
                   "\"ttfw_fraction\": %.4f}",
                   static_cast<long long>(n), static_cast<long long>(nb),
                   static_cast<long long>(kBasicWindow),
                   static_cast<long long>(stream_windows), ttfw_s * 1e3,
                   stream_total_s * 1e3, cold_s * 1e3, ttfw_s / cold_s);
      std::fprintf(stderr,
                   "serving n=%lld: cold %.2f ms, warm %.3f ms (%.0fx), "
                   "ttfw %.3f ms over %lld windows (%.1f%% of full)\n",
                   static_cast<long long>(n), cold_s * 1e3, warm_s * 1e3,
                   cold_s / warm_s, ttfw_s * 1e3,
                   static_cast<long long>(stream_windows),
                   100.0 * ttfw_s / cold_s);
    } else {
      std::fprintf(stderr,
                   "serving n=%lld: cold %.2f ms, warm %.3f ms (%.0fx); "
                   "streaming ttfw skipped (prepare-dominated below "
                   "n=128)\n",
                   static_cast<long long>(n), cold_s * 1e3, warm_s * 1e3,
                   cold_s / warm_s);
    }
  }

  for (const int64_t n : {32, 128, 512}) {
    AppendServingTiersRow(n, nb, out);
  }

  // Hard-deadline cancellation latency: how long past its deadline a
  // streaming exact query keeps running before it terminates. The sweep is
  // stalled with an injected per-band delay that dominates the band cost,
  // so the delay *is* the band width and the overshoot should track band
  // cadence: the mid-run check fires at the next band boundary, i.e.
  // within ~2 band-widths of the deadline (the acceptance bar
  // check_bench_regression.py gates). Emitted as a skipped row when the
  // failpoint sites are compiled out (DANGORON_FAILPOINTS=OFF).
#if DANGORON_FAILPOINTS_ENABLED
  {
    const int64_t n = 128;
    const double band_delay_ms = 10.0;
    const double deadline_ms = 15.0;
    TimeSeriesMatrix data = BenchData(n, nb, 14);
    const SlidingQuery query = BenchQuery(nb);
    double overshoot_s = 1e300;
    double total_s = 1e300;
    int64_t delivered = 0;
    for (int rep = 0; rep < 3; ++rep) {
      DangoronServer server(BenchServerOptions());
      CHECK(server.AddDataset("d", data).ok());
      // Warm the sketch with a disjoint threshold family so the measured
      // run spends its deadline in the sweep, not the prepare.
      SlidingQuery prepare_query = query;
      prepare_query.end = prepare_query.start + prepare_query.window;
      prepare_query.threshold = 0.95;
      CHECK(server.Query(BenchRequest(prepare_query)).ok());

      CHECK(FailpointRegistry::Instance()
                .Configure("sweep.band=delay:" +
                           std::to_string(static_cast<int64_t>(band_delay_ms)))
                .ok());
      QueryRequest request{"d", query, ServeOptions{}};
      request.options.tier = ServeTier::kExact;
      request.options.deadline_ms = static_cast<int64_t>(deadline_ms);
      Stopwatch timer;
      auto stream = server.SubmitStreaming(request);
      int64_t windows = 0;
      while (stream->Next()) {
        ++windows;
      }
      const double elapsed_s = timer.ElapsedSeconds();
      FailpointRegistry::Instance().DisarmAll();
      CHECK(stream->status().code() == StatusCode::kDeadlineExceeded);
      if (elapsed_s < total_s) {
        total_s = elapsed_s;
        overshoot_s = elapsed_s - deadline_ms * 1e-3;
        delivered = windows;
      }
    }
    const double overshoot_ms = overshoot_s * 1e3;
    const double overshoot_bands = overshoot_ms / band_delay_ms;
    std::fprintf(out,
                 ",\n  {\"bench\": \"hard_deadline_cancel\", \"n_series\": "
                 "%lld, \"num_basic_windows\": %lld, \"basic_window\": "
                 "%lld,\n"
                 "   \"deadline_ms\": %.1f, \"band_delay_ms\": %.1f, "
                 "\"total_ms\": %.3f, \"overshoot_ms\": %.3f, "
                 "\"overshoot_bands\": %.2f, \"windows_delivered\": %lld}",
                 static_cast<long long>(n), static_cast<long long>(nb),
                 static_cast<long long>(kBasicWindow), deadline_ms,
                 band_delay_ms, total_s * 1e3, overshoot_ms, overshoot_bands,
                 static_cast<long long>(delivered));
    std::fprintf(stderr,
                 "hard deadline n=%lld: deadline %.0f ms, terminated at "
                 "%.3f ms (overshoot %.3f ms = %.2f band-widths), %lld "
                 "windows delivered\n",
                 static_cast<long long>(n), deadline_ms, total_s * 1e3,
                 overshoot_ms, overshoot_bands,
                 static_cast<long long>(delivered));
  }
#else
  std::fprintf(out,
               ",\n  {\"bench\": \"hard_deadline_cancel\", \"n_series\": 128, "
               "\"skipped\": true}");
  std::fprintf(stderr,
               "hard deadline: skipped (DANGORON_FAILPOINTS=OFF)\n");
#endif  // DANGORON_FAILPOINTS_ENABLED
  std::fprintf(out, "\n]\n");
  std::fclose(out);
}

}  // namespace
}  // namespace dangoron

int main(int argc, char** argv) {
  // Like bench_microkernels: the JSON comparison runs on full sweeps only;
  // --serving_comparison=on|off overrides either way.
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
    if (arg == "--serving_comparison=on") {
      forced = 1;
    } else if (arg == "--serving_comparison=off") {
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
    dangoron::WriteServingComparisonJson("BENCH_serving.json");
  }
  return 0;
}
