// The paper's experiment tables in one binary: bench_paper <id|all>.
//
//   e1   pure query time vs TSUBASA and the brute force (claim C1)
//   e2   edge accuracy vs exact ground truth (claim C2)
//   e3   the jump trace of one pair (Figure 2)
//   e4   threshold sweep
//   e5   scaling in the number of series N
//   e6   query-window geometry and the basic-window ablation
//   e7   the Tomborg robustness grid (contribution 2)
//   e8   horizontal (pivot) pruning ablation
//   e9   ParCorr accuracy/time frontier over the sketch dimension
//   ex1  extension: the absolute-threshold mode on a signed workload
//
// Engines are named by factory spec ("dangoron:jump=off"), as
// `dangoron_serverd run` takes them. Timing cells (times, speedups) are best-of-N pure query
// times and vary run to run; every other cell is deterministic.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bound/bounds.h"
#include "common/rng.h"
#include "engine/factory.h"
#include "eval/table.h"
#include "eval/workloads.h"
#include "network/accuracy.h"
#include "sketch/basic_window_index.h"
#include "tomborg/tomborg.h"

namespace dangoron {
namespace {

// ------------------------------------------------------------ shared setup --

// The USCRN-like hourly climate workload (eval/workloads).
Result<TimeSeriesMatrix> Climate(int64_t stations, int64_t hours) {
  ClimateWorkload workload;
  workload.num_stations = stations;
  workload.num_hours = hours;
  return workload.Generate();
}

// A query over the whole hourly series; the defaults are the paper's
// geometry (ClimateWorkload::DefaultQuery: l = 30 days, eta = 1 day).
SlidingQuery Query(int64_t length, double beta, int64_t window = 24 * 30,
                   int64_t step = 24) {
  SlidingQuery query;
  query.start = 0;
  query.end = length;
  query.window = window;
  query.step = step;
  query.threshold = beta;
  return query;
}

// Prepares the engine named by `spec` ("name[:key=value,...]") and runs
// `query` `reps` times, keeping the fastest query time.
Result<EngineRun> Run(std::string_view spec, const TimeSeriesMatrix& data,
                      const SlidingQuery& query, int reps = 2) {
  const size_t colon = spec.find(':');
  const std::string_view options =
      colon == std::string_view::npos ? "" : spec.substr(colon + 1);
  ASSIGN_OR_RETURN(std::unique_ptr<CorrelationEngine> engine,
                   CreateEngine(std::string(spec.substr(0, colon)),
                                std::string(options)));
  return RunEngineTimed(engine.get(), data, query, reps);
}

double Fraction(int64_t part, int64_t whole) {
  return static_cast<double>(part) / static_cast<double>(whole);
}

double SkipRate(const EngineRun& run) {
  return Fraction(run.stats.cells_jumped, run.stats.cells_total);
}

// Bytes of a basic-window index over `data` at basic window `b`, in MiB
// (the estimate equals a built index's MemoryBytes).
double SketchMiB(const TimeSeriesMatrix& data, int64_t b) {
  BasicWindowIndexOptions options;
  options.basic_window = b;
  return static_cast<double>(BasicWindowIndex::EstimateMemoryBytes(
             data.num_series(), data.length(), options)) /
         (1 << 20);
}

Result<EdgeAccuracy> Accuracy(const EngineRun& truth, const EngineRun& run) {
  ASSIGN_OR_RETURN(SeriesAccuracy accuracy,
                   CompareSeries(truth.result, run.result));
  return accuracy.total;
}

// Adds the F1, precision, recall and value-RMSE cells of `run` scored
// against the exact `truth`.
Status AddAccuracyCells(const EngineRun& truth, const EngineRun& run,
                        Table* table) {
  ASSIGN_OR_RETURN(const EdgeAccuracy accuracy, Accuracy(truth, run));
  table->AddPercent(accuracy.F1())
      .AddPercent(accuracy.Precision())
      .AddPercent(accuracy.Recall())
      .AddDouble(accuracy.value_rmse, 4);
  return Status::Ok();
}

void Print(const Table& table) {
  std::printf("%s\n", table.ToString().c_str());
}

// -------------------------------------------------------------------- E1 --

// Paper claim C1: Dangoron is "an order of magnitude faster than TSUBASA in
// terms of pure query time". Expected shape: ~10x, growing with beta; the
// incremental (no-jump) mode already wins by reusing window overlap, the
// jump mode adds the Eq. 2 skipping on top.
Status E1() {
  ASSIGN_OR_RETURN(const TimeSeriesMatrix data, Climate(128, 24 * 365));
  std::printf("E1: pure query time, climate workload "
              "(N=%lld stations, L=%lld hours, l=30d, eta=1d)\n\n",
              static_cast<long long>(data.num_series()),
              static_cast<long long>(data.length()));
  Table table({"beta", "engine", "prepare", "query", "speedup vs tsubasa",
               "cells evaluated", "cells jumped", "edges"});
  const std::pair<const char*, std::string_view> engines[] = {
      {"tsubasa", "tsubasa"},
      {"naive", "naive"},
      {"dangoron-incremental", "dangoron:jump=off"},
      {"dangoron (jump)", "dangoron"}};
  for (const double beta : {0.8, 0.9}) {
    const SlidingQuery query = Query(data.length(), beta);
    double tsubasa_seconds = 0.0;
    for (const auto& [label, spec] : engines) {
      // The brute force runs once: its cost does not depend on beta.
      if (spec == "naive" && beta != 0.8) {
        continue;
      }
      ASSIGN_OR_RETURN(const EngineRun run,
                       Run(spec, data, query, spec == "naive" ? 1 : 3));
      if (spec == "tsubasa") {
        tsubasa_seconds = run.query_seconds;
      }
      table.AddRow()
          .AddDouble(beta, 2)
          .Add(label)
          .AddTime(run.prepare_seconds)
          .AddTime(run.query_seconds)
          .AddRatio(tsubasa_seconds / run.query_seconds)
          .AddInt(run.stats.cells_evaluated)
          .AddInt(run.stats.cells_jumped)
          .AddInt(run.result.TotalEdges());
    }
  }
  Print(table);
  std::printf("paper claim C1: dangoron >= 10x tsubasa on pure query time\n");
  return Status::Ok();
}

// -------------------------------------------------------------------- E2 --

// Paper claim C2: accuracy "above 90 percent, comparable to Parcorr".
// Dangoron's jumps can only err by skipping a window that crosses beta
// (missed edges), so its precision is 1 and its value RMSE 0; ParCorr errs
// both ways and perturbs values.
Status E2Rows(const char* workload, const TimeSeriesMatrix& data,
              const SlidingQuery& query, Table* table) {
  ASSIGN_OR_RETURN(const EngineRun truth,
                   Run("dangoron:jump=off", data, query, 1));
  // "+verify" is ParCorr as deployed: a 2-sigma (~2/sqrt(64)) candidate
  // margin, candidates re-checked exactly.
  const std::pair<const char*, const char*> engines[] = {
      {"dangoron (jump)", "dangoron"},
      {"dangoron (jump<=4)", "dangoron:max_jump=4"},
      {"parcorr d=64", "parcorr:dim=64"},
      {"parcorr d=256", "parcorr:dim=256"},
      {"parcorr d=64+verify", "parcorr:dim=64,verify=on,margin=0.25"}};
  for (const auto& [label, spec] : engines) {
    ASSIGN_OR_RETURN(const EngineRun run, Run(spec, data, query, 1));
    table->AddRow().Add(workload).Add(label);
    RETURN_IF_ERROR(AddAccuracyCells(truth, run, table));
    table->AddTime(run.query_seconds);
  }
  return Status::Ok();
}

Status E2() {
  std::printf("E2: edge accuracy vs exact ground truth "
              "(positive class: corr >= beta)\n\n");
  Table table({"workload", "engine", "F1", "precision", "recall",
               "value RMSE", "query"});
  ASSIGN_OR_RETURN(const TimeSeriesMatrix climate, Climate(64, 24 * 365));
  RETURN_IF_ERROR(
      E2Rows("climate", climate, Query(climate.length(), 0.8), &table));
  ASSIGN_OR_RETURN(
      const TomborgDataset tomborg,
      GenerateTomborg({.num_series = 64,
                       .length = 24 * 365,
                       .correlation = {.family = CorrelationFamily::kUniform,
                                       .a = 0.3,
                                       .b = 0.95},
                       .envelope = SpectralEnvelope::kPink}));
  RETURN_IF_ERROR(E2Rows("tomborg-uniform", tomborg.data,
                         Query(tomborg.data.length(), 0.8), &table));
  Print(table);
  std::printf(
      "paper claim C2: dangoron accuracy above 90%%, comparable to "
      "parcorr\n");
  return Status::Ok();
}

// -------------------------------------------------------------------- E3 --

// Paper Figure 2: one pair walking across the sliding windows — exact
// evaluations, the bound's binary search fixing each jump, skipped
// windows — then the jump statistics of all pairs per threshold.
Status E3() {
  ASSIGN_OR_RETURN(const TimeSeriesMatrix data, Climate(32, 24 * 365));
  const int64_t b = 24;
  BasicWindowIndexOptions index_options;
  index_options.basic_window = b;
  ASSIGN_OR_RETURN(const BasicWindowIndex index,
                   BasicWindowIndex::Build(data, index_options));

  const SlidingQuery query = Query(data.length(), 0.8);
  const int64_t ns = query.window / b;
  const int64_t m = query.step / b;
  const int64_t num_windows = query.NumWindows();
  const TemporalBound bound(&index, ns, m);

  // Pick the pair with the most volatile correlation (crosses the threshold
  // both ways) so the trace shows all three cell kinds of Figure 2.
  int64_t best_pair = 0;
  int64_t best_crossings = -1;
  for (int64_t p = 0; p < index.num_pairs(); ++p) {
    int64_t crossings = 0;
    bool above = false;
    for (int64_t k = 0; k < num_windows; ++k) {
      const bool now =
          index.PairRangeCorrelation(p, k * m, k * m + ns) >= query.threshold;
      if (k > 0 && now != above) {
        ++crossings;
      }
      above = now;
    }
    if (crossings > best_crossings) {
      best_crossings = crossings;
      best_pair = p;
    }
  }
  int64_t i = 0;
  int64_t j = 0;
  BasicWindowIndex::PairFromId(best_pair, index.num_series(), &i, &j);
  std::printf("E3: jump trace of pair (%lld, %lld), beta=%.2f, %lld windows, "
              "%lld threshold crossings\n\n",
              static_cast<long long>(i), static_cast<long long>(j),
              query.threshold, static_cast<long long>(num_windows),
              static_cast<long long>(best_crossings));

  // Walk the pair exactly as DangoronEngine does, recording the map:
  //   E = exact evaluation below threshold (blue in Figure 2)
  //   # = exact evaluation at/above threshold (edge emitted)
  //   . = window skipped by a jump (green)
  std::string map(static_cast<size_t>(num_windows), '?');
  int64_t jumps = 0;
  int64_t skipped = 0;
  int64_t evaluated = 0;
  int64_t k = 0;
  while (k < num_windows) {
    const int64_t w0 = k * m;
    const double corr = index.PairRangeCorrelation(best_pair, w0, w0 + ns);
    ++evaluated;
    if (corr >= query.threshold) {
      map[static_cast<size_t>(k)] = '#';
      ++k;
      continue;
    }
    map[static_cast<size_t>(k)] = 'E';
    const int64_t skip = bound.MaxSkippableBelow(best_pair, w0, corr,
                                                 query.threshold,
                                                 num_windows - 1 - k);
    for (int64_t d = 1; d <= skip; ++d) {
      map[static_cast<size_t>(k + d)] = '.';
    }
    if (skip > 0) {
      ++jumps;
      skipped += skip;
    }
    k += skip + 1;
  }

  std::printf("legend: E exact<beta (blue)  # edge (exact>=beta)  "
              ". skipped by jump (green)\n");
  for (int64_t start = 0; start < num_windows; start += 84) {
    const int64_t end = std::min(num_windows, start + 84);
    std::printf("  w%03lld  %s\n", static_cast<long long>(start),
                map.substr(static_cast<size_t>(start),
                           static_cast<size_t>(end - start))
                    .c_str());
  }
  std::printf("\npair trace: %lld evaluated, %lld skipped in %lld jumps "
              "(%.1f%% of windows skipped)\n\n",
              static_cast<long long>(evaluated),
              static_cast<long long>(skipped),
              static_cast<long long>(jumps),
              100.0 * Fraction(skipped, num_windows));

  Table table({"beta", "cells total", "evaluated", "jumped", "jumps",
               "mean jump len", "skip rate"});
  for (const double beta : {0.5, 0.7, 0.8, 0.9, 0.95}) {
    ASSIGN_OR_RETURN(const EngineRun run,
                     Run("dangoron", data, Query(data.length(), beta), 1));
    const EngineStats& stats = run.stats;
    table.AddRow()
        .AddDouble(beta, 2)
        .AddInt(stats.cells_total)
        .AddInt(stats.cells_evaluated)
        .AddInt(stats.cells_jumped)
        .AddInt(stats.jumps)
        .AddDouble(
            stats.jumps > 0 ? Fraction(stats.cells_jumped, stats.jumps) : 0.0,
            2)
        .AddPercent(SkipRate(run));
  }
  std::printf("%s", table.ToString().c_str());
  return Status::Ok();
}

// -------------------------------------------------------------------- E4 --

// The Eq. 2 jump budget grows with the gap between the running
// correlation and beta, so skip rates — and Dangoron's advantage — rise
// with the threshold; edge density shows the workload's selectivity.
Status E4() {
  ASSIGN_OR_RETURN(const TimeSeriesMatrix data, Climate(96, 24 * 365));
  std::printf("E4: threshold sweep (N=%lld, hourly year, l=30d, eta=1d)\n\n",
              static_cast<long long>(data.num_series()));
  Table table({"beta", "tsubasa", "dangoron", "speedup", "skip rate",
               "edge density", "F1 vs exact"});
  for (const double beta : {0.5, 0.6, 0.7, 0.8, 0.9, 0.95}) {
    const SlidingQuery query = Query(data.length(), beta);
    ASSIGN_OR_RETURN(const EngineRun tsubasa, Run("tsubasa", data, query));
    ASSIGN_OR_RETURN(const EngineRun dangoron, Run("dangoron", data, query));
    ASSIGN_OR_RETURN(const EdgeAccuracy accuracy, Accuracy(tsubasa, dangoron));
    table.AddRow()
        .AddDouble(beta, 2)
        .AddTime(tsubasa.query_seconds)
        .AddTime(dangoron.query_seconds)
        .AddRatio(tsubasa.query_seconds / dangoron.query_seconds)
        .AddPercent(SkipRate(dangoron))
        .AddPercent(Fraction(tsubasa.result.TotalEdges(),
                             dangoron.stats.cells_total))
        .AddPercent(accuracy.F1());
  }
  Print(table);
  std::printf("expected shape: skip rate and speedup grow with beta; "
              "F1 stays >= ~90%%\n");
  return Status::Ok();
}

// -------------------------------------------------------------------- E5 --

// Both engines are all-pairs quadratic in N, so times grow ~4x per
// doubling while the ratio should hold. A half year of hourly data keeps
// the largest configuration's pair sketches in memory.
Status E5() {
  std::printf("E5: scaling in N (half hourly year, l=30d, eta=1d, "
              "beta=0.8)\n\n");
  Table table({"N", "pairs", "tsubasa", "dangoron", "speedup",
               "sketch MiB", "prepare"});
  for (const int64_t n : {32, 64, 128, 192, 256}) {
    ASSIGN_OR_RETURN(const TimeSeriesMatrix data, Climate(n, 24 * 182));
    const SlidingQuery query = Query(data.length(), 0.8);
    ASSIGN_OR_RETURN(const EngineRun tsubasa, Run("tsubasa", data, query));
    ASSIGN_OR_RETURN(const EngineRun dangoron, Run("dangoron", data, query));
    table.AddRow()
        .AddInt(n)
        .AddInt(n * (n - 1) / 2)
        .AddTime(tsubasa.query_seconds)
        .AddTime(dangoron.query_seconds)
        .AddRatio(tsubasa.query_seconds / dangoron.query_seconds)
        .AddDouble(SketchMiB(data, 24), 1)
        .AddTime(dangoron.prepare_seconds);
  }
  Print(table);
  std::printf("expected shape: both quadratic in N; speedup roughly flat\n");
  return Status::Ok();
}

// -------------------------------------------------------------------- E6 --

// (a) TSUBASA's per-window cost grows with ns = l/b while Dangoron's O(1)
// evaluation does not, so the speedup grows with l and shrinks with eta
// (less overlap to reuse). (b) A small basic window b means bigger prefix
// arrays and build time; a large one coarsens the jump bound.
Status E6() {
  ASSIGN_OR_RETURN(const TimeSeriesMatrix data, Climate(64, 24 * 365));
  std::printf("E6a: window/step geometry (N=64, hourly year, beta=0.8, "
              "b=24)\n\n");
  Table geometry({"window l", "step eta", "windows", "tsubasa", "dangoron",
                  "speedup", "skip rate"});
  for (const int64_t window_days : {7, 14, 30, 60}) {
    for (const int64_t step_days : {1, 7}) {
      const SlidingQuery query =
          Query(data.length(), 0.8, 24 * window_days, 24 * step_days);
      ASSIGN_OR_RETURN(const EngineRun tsubasa, Run("tsubasa", data, query));
      ASSIGN_OR_RETURN(const EngineRun dangoron,
                       Run("dangoron", data, query));
      geometry.AddRow()
          .Add(std::to_string(window_days) + "d")
          .Add(std::to_string(step_days) + "d")
          .AddInt(query.NumWindows())
          .AddTime(tsubasa.query_seconds)
          .AddTime(dangoron.query_seconds)
          .AddRatio(tsubasa.query_seconds / dangoron.query_seconds)
          .AddPercent(SkipRate(dangoron));
    }
  }
  Print(geometry);

  std::printf("E6b: basic window ablation (l=30d=720h, eta fixed to b)\n\n");
  Table ablation({"b (hours)", "ns per window", "prepare", "dangoron query",
                  "skip rate", "sketch MiB"});
  for (const int64_t b : {6, 12, 24, 48, 120}) {
    // l = 720 h is divisible by every b; the query slides one basic window.
    ASSIGN_OR_RETURN(const EngineRun run,
                     Run("dangoron:basic_window=" + std::to_string(b), data,
                         Query(data.length(), 0.8, 720, b)));
    ablation.AddRow()
        .AddInt(b)
        .AddInt(720 / b)
        .AddTime(run.prepare_seconds)
        .AddTime(run.query_seconds)
        .AddPercent(SkipRate(run))
        .AddDouble(SketchMiB(data, b), 1);
  }
  Print(ablation);
  std::printf("expected shape: speedup grows with l/b; small b costs memory "
              "and build time, large b coarsens jumps\n");
  return Status::Ok();
}

// -------------------------------------------------------------------- E7 --

// Tomborg (paper contribution 2) controls the correlation distribution and
// the spectral envelope; a robustness claim must hold on every cell of the
// (distribution x envelope) grid, not only where "energy concentrates in a
// few domains" as frequency-transform methods need.
Status E7() {
  std::printf("E7: Tomborg robustness grid "
              "(N=48, L=8760, l=30d, eta=1d, beta=0.8)\n\n");
  const std::pair<const char*, CorrelationSpec> distributions[] = {
      {"uniform[.2,.95]",
       {.family = CorrelationFamily::kUniform, .a = 0.2, .b = 0.95}},
      {"normal(.75,.12)",
       {.family = CorrelationFamily::kClippedNormal, .a = 0.75, .b = 0.12}},
      {"block(6)",
       {.family = CorrelationFamily::kBlock,
        .a = 0.85,
        .b = 0.2,
        .blocks = 6,
        .jitter = 0.04}},
      {"hub(6)",
       {.family = CorrelationFamily::kHub,
        .a = 0.8,
        .b = 0.3,
        .hubs = 6,
        .jitter = 0.04}},
  };
  const std::pair<const char*, SpectralEnvelope> envelopes[] = {
      {"white", SpectralEnvelope::kWhite},
      {"pink", SpectralEnvelope::kPink},
      {"seasonal", SpectralEnvelope::kSeasonal},
      {"highpass", SpectralEnvelope::kHighPass}};

  Table table({"distribution", "envelope", "realized max|err|",
               "dangoron F1", "dangoron speedup", "parcorr F1",
               "edge density"});
  for (const auto& [distribution, correlation] : distributions) {
    for (uint64_t e = 0; e < 4; ++e) {
      ASSIGN_OR_RETURN(const TomborgDataset dataset,
                       GenerateTomborg({.num_series = 48,
                                        .length = 24 * 365,
                                        .correlation = correlation,
                                        .envelope = envelopes[e].second,
                                        .seed = 9000 + e}));
      ASSIGN_OR_RETURN(const RealizationError realization,
                       MeasureRealization(dataset.data, dataset.target));
      const SlidingQuery query = Query(dataset.data.length(), 0.8);
      ASSIGN_OR_RETURN(const EngineRun truth,
                       Run("tsubasa", dataset.data, query));
      ASSIGN_OR_RETURN(const EngineRun dangoron,
                       Run("dangoron", dataset.data, query));
      ASSIGN_OR_RETURN(const EngineRun parcorr,
                       Run("parcorr:dim=64", dataset.data, query, 1));
      ASSIGN_OR_RETURN(const EdgeAccuracy dangoron_accuracy,
                       Accuracy(truth, dangoron));
      ASSIGN_OR_RETURN(const EdgeAccuracy parcorr_accuracy,
                       Accuracy(truth, parcorr));
      table.AddRow()
          .Add(distribution)
          .Add(envelopes[e].first)
          .AddDouble(realization.max_abs, 3)
          .AddPercent(dangoron_accuracy.F1())
          .AddRatio(truth.query_seconds / dangoron.query_seconds)
          .AddPercent(parcorr_accuracy.F1())
          .AddPercent(Fraction(truth.result.TotalEdges(),
                               truth.stats.cells_total));
    }
  }
  Print(table);
  std::printf("expected shape: dangoron F1 high across the whole grid "
              "(robust); envelope shifts do not break it\n");
  return Status::Ok();
}

// -------------------------------------------------------------------- E8 --

// Each pivot costs an exact pivot-to-all scan per window (P*N cells); a
// pair whose intersected triangle-inequality bound falls below beta is
// pruned. The bound is a theorem, so results stay exact; the ablation asks
// whether the pruned cells pay for the scans. Pivots inside a block
// certify that cross-block pairs cannot clear the threshold.
Status E8Rows(const char* workload, const TimeSeriesMatrix& data,
              Table* table) {
  const SlidingQuery query = Query(data.length(), 0.85);
  for (const int32_t pivots : {0, 2, 4, 8, 16}) {
    // Jumping off isolates the horizontal effect.
    std::string spec = "dangoron:jump=off,pivots=" + std::to_string(pivots);
    spec += pivots > 0 ? ",horizontal=on" : ",horizontal=off";
    ASSIGN_OR_RETURN(const EngineRun run, Run(spec, data, query));
    table->AddRow()
        .Add(workload)
        .AddInt(pivots)
        .AddTime(run.query_seconds)
        .AddPercent(Fraction(run.stats.cells_horizontal_pruned,
                             run.stats.cells_total))
        .AddInt(run.stats.pivot_evaluations)
        .AddInt(run.result.TotalEdges());
  }
  return Status::Ok();
}

Status E8() {
  std::printf("E8: horizontal pruning ablation (jumping disabled; exact "
              "results by construction)\n\n");
  Table table({"workload", "pivots", "query", "pruned cells",
               "pivot evals", "edges"});
  ASSIGN_OR_RETURN(const TimeSeriesMatrix climate, Climate(64, 24 * 182));
  RETURN_IF_ERROR(E8Rows("climate", climate, &table));
  ASSIGN_OR_RETURN(
      const TomborgDataset block,
      GenerateTomborg({.num_series = 64,
                       .length = 24 * 182,
                       .correlation = {.family = CorrelationFamily::kBlock,
                                       .a = 0.9,
                                       .b = 0.1,
                                       .blocks = 8}}));
  RETURN_IF_ERROR(E8Rows("block(8)", block.data, &table));
  Print(table);
  std::printf("expected shape: pruned fraction rises with pivots, strongest "
              "on block-structured data; edges identical in every row\n");
  return Status::Ok();
}

// -------------------------------------------------------------------- E9 --

// ParCorr's one knob is d, the number of random projections: estimate
// error ~ 1/sqrt(d), per-cell cost ~ d. Where does it cross the 90% bar,
// and at what cost next to Dangoron, which has no value-precision tradeoff?
Status E9() {
  ASSIGN_OR_RETURN(const TimeSeriesMatrix data, Climate(64, 24 * 365));
  const SlidingQuery query = Query(data.length(), 0.8);
  std::printf("E9: parcorr sketch-dimension sweep (N=64, hourly year, "
              "beta=0.8)\n\n");
  ASSIGN_OR_RETURN(const EngineRun truth,
                   Run("dangoron:jump=off", data, query, 1));

  Table table({"engine", "F1", "precision", "recall", "value RMSE",
               "query", "prepare"});
  std::vector<std::pair<std::string, std::string>> rows;
  for (const int d : {8, 16, 32, 64, 128, 256}) {
    rows.emplace_back("parcorr d=" + std::to_string(d),
                      "parcorr:dim=" + std::to_string(d));
  }
  rows.emplace_back("parcorr d=64+verify",
                    "parcorr:dim=64,verify=on,margin=0.25");
  rows.emplace_back("dangoron (jump)", "dangoron");
  for (const auto& [label, spec] : rows) {
    ASSIGN_OR_RETURN(const EngineRun run, Run(spec, data, query));
    table.AddRow().Add(label);
    RETURN_IF_ERROR(AddAccuracyCells(truth, run, &table));
    table.AddTime(run.query_seconds).AddTime(run.prepare_seconds);
  }
  Print(table);
  std::printf("expected shape: F1 rises with d (error ~ 1/sqrt(d)); "
              "dangoron reaches higher F1 with zero value RMSE\n");
  return Status::Ok();
}

// ------------------------------------------------------------------- EX1 --

// Three series groups around one AR(1) factor: positively loaded,
// negatively loaded, independent.
TimeSeriesMatrix SignedWorkload(int64_t n, int64_t length, uint64_t seed) {
  Rng rng(seed);
  TimeSeriesMatrix data(n, length);
  std::vector<double> factor(static_cast<size_t>(length));
  double state = rng.NextGaussian();
  for (double& v : factor) {
    state = 0.95 * state + std::sqrt(1 - 0.95 * 0.95) * rng.NextGaussian();
    v = state;
  }
  for (int64_t s = 0; s < n; ++s) {
    const int group = static_cast<int>(s % 3);
    const double loading = group == 0 ? 0.85 : (group == 1 ? -0.85 : 0.0);
    const double noise = std::sqrt(1.0 - loading * loading);
    std::span<double> row = data.Row(s);
    for (int64_t t = 0; t < length; ++t) {
      row[static_cast<size_t>(t)] =
          loading * factor[static_cast<size_t>(t)] +
          noise * rng.NextGaussian();
    }
  }
  return data;
}

// The absolute-threshold mode (|corr| >= beta) of climate teleconnection
// networks, where strong anti-correlations are edges too: plain mode sees
// only the positive group, absolute mode also the negative inter-group
// edges. Jumping still applies — a non-edge is skipped while Eq. 2 confines
// it to (-beta, beta), an edge while it provably stays on its own side.
Status EX1() {
  const int64_t n = 96;
  const TimeSeriesMatrix data = SignedWorkload(n, 24 * 365, 404);
  std::printf("EX1 (extension): absolute-threshold mode, signed workload "
              "(N=%lld: 1/3 positive group, 1/3 anti group, 1/3 noise)\n\n",
              static_cast<long long>(n));
  Table table({"mode", "beta", "tsubasa", "dangoron", "speedup",
               "skip rate", "edges", "neg. edges", "F1 vs exact"});
  for (const bool absolute : {false, true}) {
    for (const double beta : {0.6, 0.8}) {
      SlidingQuery query = Query(data.length(), beta);
      query.absolute = absolute;
      ASSIGN_OR_RETURN(const EngineRun truth, Run("tsubasa", data, query));
      ASSIGN_OR_RETURN(const EngineRun dangoron,
                       Run("dangoron", data, query));
      ASSIGN_OR_RETURN(const EdgeAccuracy accuracy, Accuracy(truth, dangoron));
      int64_t negative_edges = 0;
      for (int64_t k = 0; k < truth.result.num_windows(); ++k) {
        for (const Edge& edge : truth.result.WindowEdges(k)) {
          negative_edges += edge.value < 0.0 ? 1 : 0;
        }
      }
      table.AddRow()
          .Add(absolute ? "|corr|>=beta" : "corr>=beta")
          .AddDouble(beta, 2)
          .AddTime(truth.query_seconds)
          .AddTime(dangoron.query_seconds)
          .AddRatio(truth.query_seconds / dangoron.query_seconds)
          .AddPercent(SkipRate(dangoron))
          .AddInt(truth.result.TotalEdges())
          .AddInt(negative_edges)
          .AddPercent(accuracy.F1());
    }
  }
  Print(table);
  std::printf("expected shape: absolute mode recovers the anti-coupled "
              "group's edges (negative column) at the same speedup class\n");
  return Status::Ok();
}

struct Experiment {
  const char* id;
  Status (*run)();
};
constexpr Experiment kExperiments[] = {
    {"e1", E1}, {"e2", E2}, {"e3", E3}, {"e4", E4}, {"e5", E5},
    {"e6", E6}, {"e7", E7}, {"e8", E8}, {"e9", E9}, {"ex1", EX1}};

}  // namespace
}  // namespace dangoron

int main(int argc, char** argv) {
  const std::string_view wanted = argc == 2 ? argv[1] : "";
  bool matched = false;
  for (const auto& [id, run] : dangoron::kExperiments) {
    if (wanted != "all" && wanted != id) {
      continue;
    }
    matched = true;
    if (const dangoron::Status status = run(); !status.ok()) {
      std::fprintf(stderr, "%s: %s\n", id, status.ToString().c_str());
      return 1;
    }
  }
  if (!matched) {
    std::fprintf(stderr, "usage: bench_paper <e1|...|e9|ex1|all>\n");
    return 2;
  }
  return 0;
}
