// Wire front-end loadgen: N concurrent TCP connections against a WireServer,
// each submitting a stream of warm QueryRequests, measuring per-request
// latency and time-to-first-window distributions (p50/p99). This is a
// closed-loop load generator, not a google-benchmark microbench — the
// numbers of record go to BENCH_wire.json, gated by
// scripts/check_bench_regression.py with within-run hardware-robust bounds
// (failures, delivered-window accounting, ttfw < total ordering), not
// absolute milliseconds.
//
// A second section measures shard-parallel serving: the same query served
// cold (result cache off) by one in-process shard versus K shards behind a
// ShardRouter, each shard a single-threaded server + WireServer pair joined
// over socketpairs — the in-process stand-in for K shard processes. The
// K=4-vs-K=1 cold throughput ratio is the scaling number the router exists
// for; check_bench_regression.py --wire-shard-scaling gates it at >= 2.5x
// on machines with >= 4 cores (rows mark themselves "skipped" below that,
// where the ratio measures the scheduler, not the router).
//
// Flags: --connections=<n> (default 32), --requests=<per connection,
// default 8), --shards=<K> (default 4, 0 = skip the shard section),
// --wire_comparison=off to skip the JSON.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "net/wire_server.h"
#include "router/shard_router.h"
#include "serve/server.h"
#include "ts/generators.h"
#include "wire/client.h"

namespace dangoron {
namespace {

constexpr int64_t kBasicWindow = 24;
constexpr int64_t kNumBasicWindows = 90;
constexpr int64_t kNumSeries = 64;

/// The shard section runs a wider dataset: pair ranges split at
/// kSweepTilePairs (1024) granularity, so a 4-way fan-out needs >= 4 tiles
/// — 128 series = 8128 pairs = 8 tiles, two per shard at K=4. (64 series
/// is only 2 tiles: half the shards would idle.)
constexpr int64_t kShardNumSeries = 128;

SlidingQuery BenchQuery() {
  SlidingQuery query;
  query.start = 0;
  query.end = kNumBasicWindows * kBasicWindow;
  query.window = 30 * kBasicWindow;
  query.step = kBasicWindow;
  query.threshold = 0.7;
  return query;
}

double PercentileMs(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) {
    return 0.0;
  }
  std::sort(sorted_ms->begin(), sorted_ms->end());
  const double rank = p / 100.0 * static_cast<double>(sorted_ms->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_ms->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*sorted_ms)[lo] * (1.0 - frac) + (*sorted_ms)[hi] * frac;
}

struct LoadResult {
  std::vector<double> total_ms;
  std::vector<double> ttfw_ms;
  int64_t failures = 0;
  int64_t window_mismatches = 0;
  double wall_s = 0.0;
};

// One client: its own TCP connection, `requests` sequential warm queries.
void RunClient(int port, int requests, int64_t expected_windows,
               std::vector<double>* total_ms, std::vector<double>* ttfw_ms,
               std::atomic<int64_t>* failures,
               std::atomic<int64_t>* window_mismatches) {
  auto client = WireClient::ConnectTcp("127.0.0.1", port);
  if (!client.ok()) {
    failures->fetch_add(requests);
    return;
  }
  const SlidingQuery query = BenchQuery();
  for (int r = 0; r < requests; ++r) {
    WireRequest request;
    request.dataset = "d";
    request.query = query;
    Stopwatch watch;
    if (!(*client)->Submit(request).ok()) {
      failures->fetch_add(1);
      return;  // the connection is unusable past a transport error
    }
    int64_t windows = 0;
    double first_ms = 0.0;
    bool transport_ok = true;
    while (true) {
      auto window = (*client)->Next();
      if (!window.ok()) {
        transport_ok = false;
        break;
      }
      if (!window->has_value()) {
        break;
      }
      if (windows == 0) {
        first_ms = watch.ElapsedSeconds() * 1e3;
      }
      ++windows;
    }
    if (!transport_ok || !(*client)->result_status().ok()) {
      failures->fetch_add(1);
      if (!transport_ok) {
        return;
      }
      continue;
    }
    if (windows != expected_windows ||
        (*client)->summary().windows_delivered != windows) {
      window_mismatches->fetch_add(1);
      continue;
    }
    total_ms->push_back(watch.ElapsedSeconds() * 1e3);
    ttfw_ms->push_back(first_ms);
  }
}

LoadResult RunLoad(int port, int connections, int requests,
                   int64_t expected_windows) {
  std::vector<std::vector<double>> totals(connections);
  std::vector<std::vector<double>> firsts(connections);
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> window_mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(connections);
  Stopwatch wall;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back(RunClient, port, requests, expected_windows,
                         &totals[c], &firsts[c], &failures,
                         &window_mismatches);
  }
  for (std::thread& client : clients) {
    client.join();
  }
  LoadResult result;
  result.wall_s = wall.ElapsedSeconds();
  for (int c = 0; c < connections; ++c) {
    result.total_ms.insert(result.total_ms.end(), totals[c].begin(),
                           totals[c].end());
    result.ttfw_ms.insert(result.ttfw_ms.end(), firsts[c].begin(),
                          firsts[c].end());
  }
  result.failures = failures.load();
  result.window_mismatches = window_mismatches.load();
  return result;
}

struct ShardLoadRow {
  int shards = 0;
  int requests = 0;
  std::vector<double> total_ms;
  std::vector<double> ttfw_ms;
  std::vector<int64_t> per_shard_requests;
  int64_t failures = 0;
  int64_t window_mismatches = 0;
  double wall_s = 0.0;
};

// One closed-loop client driving `requests` sequential cold exact queries
// through a ShardRouter over `shards` in-process shard backends. Each shard
// is its own single-threaded DangoronServer (result cache off — every
// request recomputes its windows) behind its own single-worker WireServer,
// joined over socketpairs: the in-process stand-in for K shard processes,
// where sharding is the only parallelism axis.
ShardLoadRow RunShardLoad(std::shared_ptr<const TimeSeriesMatrix> data,
                          int64_t num_series, int shards, int requests,
                          int64_t expected_windows) {
  ShardLoadRow row;
  row.shards = shards;
  row.requests = requests;

  std::vector<std::unique_ptr<DangoronServer>> servers;
  std::vector<std::unique_ptr<WireServer>> wires;
  for (int s = 0; s < shards; ++s) {
    DangoronServerOptions server_options;
    server_options.num_threads = 1;
    server_options.basic_window = kBasicWindow;
    server_options.result_cache_bytes = 0;  // cold: every window recomputed
    auto server = std::make_unique<DangoronServer>(server_options);
    CHECK(server->AddDataset("d", data).ok());
    WireServerOptions wire_options;
    wire_options.port = -1;  // listener-less; connections via AddConnection
    wire_options.worker_threads = 1;
    auto wire = std::make_unique<WireServer>(server.get(), wire_options);
    CHECK(wire->Start().ok());
    servers.push_back(std::move(server));
    wires.push_back(std::move(wire));
  }

  ShardRouterOptions router_options;
  router_options.shards.resize(shards);  // endpoints unused: override below
  router_options.connect_override =
      [&wires](int shard) -> Result<std::unique_ptr<WireClient>> {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return Status::IoError("socketpair failed");
    }
    if (Status added = wires[shard]->AddConnection(fds[0]); !added.ok()) {
      ::close(fds[1]);  // fds[0] belongs to the server even on failure
      return added;
    }
    return WireClient::Adopt(fds[1]);
  };
  ShardRouter router(router_options);

  const int64_t num_pairs = num_series * (num_series - 1) / 2;
  WireRequest request;
  request.dataset = "d";
  request.query = BenchQuery();
  Stopwatch wall;
  for (int r = 0; r < requests; ++r) {
    Stopwatch watch;
    auto merge = router.Submit(request, num_pairs);
    if (!merge.ok()) {
      ++row.failures;
      continue;
    }
    int64_t windows = 0;
    double first_ms = 0.0;
    while (std::optional<StreamedWindow> window = (*merge)->Next()) {
      if (windows == 0) {
        first_ms = watch.ElapsedSeconds() * 1e3;
      }
      ++windows;
    }
    if (!(*merge)->status().ok()) {
      ++row.failures;
      continue;
    }
    if (windows != expected_windows ||
        (*merge)->summary().windows_delivered != windows) {
      ++row.window_mismatches;
      continue;
    }
    row.total_ms.push_back(watch.ElapsedSeconds() * 1e3);
    row.ttfw_ms.push_back(first_ms);
  }
  row.wall_s = wall.ElapsedSeconds();

  for (int s = 0; s < shards; ++s) {
    wires[s]->Stop();
    row.per_shard_requests.push_back(wires[s]->stats().requests);
  }
  return row;
}

/// Appends one "wire_shard_cold" JSON row. `skipped` marks the row as not
/// scaling-gated (too few cores for the ratio to measure the router);
/// the correctness fields (failures, mismatches, accounting) are gated
/// regardless.
void WriteShardRow(std::FILE* out, ShardLoadRow* row, unsigned cores,
                   bool skipped) {
  const double p50 = PercentileMs(&row->total_ms, 50.0);
  const double p99 = PercentileMs(&row->total_ms, 99.0);
  const double ttfw_p50 = PercentileMs(&row->ttfw_ms, 50.0);
  const double ttfw_p99 = PercentileMs(&row->ttfw_ms, 99.0);
  const double rps =
      row->wall_s > 0.0
          ? static_cast<double>(row->total_ms.size()) / row->wall_s
          : 0.0;
  std::fprintf(
      out,
      ",\n  {\"bench\": \"wire_shard_cold\", \"shards\": %d, "
      "\"connections\": 1, \"requests_per_connection\": %d, "
      "\"total_requests\": %d,\n"
      "   \"completed\": %lld, \"failures\": %lld, "
      "\"window_mismatches\": %lld, \"cores\": %u, \"skipped\": %s,\n"
      "   \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"ttfw_p50_ms\": %.3f, "
      "\"ttfw_p99_ms\": %.3f, \"throughput_rps\": %.2f, "
      "\"wall_s\": %.3f,\n   \"per_shard_requests\": [",
      row->shards, row->requests, row->requests,
      static_cast<long long>(row->total_ms.size()),
      static_cast<long long>(row->failures),
      static_cast<long long>(row->window_mismatches), cores,
      skipped ? "true" : "false", p50, p99, ttfw_p50, ttfw_p99, rps,
      row->wall_s);
  for (size_t s = 0; s < row->per_shard_requests.size(); ++s) {
    std::fprintf(out, "%s%lld", s == 0 ? "" : ", ",
                 static_cast<long long>(row->per_shard_requests[s]));
  }
  std::fprintf(out, "]}");
}

int RunBench(int connections, int requests, int shards, bool write_json) {
  Rng rng(17);
  DangoronServerOptions server_options;
  server_options.num_threads = 0;
  server_options.basic_window = kBasicWindow;
  DangoronServer server(server_options);
  // Shared (not copied) with the shard servers below: shards replicate the
  // dataset, and the registry holds content-addressed shared_ptrs anyway.
  auto data = std::make_shared<const TimeSeriesMatrix>(GenerateWhiteNoise(
      kNumSeries, kNumBasicWindows * kBasicWindow, &rng));
  CHECK(server.AddDataset("d", data).ok());
  const SlidingQuery query = BenchQuery();
  // Every window cached.
  auto warm = server.Query(QueryRequest{"d", query, ServeOptions{}});
  CHECK(warm.ok());
  const int64_t expected_windows = warm->series.num_windows();

  WireServerOptions wire_options;
  wire_options.port = 0;  // ephemeral
  wire_options.worker_threads = connections;  // one in-flight per connection
  wire_options.max_connections = connections + 8;
  WireServer wire(&server, wire_options);
  CHECK(wire.Start().ok());

  LoadResult load =
      RunLoad(wire.port(), connections, requests, expected_windows);
  wire.Stop();
  const WireServerStats stats = wire.stats();

  const double p50 = PercentileMs(&load.total_ms, 50.0);
  const double p99 = PercentileMs(&load.total_ms, 99.0);
  const double ttfw_p50 = PercentileMs(&load.ttfw_ms, 50.0);
  const double ttfw_p99 = PercentileMs(&load.ttfw_ms, 99.0);
  const int64_t total_requests =
      static_cast<int64_t>(connections) * requests;
  const double rps =
      load.wall_s > 0.0
          ? static_cast<double>(load.total_ms.size()) / load.wall_s
          : 0.0;

  std::fprintf(stderr,
               "wire load: %d connections x %d requests, %lld windows each "
               "(%lld series): p50 %.3f ms, p99 %.3f ms, ttfw p50 %.3f ms, "
               "ttfw p99 %.3f ms, %.0f req/s, %lld failures, "
               "%lld mismatches; lanes high=%lld medium=%lld low=%lld\n",
               connections, requests,
               static_cast<long long>(expected_windows),
               static_cast<long long>(kNumSeries), p50, p99, ttfw_p50,
               ttfw_p99, rps, static_cast<long long>(load.failures),
               static_cast<long long>(load.window_mismatches),
               static_cast<long long>(stats.lanes.executed[0]),
               static_cast<long long>(stats.lanes.executed[1]),
               static_cast<long long>(stats.lanes.executed[2]));

  // Shard-scaling section: the same query cold through 1 shard and through
  // `shards`, single closed-loop client each, so the K-row throughput ratio
  // isolates what the router's fan-out buys.
  const unsigned cores = std::thread::hardware_concurrency();
  std::vector<ShardLoadRow> shard_rows;
  int64_t shard_failures = 0;
  if (shards > 0) {
    auto shard_data =
        std::make_shared<const TimeSeriesMatrix>(GenerateWhiteNoise(
            kShardNumSeries, kNumBasicWindows * kBasicWindow, &rng));
    shard_rows.push_back(RunShardLoad(shard_data, kShardNumSeries, 1,
                                      requests, expected_windows));
    if (shards > 1) {
      shard_rows.push_back(RunShardLoad(shard_data, kShardNumSeries, shards,
                                        requests, expected_windows));
    }
    for (ShardLoadRow& row : shard_rows) {
      shard_failures += row.failures + row.window_mismatches;
      const double rps =
          row.wall_s > 0.0
              ? static_cast<double>(row.total_ms.size()) / row.wall_s
              : 0.0;
      std::fprintf(
          stderr,
          "wire shard cold: K=%d, %d requests: %.2f req/s "
          "(%lld completed, %lld failures, %lld mismatches)%s\n",
          row.shards, row.requests, rps,
          static_cast<long long>(row.total_ms.size()),
          static_cast<long long>(row.failures),
          static_cast<long long>(row.window_mismatches),
          cores < static_cast<unsigned>(row.shards)
              ? " [scaling not gated: too few cores]"
              : "");
    }
  }

  if (write_json) {
    std::FILE* out = std::fopen("BENCH_wire.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_wire.json\n");
      return 1;
    }
    std::fprintf(
        out,
        "[\n  {\"bench\": \"wire_load\", \"connections\": %d, "
        "\"requests_per_connection\": %d, \"total_requests\": %lld,\n"
        "   \"n_series\": %lld, \"windows_per_request\": %lld, "
        "\"completed\": %lld, \"failures\": %lld, "
        "\"window_mismatches\": %lld,\n"
        "   \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"ttfw_p50_ms\": %.3f, "
        "\"ttfw_p99_ms\": %.3f, \"throughput_rps\": %.1f, "
        "\"wall_s\": %.3f,\n"
        "   \"lane_high\": %lld, \"lane_medium\": %lld, \"lane_low\": "
        "%lld, \"bytes_out\": %lld}",
        connections, requests, static_cast<long long>(total_requests),
        static_cast<long long>(kNumSeries),
        static_cast<long long>(expected_windows),
        static_cast<long long>(load.total_ms.size()),
        static_cast<long long>(load.failures),
        static_cast<long long>(load.window_mismatches), p50, p99, ttfw_p50,
        ttfw_p99, rps, load.wall_s,
        static_cast<long long>(stats.lanes.executed[0]),
        static_cast<long long>(stats.lanes.executed[1]),
        static_cast<long long>(stats.lanes.executed[2]),
        static_cast<long long>(stats.bytes_out));
    for (ShardLoadRow& row : shard_rows) {
      WriteShardRow(out, &row, cores,
                    cores < static_cast<unsigned>(row.shards));
    }
    std::fprintf(out, "\n]\n");
    std::fclose(out);
    std::fprintf(stderr, "wrote BENCH_wire.json\n");
  }
  return (load.failures == 0 && load.window_mismatches == 0 &&
          shard_failures == 0)
             ? 0
             : 1;
}

}  // namespace
}  // namespace dangoron

int main(int argc, char** argv) {
  int connections = 32;
  int requests = 8;
  int shards = 4;
  bool write_json = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--connections=", 0) == 0) {
      connections = std::atoi(arg.data() + 14);
    } else if (arg.rfind("--requests=", 0) == 0) {
      requests = std::atoi(arg.data() + 11);
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atoi(arg.data() + 9);
    } else if (arg == "--wire_comparison=off") {
      write_json = false;
    } else if (arg == "--wire_comparison=on") {
      write_json = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s' (known: --connections=, --requests=, "
                   "--shards=, --wire_comparison=on|off)\n",
                   argv[i]);
      return 2;
    }
  }
  if (connections < 1 || requests < 1 || shards < 0) {
    std::fprintf(stderr,
                 "connections and requests must be >= 1, shards >= 0\n");
    return 2;
  }
  return dangoron::RunBench(connections, requests, shards, write_json);
}
