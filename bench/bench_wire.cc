// Shard-parallel serving over the wire: the same query served cold (result
// cache off) by one in-process shard versus K shards behind a ShardRouter,
// each shard a single-threaded server + WireServer pair joined over
// socketpairs — the in-process stand-in for K shard processes. The
// K=4-vs-K=1 cold throughput ratio is the scaling number the router exists
// for; scripts/check_bench_regression.py gates it at >= 2.5x on machines
// with >= 4 cores (rows mark themselves "skipped" below that, where the
// ratio measures the scheduler, not the router). The rows go to
// BENCH_wire.json with their provenance.
//
// Flags: --requests=<per row, default 8>, --shards=<K> (default 4; 1 writes
// only the K=1 row), --wire_comparison=off to skip the JSON. A flag value
// that does not parse whole, or lies out of range, exits 2.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_provenance.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "net/wire_server.h"
#include "router/shard_router.h"
#include "serve/server.h"
#include "ts/generators.h"
#include "wire/client.h"

namespace dangoron {
namespace {

constexpr int64_t kBasicWindow = 24;
constexpr int64_t kNumBasicWindows = 90;

/// Pair ranges split at kSweepTilePairs (1024) granularity, so a 4-way
/// fan-out needs >= 4 tiles — 128 series = 8128 pairs = 8 tiles, two per
/// shard at K=4. (64 series is only 2 tiles: half the shards would idle.)
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
                   bool skipped, const std::string& provenance, bool first) {
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
      "%s\n  {\"bench\": \"wire_shard_cold\", \"shards\": %d, "
      "\"connections\": 1, \"requests_per_connection\": %d, "
      "\"total_requests\": %d,\n"
      "   \"completed\": %lld, \"failures\": %lld, "
      "\"window_mismatches\": %lld, \"cores\": %u, \"skipped\": %s,\n"
      "   \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"ttfw_p50_ms\": %.3f, "
      "\"ttfw_p99_ms\": %.3f, \"throughput_rps\": %.2f, "
      "\"wall_s\": %.3f,\n   \"per_shard_requests\": [",
      first ? "" : ",", row->shards, row->requests, row->requests,
      static_cast<long long>(row->total_ms.size()),
      static_cast<long long>(row->failures),
      static_cast<long long>(row->window_mismatches), cores,
      skipped ? "true" : "false", p50, p99, ttfw_p50, ttfw_p99, rps,
      row->wall_s);
  for (size_t s = 0; s < row->per_shard_requests.size(); ++s) {
    std::fprintf(out, "%s%lld", s == 0 ? "" : ", ",
                 static_cast<long long>(row->per_shard_requests[s]));
  }
  std::fprintf(out, "],\n   %s}", provenance.c_str());
}

int RunBench(int requests, int shards, bool write_json) {
  Rng rng(17);
  // Shared (not copied) by every shard server: shards replicate the
  // dataset, and the registry holds content-addressed shared_ptrs anyway.
  auto data = std::make_shared<const TimeSeriesMatrix>(GenerateWhiteNoise(
      kShardNumSeries, kNumBasicWindows * kBasicWindow, &rng));
  const int64_t expected_windows = BenchQuery().NumWindows();

  // The same query cold through 1 shard and through `shards`, single
  // closed-loop client each, so the K-row throughput ratio isolates what
  // the router's fan-out buys.
  const unsigned cores = std::thread::hardware_concurrency();
  std::vector<ShardLoadRow> rows;
  rows.push_back(
      RunShardLoad(data, kShardNumSeries, 1, requests, expected_windows));
  if (shards > 1) {
    rows.push_back(RunShardLoad(data, kShardNumSeries, shards, requests,
                                expected_windows));
  }
  int64_t failures = 0;
  for (ShardLoadRow& row : rows) {
    failures += row.failures + row.window_mismatches;
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

  if (write_json) {
    std::FILE* out = std::fopen("BENCH_wire.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_wire.json\n");
      return 1;
    }
    const std::string provenance = ProvenanceJson();
    std::fprintf(out, "[");
    for (size_t r = 0; r < rows.size(); ++r) {
      WriteShardRow(out, &rows[r], cores,
                    cores < static_cast<unsigned>(rows[r].shards),
                    provenance, r == 0);
    }
    std::fprintf(out, "\n]\n");
    std::fclose(out);
    std::fprintf(stderr, "wrote BENCH_wire.json\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dangoron

int main(int argc, char** argv) {
  int64_t requests = 8;
  int64_t shards = 4;
  bool write_json = true;
  // Strict values, as dangoron_serverd parses them: "8x" or "abc" exit 2
  // instead of reading as 8 or 0.
  auto parse = [](std::string_view arg, std::string_view flag, int64_t lo,
                  int64_t hi, int64_t* out) {
    const dangoron::Result<int64_t> value =
        dangoron::ParseInt64(arg.substr(flag.size()));
    if (value.ok() && *value >= lo && *value <= hi) {
      *out = *value;
      return true;
    }
    std::fprintf(stderr,
                 "bad flag '%.*s' (want %.*s<integer in [%lld, %lld]>)\n",
                 static_cast<int>(arg.size()), arg.data(),
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<long long>(lo), static_cast<long long>(hi));
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.starts_with("--requests=")) {
      if (!parse(arg, "--requests=", 1, 1000000, &requests)) {
        return 2;
      }
    } else if (arg.starts_with("--shards=")) {
      if (!parse(arg, "--shards=", 1, 64, &shards)) {
        return 2;
      }
    } else if (arg == "--wire_comparison=off") {
      write_json = false;
    } else if (arg == "--wire_comparison=on") {
      write_json = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s' (known: --requests=, --shards=, "
                   "--wire_comparison=on|off)\n",
                   argv[i]);
      return 2;
    }
  }
  return dangoron::RunBench(static_cast<int>(requests),
                            static_cast<int>(shards), write_json);
}
