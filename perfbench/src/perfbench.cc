// Closed-loop benchmark of the Dangoron serving stack.
//
// One process plays both sides. It builds the server stack (a
// DangoronServer behind a WireServer, or K=2 shards behind a ShardRouter and
// RouterServer), replays a fixed, seeded request sequence from WireClients
// over loopback TCP, checks every answer against a reference computed
// outside the timed phase, and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--corrupt-reference]
//             [--trace-out <file>] [--provenance <json object>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same timed
// phase and then replays the sequence layer by layer, printing the
// per-layer metrics. See README.md for the workloads and the metrics.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/dangoron_engine.h"
#include "engine/naive_engine.h"
#include "engine/window_sink.h"
#include "net/wire_server.h"
#include "router/router_server.h"
#include "router/shard_merge.h"
#include "router/shard_router.h"
#include "serve/server.h"
#include "sketch/basic_window_index.h"
#include "ts/generators.h"
#include "wire/client.h"
#include "wire/wire_format.h"

namespace dangoron {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) {
    Die(what + ": " + status.ToString());
  }
}

// ---------------------------------------------------------------- flags --

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_reference = false;
  std::string trace_out;
  std::string provenance = "{}";
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Die("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      flags.workload = value();
    } else if (arg == "--seed") {
      flags.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      flags.seconds = std::stod(value());
    } else if (arg == "--trace") {
      flags.trace = value() != "0";
    } else if (arg == "--size") {
      const std::string size = value();
      if (size != "full" && size != "tiny") {
        Die("--size must be full or tiny");
      }
      flags.tiny = size == "tiny";
    } else if (arg == "--corrupt-reference") {
      flags.corrupt_reference = true;
    } else if (arg == "--trace-out") {
      flags.trace_out = value();
    } else if (arg == "--provenance") {
      flags.provenance = value();
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (flags.seconds <= 0.0) {
    Die("--seconds must be positive");
  }
  return flags;
}

// ------------------------------------------------------------ workloads --

// The paper's E1 geometry: an hourly station year, 30-day windows sliding by
// one day over one-day basic windows. Dashboard and approx queries cover
// 90-day ranges of it.
constexpr int64_t kBasicWindow = 24;
constexpr int64_t kWindow = 24 * 30;
constexpr int64_t kStep = 24;
constexpr int64_t kRangeHours = 24 * 90;
constexpr double kValueTolerance = 1e-8;  // the serve/engine differentials'

// Thread budget: connections + compute threads <= nproc. One compute thread
// per server: on a shared 4-vCPU host, a fork-join over two threads waits
// for whichever vCPU the host steals, and the run-to-run spread of the
// wall-time metrics doubles (see README.md).
constexpr int32_t kPoolThreads = 1;

// Setups per untraced run; setup_s is their median.
constexpr size_t kSetups = 3;

// Requests a timed phase completes at the least, so that query_p90_ms has
// ten samples beyond it even when a run's requests are slow.
constexpr int64_t kMinRequests = 100;

struct Sizes {
  int64_t hours;
  int64_t cold_series;
  int64_t approx_series;
  int64_t dashboard_series;
};

// Tiny sizes keep every code path (two shard ranges need > 1024 pairs) but
// run in about a second; the self-test uses them.
constexpr Sizes kFullSizes{24 * 365, 256, 512, 128};
constexpr Sizes kTinySizes{24 * 120, 32, 48, 48};

struct DistinctQuery {
  int dataset = 0;
  SlidingQuery query;
  ServeTier tier = ServeTier::kExact;
};

struct Workload {
  std::string name;
  bool routed = false;
  int connections = 1;
  int32_t worker_threads = 1;
  int shards = 1;
  int64_t sketch_cache_bytes = 0;
  int64_t result_cache_bytes = int64_t{64} << 20;
  bool naive_reference = false;
  std::vector<std::shared_ptr<const TimeSeriesMatrix>> datasets;
  std::vector<DistinctQuery> queries;
  std::vector<std::vector<int>> sequences;  // per connection, into queries
  std::vector<int> warmup;                  // issued during setup
  int trace_requests = 0;                   // prefix of sequences[0]
};

std::string DatasetName(int dataset) { return "d" + std::to_string(dataset); }

std::shared_ptr<const TimeSeriesMatrix> Climate(int64_t stations,
                                                int64_t hours, uint64_t seed) {
  ClimateSpec spec;
  spec.num_stations = stations;
  spec.num_hours = hours;
  spec.seed = seed;
  Result<ClimateDataset> generated = GenerateClimate(spec);
  Check(generated.status(), "GenerateClimate");
  return std::make_shared<const TimeSeriesMatrix>(std::move(generated->data));
}

// A continental network: `regions` independent station regions stacked
// into one dataset. A single region's network density hinges on the
// generator's few weather anchors, so it swings from seed to seed; a
// continent averages over several regions.
std::shared_ptr<const TimeSeriesMatrix> Continent(int regions,
                                                  int64_t stations,
                                                  int64_t hours, Rng* rng) {
  auto continent = std::make_shared<TimeSeriesMatrix>(
      static_cast<int64_t>(regions) * stations, hours);
  for (int r = 0; r < regions; ++r) {
    const auto region = Climate(stations, hours, rng->NextU64());
    for (int64_t s = 0; s < stations; ++s) {
      const std::span<const double> row = region->Row(s);
      std::copy(row.begin(), row.end(),
                continent->Row(r * stations + s).begin());
    }
  }
  return continent;
}

SlidingQuery Range(int64_t start, int64_t end, double threshold) {
  SlidingQuery query;
  query.start = start;
  query.end = end;
  query.window = kWindow;
  query.step = kStep;
  query.threshold = threshold;
  return query;
}

int64_t PreparedBytes(const TimeSeriesMatrix& data) {
  BasicWindowIndexOptions options;
  options.basic_window = kBasicWindow;
  return BasicWindowIndex::EstimateMemoryBytes(data.num_series(),
                                               data.length(), options) +
         static_cast<int64_t>(data.values().size() * sizeof(double));
}

// 90-day range starts spread evenly over the series, each moved by a
// seeded jitter of up to two days: every run samples every season alike,
// whatever the seed.
std::vector<int64_t> RangeStarts(Rng* rng, int64_t hours, int count) {
  std::vector<int64_t> starts;
  const int64_t last = (hours - kRangeHours) / kBasicWindow;
  for (int i = 0; i < count; ++i) {
    const int64_t even = count > 1 ? last * i / (count - 1) : 0;
    starts.push_back(std::clamp<int64_t>(even + rng->NextInt(-2, 2), 0, last) *
                     kBasicWindow);
  }
  return starts;
}

// `copies` replays of every query index in [0, distinct), in seeded order:
// each run issues the same request mix.
std::vector<int> Shuffled(Rng* rng, int distinct, int copies) {
  std::vector<int> order;
  for (int c = 0; c < copies; ++c) {
    for (int q = 0; q < distinct; ++q) {
      order.push_back(q);
    }
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<size_t>(
                  rng->NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
  return order;
}

// The dashboard query set over eight station networks: three popular
// 90-day ranges each, at thresholds on the threshold-family grid (0.90,
// 0.95) and between grid points (0.925, 0.975), so half the requests are
// answered by filtering a family's cached windows. Averaging over several
// networks keeps the answer sizes, and so the costs, alike from seed to
// seed.
void AddDashboardQueries(Rng* rng, const Sizes& sizes, Workload* w) {
  constexpr int kNetworks = 8;
  for (int d = 0; d < kNetworks; ++d) {
    w->datasets.push_back(
        Climate(sizes.dashboard_series, sizes.hours, rng->NextU64()));
    for (const int64_t start : RangeStarts(rng, sizes.hours, 3)) {
      for (const double threshold : {0.9, 0.925, 0.95, 0.975}) {
        w->queries.push_back({d, Range(start, start + kRangeHours, threshold),
                              ServeTier::kExact});
      }
    }
  }
  for (int q = 0; q < static_cast<int>(w->queries.size()); ++q) {
    w->warmup.push_back(q);
  }
  w->sketch_cache_bytes = PreparedBytes(*w->datasets[0]) * (kNetworks + 1);
  w->naive_reference = true;
}

Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const Sizes& sizes) {
  Workload w;
  w.name = name;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  if (name == "climate_cold") {
    // Six two-region datasets in rotation, a sketch cache that holds one of
    // them and a result cache smaller than one answer (sized in Run from
    // the reference): every request pays the Gram build and the exact
    // sweep. Twelve regions keep the latency distribution, and so its p90,
    // from hinging on one region's answer size.
    constexpr int kDatasets = 6;
    for (int d = 0; d < kDatasets; ++d) {
      w.datasets.push_back(
          Continent(2, sizes.cold_series / 2, sizes.hours, &rng));
      w.queries.push_back({d, Range(0, sizes.hours, 0.9), ServeTier::kExact});
      w.sequences.resize(1);
      w.sequences[0].push_back(d);
    }
    w.warmup = {kDatasets - 1};
    w.sketch_cache_bytes = PreparedBytes(*w.datasets[0]) * 3 / 2;
    w.trace_requests = 3;
  } else if (name == "climate_approx") {
    w.datasets.push_back(
        Continent(4, sizes.approx_series / 4, sizes.hours, &rng));
    constexpr int kRanges = 12;
    for (const int64_t start : RangeStarts(&rng, sizes.hours, kRanges)) {
      w.queries.push_back(
          {0, Range(start, start + kRangeHours, 0.9), ServeTier::kApprox});
    }
    w.sequences = {Shuffled(&rng, kRanges, 2)};
    w.warmup = {0, 1};  // the first builds the resident sketch
    w.sketch_cache_bytes = PreparedBytes(*w.datasets[0]) * 2;
    w.trace_requests = 8;
  } else if (name == "dashboard_warm") {
    AddDashboardQueries(&rng, sizes, &w);
    w.connections = 2;
    w.worker_threads = 2;
    const int distinct = static_cast<int>(w.queries.size());
    w.sequences = {Shuffled(&rng, distinct, 1), Shuffled(&rng, distinct, 1)};
    w.trace_requests = 48;
  } else if (name == "routed_exact") {
    AddDashboardQueries(&rng, sizes, &w);
    w.routed = true;
    w.shards = 2;
    w.sequences = {Shuffled(&rng, static_cast<int>(w.queries.size()), 1)};
    w.trace_requests = 24;
  } else {
    Die("unknown workload '" + name +
        "' (climate_cold, climate_approx, dashboard_warm, routed_exact)");
  }
  return w;
}

// ------------------------------------------------------------ reference --

using Windows = std::vector<std::vector<Edge>>;

DangoronOptions EngineOptions(bool jumping) {
  DangoronOptions options;  // the serving layer's exact evaluation mode
  options.basic_window = kBasicWindow;
  options.enable_jumping = jumping;
  options.horizontal_pruning = false;
  return options;
}

Windows ToWindows(const CorrelationMatrixSeries& series) {
  Windows windows(static_cast<size_t>(series.num_windows()));
  for (int64_t k = 0; k < series.num_windows(); ++k) {
    const auto edges = series.WindowEdges(k);
    windows[static_cast<size_t>(k)].assign(edges.begin(), edges.end());
    std::sort(windows[static_cast<size_t>(k)].begin(),
              windows[static_cast<size_t>(k)].end(), EdgeOrder);
  }
  return windows;
}

// NaiveEngine where it is affordable, else the exact engine path (which the
// tier-1 differentials pin to NaiveEngine). Queries that differ only in
// threshold share one evaluation at the lowest of their thresholds,
// filtered up: correlation values do not depend on the threshold.
std::vector<Windows> ComputeReference(const Workload& w) {
  std::vector<Windows> reference(w.queries.size());
  ThreadPool pool(2);
  for (int d = 0; d < static_cast<int>(w.datasets.size()); ++d) {
    const TimeSeriesMatrix& data = *w.datasets[static_cast<size_t>(d)];
    std::optional<BasicWindowIndex> index;
    NaiveEngine naive;
    if (w.naive_reference) {
      Check(naive.Prepare(data), "NaiveEngine::Prepare");
    } else {
      Result<BasicWindowIndex> built =
          DangoronEngine::BuildIndex(data, EngineOptions(false), &pool);
      Check(built.status(), "reference BuildIndex");
      index.emplace(std::move(*built));
    }
    std::map<std::pair<int64_t, int64_t>, Windows> evaluated;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      if (w.queries[q].dataset != d) {
        continue;
      }
      const SlidingQuery& query = w.queries[q].query;
      const std::pair<int64_t, int64_t> range{query.start, query.end};
      if (!evaluated.contains(range)) {
        SlidingQuery lowest = query;
        for (const DistinctQuery& other : w.queries) {
          if (other.dataset == d && other.query.start == query.start &&
              other.query.end == query.end) {
            lowest.threshold = std::min(lowest.threshold, other.query.threshold);
          }
        }
        Result<CorrelationMatrixSeries> series =
            w.naive_reference
                ? naive.Query(lowest)
                : DangoronEngine::QueryPrepared(EngineOptions(false), *index,
                                                lowest, &pool, nullptr);
        Check(series.status(), "reference query");
        evaluated.emplace(range, ToWindows(*series));
      }
      for (const std::vector<Edge>& window : evaluated.at(range)) {
        std::vector<Edge>& out = reference[q].emplace_back();
        for (const Edge& edge : window) {
          if (query.IsEdge(edge.value)) {
            out.push_back(edge);
          }
        }
      }
    }
  }
  return reference;
}

// Perturbs every value of the first non-empty window of the sequence's
// first query: the self-test's proof that a wrong answer is caught.
void CorruptReference(const Workload& w, std::vector<Windows>* reference) {
  for (std::vector<Edge>& window :
       (*reference)[static_cast<size_t>(w.sequences[0][0])]) {
    if (!window.empty()) {
      for (Edge& edge : window) {
        edge.value += 1e-3;
      }
      return;
    }
  }
}

struct Verdict {
  bool match = false;  // exact: same answer; approx: no wrong edge
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  int64_t false_negatives = 0;
};

// Exact answers must reproduce the reference edge set with values within
// the tolerance. Approx answers may miss edges (Eq. 2 jumps skip cells),
// but every edge they report must be a reference edge with its value.
Verdict Compare(const Windows& truth, const Windows& got, bool exact) {
  Verdict verdict;
  if (truth.size() != got.size()) {
    return verdict;
  }
  bool values_ok = true;
  for (size_t k = 0; k < truth.size(); ++k) {
    const std::vector<Edge>& a = truth[k];
    const std::vector<Edge>& b = got[k];
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && EdgeOrder(a[i], b[j]))) {
        ++verdict.false_negatives;
        ++i;
      } else if (i == a.size() || EdgeOrder(b[j], a[i])) {
        ++verdict.false_positives;
        ++j;
      } else {
        ++verdict.true_positives;
        values_ok &= std::fabs(a[i].value - b[j].value) <= kValueTolerance;
        ++i;
        ++j;
      }
    }
  }
  verdict.match = values_ok && verdict.false_positives == 0 &&
                  (!exact || verdict.false_negatives == 0);
  return verdict;
}

// ---------------------------------------------------------------- stack --

// Declaration order is teardown order reversed: the front ends stop before
// the servers they drive are destroyed.
struct Stack {
  std::vector<std::unique_ptr<DangoronServer>> servers;
  std::vector<std::unique_ptr<WireServer>> wires;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<RouterServer> router_server;

  int front_port() const {
    return router_server != nullptr ? router_server->bound_port()
                                    : wires[0]->port();
  }
};

// A ShardRouter over the WireServers on `ports` plus a RouterServer in
// front of it, with every dataset registered under `registry`'s
// fingerprint.
void AttachRouter(const Workload& w, const DangoronServer& registry,
                  const std::vector<int>& ports, Stack* stack) {
  ShardRouterOptions options;
  for (const int port : ports) {
    options.shards.push_back(ShardEndpoint{"127.0.0.1", port});
  }
  stack->router = std::make_unique<ShardRouter>(options);
  stack->router_server = std::make_unique<RouterServer>(stack->router.get());
  for (int d = 0; d < static_cast<int>(w.datasets.size()); ++d) {
    Result<uint64_t> fingerprint = registry.DatasetFingerprint(DatasetName(d));
    Check(fingerprint.status(), "DatasetFingerprint");
    stack->router_server->RegisterDataset(
        DatasetName(d), w.datasets[static_cast<size_t>(d)]->num_series(),
        *fingerprint);
  }
  Check(stack->router_server->Start(), "RouterServer::Start");
}

std::unique_ptr<Stack> BuildStack(const Workload& w) {
  auto stack = std::make_unique<Stack>();
  for (int s = 0; s < w.shards; ++s) {
    DangoronServerOptions options;
    options.num_threads = kPoolThreads;
    options.basic_window = kBasicWindow;
    options.sketch_cache_bytes = w.sketch_cache_bytes;
    options.result_cache_bytes = w.result_cache_bytes;
    auto server = std::make_unique<DangoronServer>(options);
    for (int d = 0; d < static_cast<int>(w.datasets.size()); ++d) {
      Check(server->AddDataset(DatasetName(d),
                               w.datasets[static_cast<size_t>(d)]),
            "AddDataset");
    }
    WireServerOptions wire_options;
    wire_options.port = 0;  // ephemeral loopback port
    wire_options.worker_threads = w.worker_threads;
    auto wire = std::make_unique<WireServer>(server.get(), wire_options);
    Check(wire->Start(), "WireServer::Start");
    stack->servers.push_back(std::move(server));
    stack->wires.push_back(std::move(wire));
  }
  if (w.routed) {
    std::vector<int> ports;
    for (const auto& wire : stack->wires) {
      ports.push_back(wire->port());
    }
    AttachRouter(w, *stack->servers[0], ports, stack.get());
  }
  return stack;
}

std::unique_ptr<WireClient> Connect(int port) {
  WireClientOptions options;
  options.connect_timeout_ms = 5000;
  options.read_timeout_ms = 60000;
  Result<std::unique_ptr<WireClient>> client =
      WireClient::ConnectTcp("127.0.0.1", port, options);
  Check(client.status(), "WireClient::ConnectTcp");
  return std::move(*client);
}

WireRequest MakeRequest(const Workload& w, int q) {
  const DistinctQuery& query = w.queries[static_cast<size_t>(q)];
  WireRequest request;
  request.dataset = DatasetName(query.dataset);
  request.query = query.query;
  request.options.tier = query.tier;
  return request;
}

// ------------------------------------------------------------- requests --

struct Answer {
  bool ok = false;
  // The server refused the submission before dispatching it (a
  // FailedPrecondition status with no window) and closed the connection.
  bool refused = false;
  std::string error;
  double query_ms = 0.0;
  double ttfw_ms = 0.0;
  double status_lag_ms = 0.0;  // last window -> terminal status
  int64_t windows = 0;
  uint64_t digest = 0;
  WireSummary summary;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  return h * 0xBF58476D1CE4E5B9ULL;
}

// Folds one delivered window into the answer: digest, count, capture.
void Absorb(const StreamedWindow& window, Answer* answer, Windows* capture) {
  uint64_t h = Mix(answer->digest, static_cast<uint64_t>(window.window_index));
  for (const Edge& edge : *window.edges) {
    h = Mix(h, (static_cast<uint64_t>(static_cast<uint32_t>(edge.i)) << 32) |
                   static_cast<uint32_t>(edge.j));
    h = Mix(h, std::bit_cast<uint64_t>(edge.value));
  }
  answer->digest = h;
  ++answer->windows;
  if (capture != nullptr) {
    std::vector<Edge> edges = *window.edges;
    std::sort(edges.begin(), edges.end(), EdgeOrder);
    capture->push_back(std::move(edges));
  }
}

// Drains any window source: `next` returns the next window, nullopt at the
// end of the stream, or sets `*failed` on a transport error.
template <typename NextFn>
Answer Drain(Clock::time_point start, NextFn next, Windows* capture) {
  Answer answer;
  Clock::time_point first = start;
  Clock::time_point last = start;
  while (true) {
    bool failed = false;
    std::optional<StreamedWindow> window = next(&failed, &answer.error);
    if (failed) {
      return answer;
    }
    if (!window.has_value()) {
      break;
    }
    last = Clock::now();
    if (answer.windows == 0) {
      first = last;
    }
    Absorb(*window, &answer, capture);
  }
  const Clock::time_point end = Clock::now();
  answer.query_ms = Ms(start, end);
  answer.ttfw_ms = Ms(start, answer.windows > 0 ? first : end);
  answer.status_lag_ms = answer.windows > 0 ? Ms(last, end) : 0.0;
  answer.ok = true;
  return answer;
}

// Latencies run from `start`: the first submission of the request.
Answer IssueWire(WireClient* client, const WireRequest& request,
                 Windows* capture, Clock::time_point start = Clock::now()) {
  if (Status submitted = client->Submit(request); !submitted.ok()) {
    Answer answer;
    answer.error = submitted.ToString();
    return answer;
  }
  Answer answer = Drain(
      start,
      [client](bool* failed, std::string* error)
          -> std::optional<StreamedWindow> {
        Result<std::optional<StreamedWindow>> next = client->Next();
        if (!next.ok()) {
          *failed = true;
          *error = next.status().ToString();
          return std::nullopt;
        }
        return std::move(*next);
      },
      capture);
  if (answer.ok) {
    answer.summary = client->summary();
    if (!client->result_status().ok()) {
      answer.ok = false;
      answer.refused = answer.windows == 0 &&
                       client->result_status().code() ==
                           StatusCode::kFailedPrecondition;
      answer.error = client->result_status().ToString();
    }
  }
  return answer;
}

// --------------------------------------------------------------- phases --

// Issues a request outside the timed phase (warm-up, traced replays). A
// failed request leaves the connection closed by the server or in doubt, so
// the client reconnects and retries, as in the timed phase.
Answer IssueRetrying(int port, const WireRequest& request,
                     std::unique_ptr<WireClient>* client) {
  for (int attempt = 0;; ++attempt) {
    Answer answer = IssueWire(client->get(), request, nullptr);
    if (answer.ok) {
      return answer;
    }
    if (attempt == 2) {
      Die("request failed three times: " + answer.error);
    }
    *client = Connect(port);
  }
}

struct SetupResult {
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<WireClient>> clients;
  double seconds = 0.0;
};

// Server construction through warm-up: connections are open and every
// lazy start (threads, sockets, the resident sketches and cached windows
// the workload presumes) is done before the timed phase.
SetupResult RunSetup(const Workload& w) {
  SetupResult setup;
  const Clock::time_point start = Clock::now();
  setup.stack = BuildStack(w);
  for (int c = 0; c < w.connections; ++c) {
    setup.clients.push_back(Connect(setup.stack->front_port()));
  }
  if (w.routed) {
    // Fill each shard's window cache with its slice of every query
    // directly, then take one request through the router: the router adds
    // a fixed poll quantum per request that would otherwise dominate setup.
    const int64_t n = w.datasets[0]->num_series();
    const auto ranges = SplitPairRanges(n * (n - 1) / 2, w.shards);
    for (size_t s = 0; s < ranges.size(); ++s) {
      const int port = setup.stack->wires[s]->port();
      std::unique_ptr<WireClient> shard = Connect(port);
      for (const int q : w.warmup) {
        WireRequest request = MakeRequest(w, q);
        request.query.pair_begin = ranges[s].first;
        request.query.pair_end = ranges[s].second;
        IssueRetrying(port, request, &shard);
      }
    }
    IssueRetrying(setup.stack->front_port(), MakeRequest(w, w.warmup[0]),
                  &setup.clients[0]);
  } else {
    for (size_t i = 0; i < w.warmup.size(); ++i) {
      IssueRetrying(setup.stack->front_port(), MakeRequest(w, w.warmup[i]),
                    &setup.clients[i % setup.clients.size()]);
    }
  }
  setup.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return setup;
}

struct Sample {
  int connection = 0;
  int pass = 0;
  int query = 0;
  Answer answer;
  int refusals = 0;  // refused submissions before `answer`
  bool completed = false;
};

struct Capture {
  bool taken = false;  // holds the first successful answer
  uint64_t digest = 0;
  Windows windows;
};

// Counters summed over every server of the stack.
struct Counters {
  int64_t prepares_built = 0;
  int64_t windows_computed = 0;
  int64_t windows_from_cache = 0;
  int64_t result_hits = 0;
  int64_t result_misses = 0;
  int64_t sketch_hits = 0;
  int64_t sketch_misses = 0;
  int64_t sketch_evictions = 0;
  int64_t wire_requests = 0;
  int64_t bytes_out = 0;
  int64_t lane_high = 0;
  int64_t lane_total = 0;
  int64_t router_requests = 0;
  std::vector<int64_t> shard_requests;
};

Counters ReadCounters(const Stack& stack) {
  Counters c;
  for (const auto& server : stack.servers) {
    const DangoronServerStats s = server->stats();
    c.prepares_built += s.prepares_built;
    c.windows_computed += s.windows_computed;
    c.windows_from_cache += s.windows_from_cache;
    c.result_hits += s.result_cache.hits;
    c.result_misses += s.result_cache.misses;
    c.sketch_hits += s.sketch_cache.hits;
    c.sketch_misses += s.sketch_cache.misses;
    c.sketch_evictions += s.sketch_cache.evictions;
  }
  for (const auto& wire : stack.wires) {
    const WireServerStats s = wire->stats();
    c.wire_requests += s.requests;
    c.bytes_out += s.bytes_out;
    c.lane_high += s.lanes.executed[static_cast<int>(TaskLane::kHigh)];
    for (int lane = 0; lane < kNumTaskLanes; ++lane) {
      c.lane_total += s.lanes.executed[lane];
    }
    c.shard_requests.push_back(s.requests);
  }
  if (stack.router_server != nullptr) {
    c.router_requests = stack.router_server->stats().requests;
  }
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d = after;
  d.prepares_built -= before.prepares_built;
  d.windows_computed -= before.windows_computed;
  d.windows_from_cache -= before.windows_from_cache;
  d.result_hits -= before.result_hits;
  d.result_misses -= before.result_misses;
  d.sketch_hits -= before.sketch_hits;
  d.sketch_misses -= before.sketch_misses;
  d.sketch_evictions -= before.sketch_evictions;
  d.wire_requests -= before.wire_requests;
  d.bytes_out -= before.bytes_out;
  d.lane_high -= before.lane_high;
  d.lane_total -= before.lane_total;
  d.router_requests -= before.router_requests;
  for (size_t s = 0; s < d.shard_requests.size(); ++s) {
    d.shard_requests[s] -= before.shard_requests[s];
  }
  return d;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

struct TimedPhase {
  std::vector<Sample> samples;
  // captures[connection][query]: the first answer to each distinct query,
  // kept whole for the reference check; later answers compare by digest.
  std::vector<std::vector<Capture>> captures;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  Counters delta;
};

// Each connection replays its fixed sequence whole, pass after pass, until
// `seconds` have passed and kMinRequests are done: every run measures the
// same request mix.
TimedPhase RunTimed(const Workload& w, SetupResult* setup, double seconds) {
  TimedPhase phase;
  phase.captures.assign(static_cast<size_t>(w.connections),
                        std::vector<Capture>(w.queries.size()));
  std::vector<std::vector<Sample>> per_connection(
      static_cast<size_t>(w.connections));
  const Counters before = ReadCounters(*setup->stack);
  const double cpu_before = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto loop = [&](int c) {
    std::unique_ptr<WireClient>& client =
        setup->clients[static_cast<size_t>(c)];
    const std::vector<int>& sequence = w.sequences[static_cast<size_t>(c)];
    std::vector<Capture>& captures = phase.captures[static_cast<size_t>(c)];
    std::vector<Sample>& samples = per_connection[static_cast<size_t>(c)];
    for (int pass = 0;; ++pass) {
      for (const int q : sequence) {
        Capture& capture = captures[static_cast<size_t>(q)];
        const bool first = !capture.taken;
        Sample sample{c, pass, q, {}, 0, false};
        const WireRequest request = MakeRequest(w, q);
        const Clock::time_point start = Clock::now();
        sample.answer = IssueWire(client.get(), request,
                                  first ? &capture.windows : nullptr, start);
        // The wire server can refuse a request that follows the previous
        // terminal Status too closely (it clears its in-flight flag only
        // after queueing that Status) and then closes the connection. The
        // client reconnects and resubmits, as a client library would; the
        // request's latency keeps the refused round trip and the
        // reconnect, and the refusals are reported beside the result.
        while (sample.answer.refused && sample.refusals < 3) {
          ++sample.refusals;
          client = Connect(setup->stack->front_port());
          sample.answer = IssueWire(client.get(), request,
                                    first ? &capture.windows : nullptr, start);
        }
        if (first) {
          capture.taken = sample.answer.ok;
          capture.digest = sample.answer.digest;
          if (!capture.taken) {
            capture.windows.clear();
          }
        }
        if (!sample.answer.ok) {
          // A failed request may leave the connection closed by the server
          // (a protocol error is terminal for it): reconnect and carry on.
          client = Connect(setup->stack->front_port());
        }
        samples.push_back(std::move(sample));
      }
      if (Clock::now() >= deadline &&
          static_cast<int64_t>(samples.size()) * w.connections >=
              kMinRequests) {
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < w.connections; ++c) {
    threads.emplace_back(loop, c);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  phase.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  phase.cpu_seconds = CpuSeconds() - cpu_before;
  phase.delta = Delta(ReadCounters(*setup->stack), before);
  for (auto& samples : per_connection) {
    for (Sample& sample : samples) {
      phase.samples.push_back(std::move(sample));
    }
  }
  return phase;
}

struct Checked {
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t mismatches = 0;
  int64_t refused_submissions = 0;  // resubmitted (see RunTimed)
  Verdict first_pass;  // summed over the fixed sequence's first replay
  std::vector<std::string> problems;  // wrong answers: the run fails
  std::vector<std::string> failures;  // requests that did not complete
};

// Every answer is checked: the first answer to each distinct query against
// the reference, every later one against that first answer's digest. A
// failed request counts against completed_ratio; a wrong answer fails the
// run.
Checked CheckAnswers(const Workload& w, const std::vector<Windows>& reference,
                     TimedPhase* phase) {
  Checked checked;
  std::vector<std::vector<Verdict>> verdicts(phase->captures.size());
  for (size_t c = 0; c < phase->captures.size(); ++c) {
    verdicts[c].resize(w.queries.size());
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const Capture& capture = phase->captures[c][q];
      if (capture.taken) {
        verdicts[c][q] =
            Compare(reference[q], capture.windows,
                    w.queries[q].tier == ServeTier::kExact);
      }
    }
  }
  for (Sample& sample : phase->samples) {
    ++checked.attempted;
    checked.refused_submissions += sample.refusals;
    const auto c = static_cast<size_t>(sample.connection);
    const auto q = static_cast<size_t>(sample.query);
    const Capture& capture = phase->captures[c][q];
    const Verdict& verdict = verdicts[c][q];
    const Answer& answer = sample.answer;
    const int64_t expected = w.queries[q].query.NumWindows();
    if (!answer.ok) {
      checked.failures.push_back(answer.error);
    } else if (answer.windows != expected ||
               answer.summary.windows_delivered != expected ||
               answer.digest != capture.digest || !verdict.match) {
      ++checked.mismatches;
    } else {
      sample.completed = true;
      ++checked.completed;
    }
    if (sample.connection == 0 && sample.pass == 0) {
      checked.first_pass.true_positives += verdict.true_positives;
      checked.first_pass.false_positives += verdict.false_positives;
      checked.first_pass.false_negatives += verdict.false_negatives;
    }
  }
  if (checked.mismatches > 0) {
    checked.problems.push_back(std::to_string(checked.mismatches) +
                               " answers differ from the reference");
  }
  if (checked.completed == 0) {
    checked.problems.push_back("no request completed");
  }
  return checked;
}

// A workload measures what it claims only while its premise holds; a
// broken premise fails the run.
std::vector<std::string> CheckPremise(const Workload& w,
                                      const TimedPhase& phase) {
  std::vector<std::string> broken;
  const Counters& d = phase.delta;
  if (w.name == "climate_cold") {
    if (d.prepares_built != d.wire_requests) {
      broken.push_back("climate_cold: prepares_built " +
                       std::to_string(d.prepares_built) + " != requests " +
                       std::to_string(d.wire_requests));
    }
    if (d.windows_from_cache != 0) {
      broken.push_back("climate_cold: windows_from_cache " +
                       std::to_string(d.windows_from_cache) + " != 0");
    }
  } else if (w.name == "dashboard_warm") {
    if (d.windows_computed != 0) {
      broken.push_back("dashboard_warm: windows_computed " +
                       std::to_string(d.windows_computed) + " != 0");
    }
  } else if (w.name == "climate_approx") {
    for (const Sample& sample : phase.samples) {
      if (sample.answer.ok &&
          sample.answer.summary.tier_used != ServeTier::kApprox) {
        broken.push_back("climate_approx: a request was served " +
                         std::string(ServeTierName(
                             sample.answer.summary.tier_used)));
        break;
      }
    }
  } else if (w.name == "routed_exact") {
    for (size_t s = 0; s < d.shard_requests.size(); ++s) {
      if (d.shard_requests[s] != d.router_requests) {
        broken.push_back("routed_exact: shard " + std::to_string(s) +
                         " served " + std::to_string(d.shard_requests[s]) +
                         " of " + std::to_string(d.router_requests) +
                         " requests");
      }
    }
  }
  return broken;
}

// ------------------------------------------------------------ statistics --

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string Num(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------- trace --

// One timed call into a layer. Spans of one request share `request`;
// `parent` is the span of the enclosing layer's call on the same request
// (the layer that makes this call when the request runs end to end).
struct Span {
  int64_t id = 0;
  std::string name;
  int64_t request = -1;
  int64_t parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  void Record(const std::string& name, int64_t request, Clock::time_point start,
              Clock::time_point end) {
    spans_.push_back({static_cast<int64_t>(spans_.size()), name, request, -1,
                      Ms(epoch_, start), Ms(epoch_, end)});
  }

  // Links every span to the span of its enclosing layer on the same request.
  void LinkParents() {
    static const std::map<std::string, std::string> kEnclosing = {
        {"sketch.build", "serve.query"},   {"engine.exact", "serve.query"},
        {"engine.approx", "serve.query"},  {"serve.query", "net.query"},
        {"wire.encode", "net.query"},      {"wire.decode", "net.query"},
        {"net.query", "router.merge"},     {"router.merge", "router.query"},
    };
    std::map<std::pair<std::string, int64_t>, int64_t> by_name;
    for (const Span& span : spans_) {
      by_name.emplace(std::make_pair(span.name, span.request), span.id);
    }
    for (Span& span : spans_) {
      const auto enclosing = kEnclosing.find(span.name);
      if (enclosing == kEnclosing.end()) {
        continue;
      }
      const auto parent =
          by_name.find(std::make_pair(enclosing->second, span.request));
      if (parent != by_name.end()) {
        span.parent = parent->second;
      }
    }
  }

  void Write(const std::string& path) const {
    if (path.empty()) {
      return;
    }
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"name\":" << Quote(s.name)
          << ",\"request\":" << s.request << ",\"parent\":" << s.parent
          << ",\"start_ms\":" << Num(s.start_ms)
          << ",\"end_ms\":" << Num(s.end_ms) << "}\n";
    }
    if (!out) {
      Die("cannot write trace to " + path);
    }
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Times the first window of an engine query and drops the edges.
class TimingSink final : public WindowSink {
 public:
  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override {
    (void)window_index;
    (void)edges;
    if (windows_++ == 0) {
      first_ = Clock::now();
    }
    return true;
  }
  Clock::time_point first() const { return first_; }

 private:
  int64_t windows_ = 0;
  Clock::time_point first_;
};

struct LayerSamples {
  std::vector<double> build_ms, build_ns_per_pair_bw;
  double index_mb = 0.0;
  std::vector<double> exact_ms, exact_first_ms, exact_ns_per_cell;
  std::vector<double> approx_ms, approx_ns_per_cell;
  int64_t cells_total = 0;
  int64_t cells_jumped = 0;
  std::vector<double> serve_ms, serve_ttfw_ms, serve_self_ms;
  std::vector<double> encode_ms, decode_ms;
  std::vector<double> net_ms, net_self_ms, net_lag_ms;
  std::vector<double> merge_ms, merge_ttfw_ms;
  std::vector<double> router_ms, router_self_ms, router_lag_ms;
  std::vector<double> front_untraced_ms;  // the workload's front end
};

// Replays the first `trace_requests` of connection 0's sequence through
// each layer in turn, innermost first, timing the calls on the same
// requests: engine (BuildIndex, exact and approx QueryPreparedToSink), the
// in-process DangoronServer::SubmitStreaming, the wire codec, a WireClient
// over the WireServer, ShardRouter::Submit + ShardMerge::Next, and a
// WireClient over the RouterServer. Single-server workloads route through a
// K=1 router over their own WireServer; routed_exact's inner layers are
// measured on shard 0 with the pair range the router sends it.
LayerSamples ReplayLayers(const Workload& w, SetupResult* setup,
                          Tracer* tracer) {
  LayerSamples out;
  Stack& stack = *setup->stack;
  std::vector<int> sequence;
  for (int i = 0; i < w.trace_requests; ++i) {
    sequence.push_back(
        w.sequences[0][static_cast<size_t>(i) % w.sequences[0].size()]);
  }
  const int64_t num_series = w.datasets[0]->num_series();
  const int64_t num_pairs = num_series * (num_series - 1) / 2;
  // The request each inner layer receives (shard 0's slice when routed).
  auto inner_query = [&](int q) {
    SlidingQuery query = w.queries[static_cast<size_t>(q)].query;
    if (w.routed) {
      const auto ranges = SplitPairRanges(num_pairs, w.shards);
      query.pair_begin = ranges[0].first;
      query.pair_end = ranges[0].second;
    }
    return query;
  };

  // sketch and engine, one index at a time as the server holds them. An
  // untimed first build warms the sketch storage recycler, which the
  // server's steady-state builds reuse; fresh pages would double the time.
  ThreadPool pool(kPoolThreads);
  std::vector<int> datasets;  // in order of first use
  for (const int q : sequence) {
    const int d = w.queries[static_cast<size_t>(q)].dataset;
    if (std::find(datasets.begin(), datasets.end(), d) == datasets.end()) {
      datasets.push_back(d);
    }
  }
  Check(DangoronEngine::BuildIndex(*w.datasets[static_cast<size_t>(datasets[0])],
                                   EngineOptions(false), &pool)
            .status(),
        "BuildIndex");
  std::map<int, double> build_ms_of;
  std::vector<double> exact_of(sequence.size());
  std::vector<double> approx_of(sequence.size());
  for (const int d : datasets) {
    const Clock::time_point build_start = Clock::now();
    Result<BasicWindowIndex> index = DangoronEngine::BuildIndex(
        *w.datasets[static_cast<size_t>(d)], EngineOptions(false), &pool);
    const Clock::time_point build_end = Clock::now();
    Check(index.status(), "BuildIndex");
    tracer->Record("sketch.build", -1, build_start, build_end);
    build_ms_of[d] = Ms(build_start, build_end);
    out.build_ms.push_back(build_ms_of[d]);
    out.build_ns_per_pair_bw.push_back(
        build_ms_of[d] * 1e6 /
        static_cast<double>(index->num_pairs() * index->num_basic_windows()));
    out.index_mb = static_cast<double>(index->MemoryBytes()) / (1 << 20);
    for (size_t r = 0; r < sequence.size(); ++r) {
      const int q = sequence[r];
      if (w.queries[static_cast<size_t>(q)].dataset != d) {
        continue;
      }
      const SlidingQuery query = inner_query(q);
      for (const bool jumping : {false, true}) {
        TimingSink sink;
        EngineStats stats;
        const Clock::time_point start = Clock::now();
        Check(DangoronEngine::QueryPreparedToSink(EngineOptions(jumping),
                                                  *index, query, &pool, &stats,
                                                  &sink),
              "QueryPreparedToSink");
        const Clock::time_point end = Clock::now();
        const double ms = Ms(start, end);
        const double ns_per_cell =
            ms * 1e6 /
            static_cast<double>(std::max<int64_t>(stats.cells_total, 1));
        tracer->Record(jumping ? "engine.approx" : "engine.exact",
                       static_cast<int64_t>(r), start, end);
        if (jumping) {
          approx_of[r] = ms;
          out.approx_ms.push_back(ms);
          out.approx_ns_per_cell.push_back(ns_per_cell);
          out.cells_total += stats.cells_total;
          out.cells_jumped += stats.cells_jumped;
        } else {
          exact_of[r] = ms;
          out.exact_ms.push_back(ms);
          out.exact_first_ms.push_back(Ms(start, sink.first()));
          out.exact_ns_per_cell.push_back(ns_per_cell);
        }
      }
    }
  }

  // serve: in-process streaming on the stack's (first) server, then the
  // wire codec over the windows it delivered.
  // Every layer's replay starts with one untimed request, so lazy state
  // (connections, caches, pages) is warm as in the timed phase.
  DangoronServer* server = stack.servers[0].get();
  std::vector<double> serve_of(sequence.size());
  for (size_t i = 0; i <= sequence.size(); ++i) {
    const bool warm_up = i == 0;
    const size_t r = warm_up ? 0 : i - 1;
    const int q = sequence[r];
    QueryRequest request;
    request.dataset = DatasetName(w.queries[static_cast<size_t>(q)].dataset);
    request.query = inner_query(q);
    request.options.tier = w.queries[static_cast<size_t>(q)].tier;
    std::vector<StreamedWindow> delivered;
    const Clock::time_point start = Clock::now();
    std::unique_ptr<WindowStream> stream = server->SubmitStreaming(request);
    Clock::time_point first = start;
    while (std::optional<StreamedWindow> window = stream->Next()) {
      if (delivered.empty()) {
        first = Clock::now();
      }
      delivered.push_back(std::move(*window));
    }
    const Clock::time_point end = Clock::now();
    Check(stream->status(), "SubmitStreaming");
    if (warm_up) {
      continue;
    }
    tracer->Record("serve.query", static_cast<int64_t>(r), start, end);
    const StreamingSummary summary = stream->summary();
    serve_of[r] = Ms(start, end);
    double inner = 0.0;
    if (summary.windows_computed > 0) {
      inner = summary.tier_used == ServeTier::kApprox ? approx_of[r]
                                                       : exact_of[r];
    }
    if (!summary.prepared_from_cache) {
      inner += build_ms_of[w.queries[static_cast<size_t>(q)].dataset];
    }
    out.serve_ms.push_back(serve_of[r]);
    out.serve_ttfw_ms.push_back(Ms(start, first));
    out.serve_self_ms.push_back(serve_of[r] - inner);

    std::string bytes;
    const Clock::time_point encode_start = Clock::now();
    for (const StreamedWindow& window : delivered) {
      EncodeWindowFrame(window.window_index, *window.edges, &bytes);
    }
    const Clock::time_point encode_end = Clock::now();
    FrameReader reader(/*expect_preamble=*/false);
    reader.Feed(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    size_t decoded = 0;
    int64_t window_index = 0;
    std::vector<Edge> edges;
    while (true) {
      Frame frame;
      bool have = false;
      Check(reader.Next(&frame, &have), "FrameReader::Next");
      if (!have) {
        break;
      }
      Check(DecodeWindowPayload(frame.payload, &window_index, &edges),
            "DecodeWindowPayload");
      ++decoded;
    }
    const Clock::time_point decode_end = Clock::now();
    if (decoded != delivered.size()) {
      Die("wire codec round trip lost windows");
    }
    tracer->Record("wire.encode", static_cast<int64_t>(r), encode_start,
                   encode_end);
    tracer->Record("wire.decode", static_cast<int64_t>(r), encode_end,
                   decode_end);
    out.encode_ms.push_back(Ms(encode_start, encode_end));
    out.decode_ms.push_back(Ms(encode_end, decode_end));
  }

  // Replays the sequence through a WireClient on `port`, recording spans
  // named `span`. On the workload's front end an untraced pass comes first:
  // the two passes differ only in span recording, so their ratio is the
  // trace overhead.
  auto replay_wire = [&](int port, bool inner, const char* span,
                         bool front) {
    std::unique_ptr<WireClient> client = Connect(port);
    WireRequest warm_up = MakeRequest(w, sequence[0]);
    if (inner) {
      warm_up.query = inner_query(sequence[0]);
    }
    IssueRetrying(port, warm_up, &client);
    std::vector<Answer> answers;
    for (const bool traced : {false, true}) {
      if (!traced && !front) {
        continue;
      }
      for (size_t r = 0; r < sequence.size(); ++r) {
        WireRequest request = MakeRequest(w, sequence[r]);
        if (inner) {
          request.query = inner_query(sequence[r]);
        }
        const Clock::time_point start = Clock::now();
        Answer answer = IssueRetrying(port, request, &client);
        if (traced) {
          tracer->Record(span, static_cast<int64_t>(r), start, Clock::now());
          answers.push_back(std::move(answer));
        } else {
          out.front_untraced_ms.push_back(answer.query_ms);
        }
      }
    }
    return answers;
  };

  // net: a WireClient over the (shard 0) WireServer.
  const std::vector<Answer> net =
      replay_wire(stack.wires[0]->port(), true, "net.query", !w.routed);
  for (size_t r = 0; r < sequence.size(); ++r) {
    out.net_ms.push_back(net[r].query_ms);
    out.net_self_ms.push_back(net[r].query_ms - serve_of[r]);
    out.net_lag_ms.push_back(net[r].status_lag_ms);
  }

  // router: single-server workloads get a K=1 router over their WireServer.
  std::unique_ptr<Stack> k1;
  ShardRouter* router = stack.router.get();
  int router_port = stack.router_server ? stack.router_server->bound_port() : 0;
  if (router == nullptr) {
    k1 = std::make_unique<Stack>();
    AttachRouter(w, *server, {stack.wires[0]->port()}, k1.get());
    router = k1->router.get();
    router_port = k1->router_server->bound_port();
  }
  for (size_t i = 0; i <= sequence.size(); ++i) {
    const bool warm_up = i == 0;
    const size_t r = warm_up ? 0 : i - 1;
    const WireRequest request = MakeRequest(w, sequence[r]);
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<ShardMerge>> merge =
        router->Submit(request, num_pairs);
    Check(merge.status(), "ShardRouter::Submit");
    ShardMerge* stream = merge->get();
    const Answer answer = Drain(
        start,
        [stream](bool*, std::string*) { return stream->Next(); }, nullptr);
    Check(stream->status(), "ShardMerge");
    if (warm_up) {
      continue;
    }
    tracer->Record("router.merge", static_cast<int64_t>(r), start,
                   Clock::now());
    out.merge_ms.push_back(answer.query_ms);
    out.merge_ttfw_ms.push_back(answer.ttfw_ms);
  }
  const std::vector<Answer> routed =
      replay_wire(router_port, false, "router.query", w.routed);
  for (size_t r = 0; r < sequence.size(); ++r) {
    out.router_ms.push_back(routed[r].query_ms);
    out.router_self_ms.push_back(routed[r].query_ms - net[r].query_ms);
    out.router_lag_ms.push_back(routed[r].status_lag_ms);
  }
  return out;
}

// ----------------------------------------------------------------- main --

std::string Provenance(const Flags& flags, const Workload& w,
                       const TimedPhase& phase,
                       const std::vector<Windows>& reference) {
  std::string out = "{\"run\": " + flags.provenance;
  out += ", \"compiler\": " + Quote(PERFBENCH_COMPILER);
  out += ", \"march\": " + Quote(PERFBENCH_MARCH);
  out += ", \"flags\": " + Quote(PERFBENCH_FLAGS);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"pool_threads\": " + std::to_string(kPoolThreads);
  out += ", \"worker_threads\": " + std::to_string(w.worker_threads);
  out += ", \"shards\": " + std::to_string(w.shards);
  out += ", \"connections\": " + std::to_string(w.connections);
  out += ", \"seed\": " + std::to_string(flags.seed);
  out += ", \"size\": " + Quote(flags.tiny ? "tiny" : "full");
  int64_t sequence_length = 0;
  for (const auto& sequence : w.sequences) {
    sequence_length += static_cast<int64_t>(sequence.size());
  }
  out += ", \"sequence_requests\": " + std::to_string(sequence_length);
  out += ", \"requests\": " + std::to_string(phase.samples.size());
  int64_t reference_edges = 0;
  for (const Windows& windows : reference) {
    for (const std::vector<Edge>& window : windows) {
      reference_edges += static_cast<int64_t>(window.size());
    }
  }
  out += ", \"reference_edges\": " + std::to_string(reference_edges);
  out += "}";
  return out;
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

std::string JsonStrings(const std::vector<std::string>& values, size_t limit) {
  std::string out = "[";
  for (size_t i = 0; i < values.size() && i < limit; ++i) {
    out += (i > 0 ? ", " : "") + Quote(values[i]);
  }
  return out + "]";
}

// The end-to-end metrics of an untraced run; `samples` receives the
// sample counts behind them.
std::vector<Metric> EndToEndMetrics(const TimedPhase& phase,
                                    const Checked& checked,
                                    const std::vector<double>& setup_seconds,
                                    double rss_mb, std::string* samples) {
  std::vector<double> query_ms;
  std::vector<double> ttfw_ms;
  for (const Sample& sample : phase.samples) {
    if (sample.completed) {
      query_ms.push_back(sample.answer.query_ms);
      ttfw_ms.push_back(sample.answer.ttfw_ms);
    }
  }
  const auto completed = static_cast<double>(checked.completed);
  const Verdict& acc = checked.first_pass;
  const auto tp = static_cast<double>(acc.true_positives);
  const size_t n = query_ms.size();
  // Deciles of the latency distributions, for reading a shifted median.
  std::vector<double> query_deciles;
  std::vector<double> ttfw_deciles;
  for (int decile = 1; decile <= 9; ++decile) {
    query_deciles.push_back(Percentile(query_ms, decile / 10.0));
    ttfw_deciles.push_back(Percentile(ttfw_ms, decile / 10.0));
  }
  *samples = "{\"query_p50_ms\": " + std::to_string(n) +
             ", \"query_p90_ms\": " + std::to_string(n) +
             ", \"beyond_p90\": " + std::to_string(n - (n * 9 + 9) / 10) +
             ", \"ttfw_p50_ms\": " + std::to_string(n) +
             ", \"setup_s\": " + JsonNumbers(setup_seconds) +
             ", \"query_ms_deciles\": " + JsonNumbers(query_deciles) +
             ", \"ttfw_ms_deciles\": " + JsonNumbers(ttfw_deciles) + "}";
  return {
      {"query_p50_ms", Percentile(query_ms, 0.5), "ms"},
      {"query_p90_ms", Percentile(query_ms, 0.9), "ms"},
      {"ttfw_p50_ms", Percentile(ttfw_ms, 0.5), "ms"},
      {"throughput_qps", completed / phase.wall_seconds, "1/s"},
      {"cpu_ms_per_query", 1e3 * phase.cpu_seconds / std::max(completed, 1.0),
       "ms"},
      {"completed_ratio",
       completed / static_cast<double>(std::max<int64_t>(checked.attempted, 1)),
       "ratio"},
      {"edge_recall",
       Ratio(tp, static_cast<double>(acc.true_positives + acc.false_negatives)),
       "ratio"},
      {"edge_precision",
       Ratio(tp, static_cast<double>(acc.true_positives + acc.false_positives)),
       "ratio"},
      {"setup_s", Median(setup_seconds), "s"},
      {"rss_peak_mb", rss_mb, "MB"},
  };
}

// The per-layer metrics of a traced run: medians of the replayed calls,
// plus counter deltas of the timed phase per request.
std::vector<Metric> LayerMetrics(const Workload& w, const TimedPhase& phase,
                                 const LayerSamples& layers,
                                 std::string* samples) {
  const std::vector<double>& traced_front =
      w.routed ? layers.router_ms : layers.net_ms;
  *samples = "{\"replayed_requests\": " + std::to_string(w.trace_requests) +
             ", \"builds\": " + std::to_string(layers.build_ms.size()) + "}";
  const Counters& d = phase.delta;
  const double requests = static_cast<double>(
      std::max<int64_t>(static_cast<int64_t>(phase.samples.size()), 1));
  auto per_request = [&](int64_t count) {
    return static_cast<double>(count) / requests;
  };
  auto ratio = [](int64_t part, int64_t whole) {
    return Ratio(static_cast<double>(part), static_cast<double>(whole));
  };
  return {
      {"sketch.build_ms", Median(layers.build_ms), "ms"},
      {"sketch.build_ns_per_pair_bw", Median(layers.build_ns_per_pair_bw),
       "ns"},
      {"sketch.index_mb", layers.index_mb, "MB"},
      {"engine.exact_ms", Median(layers.exact_ms), "ms"},
      {"engine.exact_first_window_ms", Median(layers.exact_first_ms), "ms"},
      {"engine.exact_ns_per_cell", Median(layers.exact_ns_per_cell), "ns"},
      {"engine.approx_ms", Median(layers.approx_ms), "ms"},
      {"engine.approx_ns_per_cell", Median(layers.approx_ns_per_cell), "ns"},
      {"engine.approx_over_exact",
       Ratio(Median(layers.approx_ms), Median(layers.exact_ms)), "ratio"},
      {"engine.cells_jumped_ratio",
       ratio(layers.cells_jumped, layers.cells_total), "ratio"},
      {"serve.query_ms", Median(layers.serve_ms), "ms"},
      {"serve.ttfw_ms", Median(layers.serve_ttfw_ms), "ms"},
      {"serve.self_ms", Median(layers.serve_self_ms), "ms"},
      {"serve.result_cache_hit_ratio",
       ratio(d.result_hits, d.result_hits + d.result_misses), "ratio"},
      {"serve.sketch_cache_hit_ratio",
       ratio(d.sketch_hits, d.sketch_hits + d.sketch_misses), "ratio"},
      {"serve.windows_computed", per_request(d.windows_computed), "count"},
      {"serve.windows_from_cache", per_request(d.windows_from_cache), "count"},
      {"serve.prepares_built", per_request(d.prepares_built), "count"},
      {"serve.sketch_evictions", per_request(d.sketch_evictions), "count"},
      {"wire.encode_ms", Median(layers.encode_ms), "ms"},
      {"wire.decode_ms", Median(layers.decode_ms), "ms"},
      {"wire.bytes_per_query", per_request(d.bytes_out), "B"},
      {"net.self_ms", Median(layers.net_self_ms), "ms"},
      {"net.lane_high_ratio", ratio(d.lane_high, d.lane_total), "ratio"},
      {"net.status_lag_ms", Median(layers.net_lag_ms), "ms"},
      {"router.merge_ms", Median(layers.merge_ms), "ms"},
      {"router.ttfw_ms", Median(layers.merge_ttfw_ms), "ms"},
      {"router.self_ms", Median(layers.router_self_ms), "ms"},
      {"router.status_lag_ms", Median(layers.router_lag_ms), "ms"},
      {"trace.overhead_ratio",
       Ratio(Median(traced_front), Median(layers.front_untraced_ms)), "ratio"},
  };
}

int Run(const Flags& flags) {
  const Sizes& sizes = flags.tiny ? kTinySizes : kFullSizes;
  Workload w = MakeWorkload(flags.workload, flags.seed, sizes);
  std::vector<Windows> reference = ComputeReference(w);
  if (w.name == "climate_cold") {
    int64_t answer_bytes = 0;
    for (const std::vector<Edge>& window : reference[0]) {
      answer_bytes += static_cast<int64_t>(window.size() * sizeof(Edge));
    }
    w.result_cache_bytes = std::max<int64_t>(answer_bytes / 4, 4096);
  }
  if (flags.corrupt_reference) {
    CorruptReference(w, &reference);
  }

  SetupResult setup = RunSetup(w);
  std::vector<double> setup_seconds = {setup.seconds};
  TimedPhase phase = RunTimed(w, &setup, flags.seconds);
  // Peak RSS of one setup and the timed phase, as a server would see it:
  // read before the extra setups below, whose teardown and rebuild would
  // leave allocator state that no single server has.
  const double rss_mb = PeakRssMb();
  const Checked checked = CheckAnswers(w, reference, &phase);
  std::vector<std::string> problems = checked.problems;
  for (std::string& broken : CheckPremise(w, phase)) {
    problems.push_back(std::move(broken));
  }

  std::string samples;
  std::vector<Metric> metrics;
  if (flags.trace) {
    Tracer tracer;
    const LayerSamples layers = ReplayLayers(w, &setup, &tracer);
    tracer.LinkParents();
    tracer.Write(flags.trace_out);
    metrics = LayerMetrics(w, phase, layers, &samples);
  } else {
    setup = SetupResult{};
    while (setup_seconds.size() < kSetups) {
      setup_seconds.push_back(RunSetup(w).seconds);
    }
    metrics = EndToEndMetrics(phase, checked, setup_seconds, rss_mb, &samples);
  }

  // Every line but the last is context: provenance, sample counts, counter
  // deltas, and any problem or failed request.
  const Counters& d = phase.delta;
  std::printf(
      "{\"workload\": %s, \"provenance\": %s, \"samples\": %s, "
      "\"counters\": {\"prepares_built\": %lld, \"windows_computed\": %lld, "
      "\"windows_from_cache\": %lld, \"wire_requests\": %lld, "
      "\"router_requests\": %lld}, \"refused_submissions\": %lld, "
      "\"problems\": %s, \"failures\": %s}\n",
      Quote(w.name).c_str(), Provenance(flags, w, phase, reference).c_str(),
      samples.c_str(), static_cast<long long>(d.prepares_built),
      static_cast<long long>(d.windows_computed),
      static_cast<long long>(d.windows_from_cache),
      static_cast<long long>(d.wire_requests),
      static_cast<long long>(d.router_requests),
      static_cast<long long>(checked.refused_submissions),
      JsonStrings(problems, 8).c_str(),
      JsonStrings(checked.failures, 8).c_str());

  const bool correct = problems.empty();
  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(checked.attempted) +
                       ", \"failed\": " +
                       std::to_string(checked.attempted - checked.completed) +
                       ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    result += (i > 0 ? ", " : "") + Quote(metrics[i].name) +
              ": {\"value\": " + Num(metrics[i].value) +
              ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  if (checked.refused_submissions > 0) {
    std::fprintf(stderr,
                 "perfbench: the server refused %lld back-to-back submissions "
                 "as pipelined; each was resubmitted on a new connection\n",
                 static_cast<long long>(checked.refused_submissions));
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dangoron

int main(int argc, char** argv) {
  const dangoron::Flags flags = dangoron::ParseFlags(argc, argv);
  return dangoron::Run(flags);
}
