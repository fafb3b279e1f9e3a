// dangoron_serverd: the library's one command line — a daemon speaking the
// framed wire protocol (docs/WIRE_PROTOCOL.md), its client, a shard router,
// a one-shot engine run, and the Tomborg dataset generator.
//
// Serve:
//   dangoron_serverd serve <data.{csv,dgrn}> [name=data] [port=7311]
//                    [server=<options>] [workers=<n>]
//     Loads the dataset, registers it under `name`, and serves QueryRequests
//     on `port` until SIGINT/SIGTERM. `server=` is the same option string
//     CreateServer takes everywhere else (e.g. server=basic_window=24).
//     port=0 binds an ephemeral port (printed on stdout).
//
// Query:
//   dangoron_serverd query <host> <port> <dataset> <window> <step> <beta>
//                    [abs] [tier=...] [deadline=<ms>] [degrade=off|auto]
//                    [out.csv]
//     Submits one request, streams the per-window results as they arrive,
//     prints the terminal summary. The wire adds transport, not semantics:
//     the same query against the same server answers byte-identically to an
//     in-process Submit.
//
// Route:
//   dangoron_serverd route <data.{csv,dgrn}> [shard=<host:port>]...
//                    [spawn=<K>] [base-port=7312] [name=data] [port=7411]
//                    [server=<options>] [respawn=<N>]
//     Fronts K shard backends (each a `serve` process holding the full
//     dataset) with a ShardRouter: every client request splits into K
//     disjoint pair-range requests and the K window streams merge back in
//     window order (src/router/README.md). The data file is loaded only
//     for its series count (the pair split) and content fingerprint (pinned
//     onto every shard request), then dropped — the router holds no data.
//     `spawn=K` forks K `serve` children on base-port..base-port+K-1
//     instead of (or in addition to) explicit shard= endpoints. Exit code 5
//     means a shard backend never came up at startup. After startup the
//     route process supervises its children: an exited child is reaped and
//     its exit status logged, and — up to `respawn=N` times per child
//     (default 3; 0 = reap only) — respawned with capped backoff and
//     re-probed for readiness before the router routes to it again.
//     Mid-query shard deaths are ridden out by the router's failover
//     (src/router/README.md).
//
// Run:
//   dangoron_serverd run <data.{csv,dgrn}> <engine>[:options] <window>
//                    <step> <beta> [abs] [out.csv]
//     Runs one query in process on any CreateEngine spec (naive | tsubasa |
//     dangoron | parcorr, e.g. "dangoron:basic_window=24,jump=off") and
//     prints the engine's prepare/query times and cell counters.
//
// Generate:
//   dangoron_serverd generate [N=32] [L=4096] [family=uniform]
//                    [envelope=pink] [seed=2023] [out.{csv,dgrn}]
//     Tomborg (src/tomborg/README.md): N series of length L whose pairwise
//     correlations follow `family` and whose spectra follow `envelope`,
//     with the realization report. An output path ending in .dgrn gets the
//     lossless binary format (ts/dataset_io.h), any other CSV (one series
//     per row, values at %.10g).
//
// Every numeric argument must parse whole ("0.6x" and "abc" are usage
// errors, exit 2); the exit codes are kExitCodeSpecs below.
//
// Quickstart (single-process shards, two terminals):
//   ./build/dangoron_serverd generate 32 4096 block pink 1 /tmp/d.csv
//   ./build/dangoron_serverd route /tmp/d.csv spawn=2 port=7411 &
//   ./build/dangoron_serverd query 127.0.0.1 7411 data 512 128 0.8 n.csv

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "engine/factory.h"
#include "net/wire_server.h"
#include "network/export.h"
#include "router/router_server.h"
#include "router/shard_router.h"
#include "serve/server.h"
#include "tomborg/tomborg.h"
#include "ts/csv.h"
#include "ts/dataset_io.h"
#include "ts/resample.h"
#include "wire/client.h"

namespace dangoron {
namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

// ------------------------------------------------------------ flag table --

struct ServeFlagSpec {
  const char* usage;  ///< as shown in a usage line, e.g. "tier=exact|..."
  const char* help;   ///< one-line explanation
};

/// The trailing flags of `query`; `run` takes `abs` only.
constexpr ServeFlagSpec kServeFlagSpecs[] = {
    {"abs", "threshold on |corr| >= beta instead of signed corr >= beta"},
    {"tier=exact|approx|auto",
     "service tier of the request (default: the server's default tier, "
     "exact unless configured; auto picks by deadline budget)"},
    {"deadline=<ms>",
     "deadline in milliseconds: admission, auto-tier choice, and hard "
     "mid-run enforcement (0 = no deadline)"},
    {"degrade=off|auto",
     "degradation under pressure: auto serves approx instead of failing a "
     "blown deadline estimate or a mid-query resource exhaustion"},
};

// ------------------------------------------------------------ exit codes --

struct ExitCodeSpec {
  int code;
  const char* meaning;
};

/// Why 3-5 exist: a scripted caller reacts differently to a latency miss
/// (retry with a looser budget or the approx tier), to its own
/// cancellation, or to an unreachable shard backend (retry once the shard
/// is back, or page the operator) than to a real bug. docs/ARCHITECTURE.md
/// carries the same table (scripts/check_invariants.py cross-checks it).
constexpr ExitCodeSpec kExitCodeSpecs[] = {
    {0, "success"},
    {1, "generic failure (load, engine, query, or export error)"},
    {2, "usage error (bad arguments or an unknown flag)"},
    {3, "the query failed on its deadline (DeadlineExceeded)"},
    {4, "the query was cancelled (Cancelled)"},
    {5, "a shard backend was unreachable (Unavailable)"},
};

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      return 3;
    case StatusCode::kCancelled:
      return 4;
    case StatusCode::kUnavailable:
      return 5;
    default:
      return 1;
  }
}

// -------------------------------------------------------- Tomborg presets --

struct FamilyPreset {
  const char* name;
  CorrelationSpec spec;
};

/// `generate`'s named correlation families (tomborg/correlation_spec.h).
const FamilyPreset kFamilyPresets[] = {
    {"uniform", {.family = CorrelationFamily::kUniform, .a = 0.1, .b = 0.9}},
    {"normal",
     {.family = CorrelationFamily::kClippedNormal, .a = 0.5, .b = 0.2}},
    {"beta",
     {.family = CorrelationFamily::kBeta, .a = 2.0, .b = 3.0, .lo = 0.0,
      .hi = 0.95}},
    {"block",
     {.family = CorrelationFamily::kBlock, .a = 0.85, .b = 0.15,
      .blocks = 4, .jitter = 0.03}},
    {"hub",
     {.family = CorrelationFamily::kHub, .a = 0.8, .b = 0.2, .hubs = 4,
      .jitter = 0.03}},
    {"constant", {.family = CorrelationFamily::kConstant, .a = 0.6}},
};

struct EnvelopePreset {
  const char* name;
  SpectralEnvelope envelope;
};

const EnvelopePreset kEnvelopePresets[] = {
    {"white", SpectralEnvelope::kWhite},
    {"pink", SpectralEnvelope::kPink},
    {"seasonal", SpectralEnvelope::kSeasonal},
    {"highpass", SpectralEnvelope::kHighPass},
};

/// The preset named `name`, or null.
template <typename Preset, size_t N>
const Preset* FindPreset(const Preset (&presets)[N], const std::string& name) {
  for (const Preset& preset : presets) {
    if (name == preset.name) {
      return &preset;
    }
  }
  return nullptr;
}

/// "a|b|c" over the presets' names.
template <typename Preset, size_t N>
std::string PresetNames(const Preset (&presets)[N]) {
  std::string names;
  for (const Preset& preset : presets) {
    names += names.empty() ? "" : "|";
    names += preset.name;
  }
  return names;
}

// --------------------------------------------------------------- parsing --

int Usage(const char* argv0) {
  std::string flag_usage;
  std::string flag_help;
  for (const ServeFlagSpec& spec : kServeFlagSpecs) {
    flag_usage += StrFormat("%s[%s]", flag_usage.empty() ? "" : " ",
                            spec.usage);
    flag_help += StrFormat("  %s: %s\n", spec.usage, spec.help);
  }
  std::string exit_help;
  for (const ExitCodeSpec& spec : kExitCodeSpecs) {
    exit_help += StrFormat("  %d  %s\n", spec.code, spec.meaning);
  }
  std::fprintf(
      stderr,
      "usage: %s serve <data.{csv,dgrn}> [name=data] [port=7311]\n"
      "          [server=<options>] [workers=<n>]\n"
      "       %s query <host> <port> <dataset> <window> <step> <beta>\n"
      "          %s [out.csv]\n"
      "       %s route <data.{csv,dgrn}> [shard=<host:port>]... [spawn=<K>]\n"
      "          [base-port=7312] [name=data] [port=7411] "
      "[server=<options>] [respawn=<N>]\n"
      "       %s run <data.{csv,dgrn}> <engine>[:options] <window> <step>\n"
      "          <beta> [abs] [out.csv]\n"
      "       %s generate [N=32] [L=4096] [family=uniform] [envelope=pink]\n"
      "          [seed=2023] [out.{csv,dgrn}]\n"
      "engines: %s\n"
      "families: %s\n"
      "envelopes: %s\n"
      "query flags (run takes abs only):\n%s"
      "exit codes:\n%s",
      argv0, argv0, flag_usage.c_str(), argv0, argv0, argv0,
      KnownEngineNames().c_str(), PresetNames(kFamilyPresets).c_str(),
      PresetNames(kEnvelopePresets).c_str(), flag_help.c_str(),
      exit_help.c_str());
  return 2;
}

/// Strict numeric argument: the whole token must parse (ParseInt64 /
/// ParseDouble) and lie in [lo, hi]. Otherwise prints a usage error naming
/// `what` and the token and returns false — the caller exits 2, so neither
/// a half-parsed "0.6x" nor an "abc" read as 0 ever reaches a query.
template <typename T>
bool ParseNumber(const char* what, std::string_view token, T lo, T hi,
                 T* out) {
  bool ok = false;
  if constexpr (std::is_integral_v<T>) {
    const Result<int64_t> value = ParseInt64(token);
    ok = value.ok() && *value >= lo && *value <= hi;
    if (ok) {
      *out = static_cast<T>(*value);
    }
  } else {
    const Result<double> value = ParseDouble(token);
    ok = value.ok() && *value >= lo && *value <= hi;
    if (ok) {
      *out = *value;
    }
  }
  if (!ok) {
    auto bound = [](T v) {
      if constexpr (std::is_integral_v<T>) {
        return std::to_string(v);
      } else {
        return StrFormat("%g", v);
      }
    };
    std::string range;
    if (lo != std::numeric_limits<T>::lowest()) {
      range = hi == std::numeric_limits<T>::max()
                  ? " >= " + bound(lo)
                  : " in [" + bound(lo) + ", " + bound(hi) + "]";
    }
    std::fprintf(stderr, "%s wants a%s%s, got '%.*s'\n", what,
                 std::is_integral_v<T> ? "n integer" : " number",
                 range.c_str(), static_cast<int>(token.size()),
                 token.data());
  }
  return ok;
}

/// Parses the `<window> <step> <beta>` triple at argv[first..first+2].
bool ParseWindowArgs(char** argv, int first, SlidingQuery* query) {
  return ParseNumber<int64_t>("window", argv[first], 1, INT64_MAX,
                              &query->window) &&
         ParseNumber<int64_t>("step", argv[first + 1], 1, INT64_MAX,
                              &query->step) &&
         ParseNumber("beta", argv[first + 2], -1.0, 1.0, &query->threshold);
}

/// Parses the trailing arguments of `query` (options != null) and `run`
/// (options == null: `abs` only): flags from kServeFlagSpecs, else the one
/// output path. A key=value token that matches no flag, an empty or a
/// second output path, or a bad flag value prints a usage error and
/// returns false — dropping a typo'd flag silently would change the
/// query's semantics (e.g. run without the intended deadline).
bool ParseTrailingArgs(int argc, char** argv, int first, SlidingQuery* query,
                       ServeOptions* options, std::string* out_path) {
  auto assign = [](auto parsed, auto* field) {
    if (parsed.ok()) {
      *field = *parsed;
    }
    return parsed.status();
  };
  for (int a = first; a < argc; ++a) {
    const std::string arg = argv[a];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    Status status = Status::Ok();
    if (arg == "abs") {
      query->absolute = true;
    } else if (eq == std::string::npos) {
      if (arg.empty() || !out_path->empty()) {
        std::fprintf(stderr, "bad output path '%s'%s\n", arg.c_str(),
                     arg.empty() ? "" : " (one output path only)");
        return false;
      }
      *out_path = arg;
    } else if (options != nullptr && key == "tier") {
      status = assign(ParseServeTier(value), &options->tier);
    } else if (options != nullptr && key == "degrade") {
      status = assign(ParseDegradePolicy(value), &options->degrade);
    } else if (options != nullptr && key == "deadline") {
      int64_t deadline_ms = 0;
      if (!ParseNumber<int64_t>("deadline=", value, 0, INT64_MAX,
                                &deadline_ms)) {
        return false;
      }
      if (deadline_ms > 0) {
        options->deadline_ms = deadline_ms;  // 0 stays "no deadline"
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s' (known: %s)\n", arg.c_str(),
                   options != nullptr ? "abs, tier=, deadline=, degrade="
                                      : "abs");
      return false;
    }
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                   status.ToString().c_str());
      return false;
    }
  }
  return true;
}

Result<TimeSeriesMatrix> LoadData(const std::string& path) {
  Result<TimeSeriesMatrix> data =
      EndsWith(path, ".dgrn") ? LoadDataset(path) : LoadCsv(path);
  RETURN_IF_ERROR(data.status());
  if (data->CountMissing() > 0) {
    RETURN_IF_ERROR(InterpolateMissing(&*data));
  }
  return data;
}

int RunServe(int argc, char** argv) {
  if (argc < 3) {
    return Usage(argv[0]);
  }
  const std::string data_path = argv[2];
  std::string name = "data";
  std::string server_options;
  WireServerOptions wire_options;
  wire_options.port = 7311;
  for (int a = 3; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("name=", 0) == 0) {
      name = arg.substr(5);
    } else if (arg.rfind("port=", 0) == 0) {
      if (!ParseNumber("port=", arg.substr(5), 0, 65535,
                       &wire_options.port)) {
        return 2;
      }
    } else if (arg.rfind("server=", 0) == 0) {
      server_options = arg.substr(7);
    } else if (arg.rfind("workers=", 0) == 0) {
      if (!ParseNumber<int32_t>("workers=", arg.substr(8), 0, INT32_MAX,
                                &wire_options.worker_threads)) {
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown serve argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  Result<TimeSeriesMatrix> data = LoadData(data_path);
  if (!data.ok()) {
    std::fprintf(stderr, "load: %s\n", data.status().ToString().c_str());
    return 1;
  }
  auto server = CreateServer(server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return 1;
  }
  if (Status status = (*server)->AddDataset(name, std::move(*data));
      !status.ok()) {
    std::fprintf(stderr, "AddDataset: %s\n", status.ToString().c_str());
    return 1;
  }

  WireServer wire(server->get(), wire_options);
  if (Status status = wire.Start(); !status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("serving dataset '%s' on %s:%d (fingerprint %llu)\n",
              name.c_str(), wire_options.bind_address.c_str(), wire.port(),
              static_cast<unsigned long long>(
                  *(*server)->DatasetFingerprint(name)));
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  sigset_t empty;
  sigemptyset(&empty);
  while (g_stop == 0) {
    sigsuspend(&empty);  // sleep until a signal arrives
  }

  wire.Stop();
  const WireServerStats stats = wire.stats();
  std::printf(
      "shutting down: %lld connections, %lld requests "
      "(lanes high=%lld medium=%lld low=%lld), %lld cancels, "
      "%lld disconnect-cancels, %lld protocol errors, "
      "%lld bytes in, %lld bytes out\n",
      static_cast<long long>(stats.connections_accepted +
                             stats.connections_adopted),
      static_cast<long long>(stats.requests),
      static_cast<long long>(stats.lanes.executed[0]),
      static_cast<long long>(stats.lanes.executed[1]),
      static_cast<long long>(stats.lanes.executed[2]),
      static_cast<long long>(stats.cancel_frames),
      static_cast<long long>(stats.disconnect_cancels),
      static_cast<long long>(stats.protocol_errors),
      static_cast<long long>(stats.bytes_in),
      static_cast<long long>(stats.bytes_out));
  return 0;
}

/// One spawn=K shard child under supervision: the router shard index it
/// backs, its port, and the respawn bookkeeping (budget, capped backoff,
/// readiness re-probe) the route loop drives.
struct ShardChild {
  pid_t pid = -1;  ///< -1 = not running (reaped, not yet respawned)
  int shard = 0;   ///< router shard index — MarkShardUp target
  int port = 0;
  int respawns_left = 0;
  int64_t backoff_ms = 250;
  std::chrono::steady_clock::time_point respawn_at{};
  bool waiting_respawn = false;
  bool probing = false;
};

/// Forks one `serve` child for `port`; returns its pid (<0 on fork failure;
/// never returns in the child).
pid_t SpawnShard(const char* argv0, const std::string& data_path,
                 const std::string& name, const std::string& server_options,
                 int port) {
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  std::vector<std::string> args = {argv0, "serve", data_path, "name=" + name,
                                   "port=" + std::to_string(port)};
  if (!server_options.empty()) {
    args.push_back("server=" + server_options);
  }
  std::vector<char*> child_argv;
  for (std::string& a : args) {
    child_argv.push_back(a.data());
  }
  child_argv.push_back(nullptr);
  ::execv("/proc/self/exe", child_argv.data());
  std::perror("execv");
  ::_exit(127);
}

/// Human-readable child exit: "exit code N" / "signal N".
std::string DescribeExit(int wstatus) {
  if (WIFEXITED(wstatus)) {
    return "exit code " + std::to_string(WEXITSTATUS(wstatus));
  }
  if (WIFSIGNALED(wstatus)) {
    return "signal " + std::to_string(WTERMSIG(wstatus));
  }
  return "status " + std::to_string(wstatus);
}

/// SIGTERMs and reaps every live spawned shard child; idempotent.
void StopChildren(std::vector<ShardChild>* children) {
  for (const ShardChild& child : *children) {
    if (child.pid > 0) {
      ::kill(child.pid, SIGTERM);
    }
  }
  for (ShardChild& child : *children) {
    if (child.pid > 0) {
      ::waitpid(child.pid, nullptr, 0);
      child.pid = -1;
    }
  }
  children->clear();
}

int RunRoute(int argc, char** argv) {
  if (argc < 3) {
    return Usage(argv[0]);
  }
  const std::string data_path = argv[2];
  std::string name = "data";
  std::string server_options;
  int port = 7411;
  int spawn = 0;
  int base_port = 7312;
  int respawn = 3;
  std::vector<ShardEndpoint> shards;
  for (int a = 3; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("name=", 0) == 0) {
      name = arg.substr(5);
    } else if (arg.rfind("port=", 0) == 0) {
      if (!ParseNumber("port=", arg.substr(5), 0, 65535, &port)) {
        return 2;
      }
    } else if (arg.rfind("respawn=", 0) == 0) {
      if (!ParseNumber("respawn=", arg.substr(8), 0, INT_MAX, &respawn)) {
        return 2;
      }
    } else if (arg.rfind("shard=", 0) == 0) {
      const std::string spec = arg.substr(6);
      const size_t colon = spec.rfind(':');
      ShardEndpoint endpoint;
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "shard= wants host:port, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      endpoint.host = spec.substr(0, colon);
      if (!ParseNumber("shard= port", spec.substr(colon + 1), 1, 65535,
                       &endpoint.port)) {
        return 2;
      }
      shards.push_back(endpoint);
    } else if (arg.rfind("spawn=", 0) == 0) {
      if (!ParseNumber("spawn=", arg.substr(6), 0, INT_MAX, &spawn)) {
        return 2;
      }
    } else if (arg.rfind("base-port=", 0) == 0) {
      if (!ParseNumber("base-port=", arg.substr(10), 1, 65535, &base_port)) {
        return 2;
      }
    } else if (arg.rfind("server=", 0) == 0) {
      server_options = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown route argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (shards.empty() && spawn <= 0) {
    std::fprintf(stderr,
                 "route needs shard=<host:port> backends or spawn=<K>\n");
    return 2;
  }

  // The data file is read only for the pair-split geometry and the content
  // fingerprint pinned onto every shard request; the matrix itself is
  // dropped at the end of this scope — the router holds no data.
  int64_t num_series = 0;
  uint64_t fingerprint = 0;
  {
    Result<TimeSeriesMatrix> data = LoadData(data_path);
    if (!data.ok()) {
      std::fprintf(stderr, "load: %s\n", data.status().ToString().c_str());
      return 1;
    }
    num_series = data->num_series();
    fingerprint = data->ContentFingerprint();
  }

  std::vector<ShardChild> children;
  for (int s = 0; s < spawn; ++s) {
    const int shard_port = base_port + s;
    const pid_t pid =
        SpawnShard(argv[0], data_path, name, server_options, shard_port);
    if (pid < 0) {
      std::perror("fork");
      StopChildren(&children);
      return 1;
    }
    ShardChild child;
    child.pid = pid;
    child.shard = static_cast<int>(shards.size());
    child.port = shard_port;
    child.respawns_left = respawn;
    children.push_back(child);
    shards.push_back({"127.0.0.1", shard_port});
  }

  // Fail fast (exit code 5) instead of failing the first query: every
  // shard must accept a connection before the router starts listening.
  // Spawned children need a beat to load the dataset and bind.
  for (size_t s = 0; s < shards.size(); ++s) {
    WireClientOptions probe;
    probe.connect_timeout_ms = 250;
    Status last = Status::Ok();
    bool up = false;
    for (int attempt = 0; attempt < 40; ++attempt) {
      Result<std::unique_ptr<WireClient>> client =
          WireClient::ConnectTcp(shards[s].host, shards[s].port, probe);
      if (client.ok()) {
        up = true;  // the probe connection closes with the client
        break;
      }
      last = client.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    if (!up) {
      const Status status = Status::Unavailable(
          "shard ", s, " (", shards[s].host, ":", shards[s].port,
          ") never came up: ", last.message());
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      StopChildren(&children);
      return ExitCodeFor(status);
    }
  }

  ShardRouterOptions router_options;
  router_options.shards = shards;
  ShardRouter router(router_options);

  RouterServerOptions front_options;
  front_options.port = port;
  RouterServer front(&router, front_options);
  front.RegisterDataset(name, num_series, fingerprint);
  if (Status status = front.Start(); !status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    StopChildren(&children);
    return 1;
  }
  std::printf(
      "routing dataset '%s' (%lld series, fingerprint %llu) across %zu "
      "shards on %s:%d\n",
      name.c_str(), static_cast<long long>(num_series),
      static_cast<unsigned long long>(fingerprint), shards.size(),
      front_options.bind_address.c_str(), front.bound_port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Supervision loop (200 ms ticks): reap exited spawn=K children so a
  // crashed shard never lingers as a zombie and its exit status is logged;
  // respawn with capped exponential backoff while the budget lasts
  // (respawn=0 turns respawning off, reaping stays); re-probe readiness
  // before telling the router the shard is routable again. Between a death
  // and the respawned child's first ready probe, the router's own health
  // machine keeps queries off the port (and failover keeps in-flight
  // queries alive).
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (g_stop != 0) {
      break;
    }
    const auto now = std::chrono::steady_clock::now();

    while (!children.empty()) {
      int wstatus = 0;
      const pid_t pid = ::waitpid(-1, &wstatus, WNOHANG);
      if (pid <= 0) {
        break;
      }
      for (ShardChild& child : children) {
        if (child.pid != pid) {
          continue;
        }
        child.pid = -1;
        child.probing = false;
        std::fprintf(stderr,
                     "shard %d (127.0.0.1:%d): child %lld died (%s)%s\n",
                     child.shard, child.port, static_cast<long long>(pid),
                     DescribeExit(wstatus).c_str(),
                     child.respawns_left > 0
                         ? ""
                         : " — not respawning (budget exhausted)");
        if (child.respawns_left > 0) {
          child.waiting_respawn = true;
          child.respawn_at =
              now + std::chrono::milliseconds(child.backoff_ms);
        }
        break;
      }
    }

    for (ShardChild& child : children) {
      if (!child.waiting_respawn || now < child.respawn_at) {
        continue;
      }
      pid_t pid = -1;
      // Chaos seam: `router.respawn=error` makes the fork fail, consuming
      // one respawn attempt like a real fork failure.
      if (Status injected = DANGORON_FAILPOINT_STATUS("router.respawn");
          injected.ok()) {
        pid = SpawnShard(argv[0], data_path, name, server_options,
                         child.port);
      } else {
        std::fprintf(stderr, "shard %d: respawn failpoint: %s\n",
                     child.shard, injected.ToString().c_str());
      }
      --child.respawns_left;
      child.backoff_ms = std::min<int64_t>(child.backoff_ms * 2, 5000);
      if (pid < 0) {
        if (child.respawns_left > 0) {
          child.respawn_at =
              now + std::chrono::milliseconds(child.backoff_ms);
        } else {
          child.waiting_respawn = false;
          std::fprintf(stderr,
                       "shard %d (127.0.0.1:%d): respawn budget exhausted\n",
                       child.shard, child.port);
        }
        continue;
      }
      child.pid = pid;
      child.waiting_respawn = false;
      child.probing = true;
      std::fprintf(stderr,
                   "shard %d (127.0.0.1:%d): respawned as pid %lld, "
                   "probing readiness\n",
                   child.shard, child.port, static_cast<long long>(pid));
    }

    for (ShardChild& child : children) {
      if (!child.probing || child.pid <= 0) {
        continue;
      }
      WireClientOptions probe;
      probe.connect_timeout_ms = 100;
      Result<std::unique_ptr<WireClient>> conn =
          WireClient::ConnectTcp("127.0.0.1", child.port, probe);
      if (conn.ok()) {  // the probe connection closes with the client
        child.probing = false;
        child.backoff_ms = 250;  // healthy again: fresh backoff next time
        router.MarkShardUp(child.shard);
        std::fprintf(stderr, "shard %d (127.0.0.1:%d): ready (pid %lld)\n",
                     child.shard, child.port,
                     static_cast<long long>(child.pid));
      }
    }
  }

  front.Stop();
  const RouterServerStats stats = front.stats();
  std::printf(
      "shutting down: %lld connections, %lld requests, %lld cancels, "
      "%lld disconnect-cancels, %lld protocol errors, %lld shard "
      "failures, %lld failovers\n",
      static_cast<long long>(stats.connections_accepted +
                             stats.connections_adopted),
      static_cast<long long>(stats.requests),
      static_cast<long long>(stats.cancel_frames),
      static_cast<long long>(stats.disconnect_cancels),
      static_cast<long long>(stats.protocol_errors),
      static_cast<long long>(stats.shard_failures),
      static_cast<long long>(stats.failovers));
  StopChildren(&children);
  return 0;
}

int RunQuery(int argc, char** argv) {
  if (argc < 8) {
    return Usage(argv[0]);
  }
  const std::string host = argv[2];
  int port = 0;
  WireRequest request;
  request.dataset = argv[4];
  request.query.start = 0;
  request.query.end = 0;  // 0 = the dataset's full range (server-side)
  std::string out_path;
  if (!ParseNumber("port", argv[3], 1, 65535, &port) ||
      !ParseWindowArgs(argv, 5, &request.query) ||
      !ParseTrailingArgs(argc, argv, 8, &request.query, &request.options,
                         &out_path)) {
    return 2;
  }

  auto client = WireClient::ConnectTcp(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }
  Stopwatch watch;
  if (Status status = (*client)->Submit(request); !status.ok()) {
    std::fprintf(stderr, "submit: %s\n", status.ToString().c_str());
    return 1;
  }

  // The same writer as `run`'s, so the two CSVs of one query compare whole.
  std::optional<SeriesCsvSink> csv;
  if (!out_path.empty()) {
    csv.emplace(out_path);
    if (!csv->status().ok()) {
      std::fprintf(stderr, "%s\n", csv->status().ToString().c_str());
      return 1;
    }
  }

  double ttfw_ms = 0.0;
  int64_t windows = 0;
  int64_t edges = 0;
  while (true) {
    auto window = (*client)->Next();
    if (!window.ok()) {
      std::fprintf(stderr, "stream: %s\n",
                   window.status().ToString().c_str());
      return 1;
    }
    if (!window->has_value()) {
      break;  // terminal status frame
    }
    if (windows == 0) {
      ttfw_ms = watch.ElapsedSeconds() * 1e3;
    }
    ++windows;
    edges += static_cast<int64_t>((*window)->edges->size());
    if (csv.has_value() &&
        !csv->OnWindow((*window)->window_index, *(*window)->edges)) {
      std::fprintf(stderr, "%s\n", csv->status().ToString().c_str());
      return 1;
    }
  }
  if (csv.has_value()) {
    csv->OnFinish(Status::Ok());
    if (!csv->status().ok()) {
      std::fprintf(stderr, "%s\n", csv->status().ToString().c_str());
      return 1;
    }
  }
  const double total_ms = watch.ElapsedSeconds() * 1e3;

  const Status& verdict = (*client)->result_status();
  const WireSummary& summary = (*client)->summary();
  if (!verdict.ok()) {
    std::fprintf(stderr, "query: %s\n", verdict.ToString().c_str());
    return ExitCodeFor(verdict);
  }
  std::printf(
      "served %.3f ms by the %s tier%s over the wire; first window %.3f ms; "
      "%lld windows, %lld edges (prepare %s; %lld computed, %lld cached, "
      "%lld joined; %lld cells jumped in %lld jumps)\n",
      total_ms, std::string(ServeTierName(summary.tier_used)).c_str(),
      summary.degraded ? " (degraded)" : "", ttfw_ms,
      static_cast<long long>(windows), static_cast<long long>(edges),
      summary.prepared_from_cache ? "shared" : "built",
      static_cast<long long>(summary.windows_computed),
      static_cast<long long>(summary.windows_from_cache),
      static_cast<long long>(summary.windows_joined),
      static_cast<long long>(summary.cells_jumped),
      static_cast<long long>(summary.jumps));
  if (summary.windows_delivered != windows) {
    std::fprintf(stderr,
                 "frame accounting mismatch: server sent %lld windows, "
                 "client saw %lld\n",
                 static_cast<long long>(summary.windows_delivered),
                 static_cast<long long>(windows));
    return 1;
  }
  if (!out_path.empty()) {
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int RunEngine(int argc, char** argv) {
  if (argc < 7) {
    return Usage(argv[0]);
  }
  // Engine spec "name" or "name:options".
  const std::string engine_spec = argv[3];
  const size_t colon = engine_spec.find(':');
  const std::string engine_name = engine_spec.substr(0, colon);
  const std::string engine_options =
      colon == std::string::npos ? "" : engine_spec.substr(colon + 1);

  SlidingQuery query;
  std::string out_path;
  if (!ParseWindowArgs(argv, 4, &query) ||
      !ParseTrailingArgs(argc, argv, 7, &query, nullptr, &out_path)) {
    return 2;
  }

  Result<TimeSeriesMatrix> data = LoadData(argv[2]);
  if (!data.ok()) {
    std::fprintf(stderr, "load: %s\n", data.status().ToString().c_str());
    return 1;
  }
  query.start = 0;
  query.end = data->length();

  auto engine = CreateEngine(engine_name, engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("data: %lld series x %lld points; engine: %s; query: %s\n",
              static_cast<long long>(data->num_series()),
              static_cast<long long>(data->length()),
              (*engine)->name().c_str(), query.ToString().c_str());

  Stopwatch prepare_watch;
  if (Status status = (*engine)->Prepare(*data); !status.ok()) {
    std::fprintf(stderr, "prepare: %s\n", status.ToString().c_str());
    return 1;
  }
  const double prepare_seconds = prepare_watch.ElapsedSeconds();

  Stopwatch query_watch;
  auto result = (*engine)->Query(query);
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return ExitCodeFor(result.status());
  }
  const double query_seconds = query_watch.ElapsedSeconds();

  const EngineStats& stats = (*engine)->stats();
  std::printf("prepare %.3f s, query %.3f s; %lld windows, %lld edges "
              "(%lld/%lld cells evaluated, %lld jumped)\n",
              prepare_seconds, query_seconds,
              static_cast<long long>(result->num_windows()),
              static_cast<long long>(result->TotalEdges()),
              static_cast<long long>(stats.cells_evaluated),
              static_cast<long long>(stats.cells_total),
              static_cast<long long>(stats.cells_jumped));

  if (!out_path.empty()) {
    if (Status status = WriteSeriesCsv(*result, out_path); !status.ok()) {
      std::fprintf(stderr, "export: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int RunGenerate(int argc, char** argv) {
  if (argc > 8) {
    return Usage(argv[0]);
  }
  TomborgSpec spec;
  spec.num_series = 32;
  spec.length = 4096;
  int64_t seed = 2023;
  if ((argc > 2 && !ParseNumber<int64_t>("N", argv[2], 1, INT64_MAX,
                                         &spec.num_series)) ||
      (argc > 3 && !ParseNumber<int64_t>("L", argv[3], 1, INT64_MAX,
                                         &spec.length)) ||
      (argc > 6 && !ParseNumber("seed", argv[6], INT64_MIN, INT64_MAX,
                                &seed))) {
    return 2;
  }
  const std::string family = argc > 4 ? argv[4] : "uniform";
  const std::string envelope = argc > 5 ? argv[5] : "pink";
  const std::string output = argc > 7 ? argv[7] : "";
  const FamilyPreset* family_preset = FindPreset(kFamilyPresets, family);
  const EnvelopePreset* envelope_preset =
      FindPreset(kEnvelopePresets, envelope);
  if (family_preset == nullptr) {
    std::fprintf(stderr, "unknown family '%s' (known: %s)\n", family.c_str(),
                 PresetNames(kFamilyPresets).c_str());
    return 2;
  }
  if (envelope_preset == nullptr) {
    std::fprintf(stderr, "unknown envelope '%s' (known: %s)\n",
                 envelope.c_str(), PresetNames(kEnvelopePresets).c_str());
    return 2;
  }
  if (argc > 7 && output.empty()) {
    std::fprintf(stderr, "bad output path ''\n");
    return 2;
  }
  spec.correlation = family_preset->spec;
  spec.envelope = envelope_preset->envelope;
  spec.seed = static_cast<uint64_t>(seed);

  std::printf("generating %s ...\n", spec.ToString().c_str());
  auto dataset = GenerateTomborg(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  auto error = MeasureRealization(dataset->data, dataset->target);
  if (!error.ok()) {
    std::fprintf(stderr, "measure: %s\n", error.status().ToString().c_str());
    return 1;
  }
  std::printf("realization: max |sample - target| = %.4f, rms = %.4f\n",
              error->max_abs, error->rms);

  // A corner of the target (the matrix realized on the data) to eyeball.
  std::printf("target corner:\n");
  const int64_t show = std::min<int64_t>(5, spec.num_series);
  for (int64_t i = 0; i < show; ++i) {
    std::printf("  ");
    for (int64_t j = 0; j < show; ++j) {
      std::printf("%6.2f", dataset->target.At(i, j));
    }
    std::printf("\n");
  }

  if (output.empty()) {
    std::printf("no output path given; skipping export\n");
    return 0;
  }
  // Chosen by extension the same way LoadData reads it back.
  const Status status = EndsWith(output, ".dgrn")
                            ? SaveDataset(dataset->data, output)
                            : WriteCsv(dataset->data, output);
  if (!status.ok()) {
    std::fprintf(stderr, "write: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%lld series x %lld values)\n", output.c_str(),
              static_cast<long long>(spec.num_series),
              static_cast<long long>(spec.length));
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Usage(argv[0]);
  }
  const std::string_view command = argv[1];
  if (command == "serve") {
    return RunServe(argc, argv);
  }
  if (command == "query") {
    return RunQuery(argc, argv);
  }
  if (command == "route") {
    return RunRoute(argc, argv);
  }
  if (command == "run") {
    return RunEngine(argc, argv);
  }
  if (command == "generate") {
    return RunGenerate(argc, argv);
  }
  return Usage(argv[0]);
}

}  // namespace
}  // namespace dangoron

int main(int argc, char** argv) { return dangoron::Run(argc, argv); }
