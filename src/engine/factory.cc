#include "engine/factory.h"

#include <map>

#include "common/strings.h"
#include "engine/dangoron_engine.h"
#include "engine/naive_engine.h"
#include "engine/parcorr_engine.h"
#include "engine/tsubasa_engine.h"
#include "serve/server.h"

namespace dangoron {

namespace {

// Parses "a=1,b=on" into a key -> value map; empty text is an empty map.
Result<std::map<std::string, std::string>> ParseOptions(
    const std::string& text) {
  std::map<std::string, std::string> options;
  if (Trim(text).empty()) {
    return options;
  }
  for (const std::string& item : Split(text, ',')) {
    const std::vector<std::string> kv = Split(item, '=');
    if (kv.size() != 2 || Trim(kv[0]).empty()) {
      return Status::InvalidArgument("bad engine option '", item,
                                     "' (expected key=value)");
    }
    options[std::string(Trim(kv[0]))] = std::string(Trim(kv[1]));
  }
  return options;
}

Result<bool> ParseOnOff(const std::string& value) {
  if (value == "on" || value == "true" || value == "1") {
    return true;
  }
  if (value == "off" || value == "false" || value == "0") {
    return false;
  }
  return Status::InvalidArgument("expected on/off, got '", value, "'");
}

// Pops `key` from `options` applying `apply`; missing key is a no-op.
template <typename ApplyFn>
Status Consume(std::map<std::string, std::string>* options,
               const std::string& key, ApplyFn apply) {
  auto it = options->find(key);
  if (it == options->end()) {
    return Status::Ok();
  }
  RETURN_IF_ERROR(apply(it->second));
  options->erase(it);
  return Status::Ok();
}

Status ConsumeInt(std::map<std::string, std::string>* options,
                  const std::string& key, int64_t* out) {
  return Consume(options, key, [&](const std::string& value) {
    ASSIGN_OR_RETURN(*out, ParseInt64(value));
    return Status::Ok();
  });
}

Status ConsumeBool(std::map<std::string, std::string>* options,
                   const std::string& key, bool* out) {
  return Consume(options, key, [&](const std::string& value) {
    ASSIGN_OR_RETURN(*out, ParseOnOff(value));
    return Status::Ok();
  });
}

Status RejectLeftovers(const std::map<std::string, std::string>& options,
                       const std::string& engine) {
  if (!options.empty()) {
    return Status::InvalidArgument("unknown option '", options.begin()->first,
                                   "' for engine '", engine, "'");
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<CorrelationEngine>> CreateEngine(
    const std::string& name, const std::string& options_text) {
  // Note: the map type's comma defeats ASSIGN_OR_RETURN's macro parsing.
  auto options_or = ParseOptions(options_text);
  if (!options_or.ok()) {
    return options_or.status();
  }
  std::map<std::string, std::string> options = std::move(*options_or);

  if (name == "naive") {
    RETURN_IF_ERROR(RejectLeftovers(options, name));
    return std::unique_ptr<CorrelationEngine>(new NaiveEngine());
  }

  if (name == "tsubasa") {
    TsubasaOptions engine_options;
    int64_t basic_window = engine_options.basic_window;
    int64_t threads = engine_options.num_threads;
    RETURN_IF_ERROR(ConsumeInt(&options, "basic_window", &basic_window));
    RETURN_IF_ERROR(ConsumeInt(&options, "threads", &threads));
    RETURN_IF_ERROR(RejectLeftovers(options, name));
    engine_options.basic_window = basic_window;
    engine_options.num_threads = static_cast<int>(threads);
    return std::unique_ptr<CorrelationEngine>(
        new TsubasaEngine(engine_options));
  }

  if (name == "dangoron") {
    DangoronOptions engine_options;
    int64_t basic_window = engine_options.basic_window;
    int64_t max_jump = engine_options.max_jump_steps;
    int64_t pivots = engine_options.num_pivots;
    int64_t threads = engine_options.num_threads;
    RETURN_IF_ERROR(ConsumeInt(&options, "basic_window", &basic_window));
    RETURN_IF_ERROR(ConsumeBool(&options, "jump",
                                &engine_options.enable_jumping));
    RETURN_IF_ERROR(ConsumeBool(&options, "above_jump",
                                &engine_options.enable_above_jumping));
    RETURN_IF_ERROR(ConsumeInt(&options, "max_jump", &max_jump));
    RETURN_IF_ERROR(ConsumeBool(&options, "horizontal",
                                &engine_options.horizontal_pruning));
    RETURN_IF_ERROR(ConsumeInt(&options, "pivots", &pivots));
    RETURN_IF_ERROR(ConsumeInt(&options, "threads", &threads));
    RETURN_IF_ERROR(RejectLeftovers(options, name));
    engine_options.basic_window = basic_window;
    engine_options.max_jump_steps = max_jump;
    engine_options.num_pivots = static_cast<int32_t>(pivots);
    engine_options.num_threads = static_cast<int32_t>(threads);
    return std::unique_ptr<CorrelationEngine>(
        new DangoronEngine(engine_options));
  }

  if (name == "parcorr") {
    ParCorrOptions engine_options;
    int64_t dim = engine_options.sketch_dim;
    int64_t seed = static_cast<int64_t>(engine_options.seed);
    RETURN_IF_ERROR(ConsumeInt(&options, "dim", &dim));
    RETURN_IF_ERROR(ConsumeInt(&options, "seed", &seed));
    RETURN_IF_ERROR(ConsumeBool(&options, "verify",
                                &engine_options.verify_candidates));
    RETURN_IF_ERROR(Consume(&options, "margin", [&](const std::string& v) {
      ASSIGN_OR_RETURN(engine_options.candidate_margin, ParseDouble(v));
      return Status::Ok();
    }));
    RETURN_IF_ERROR(RejectLeftovers(options, name));
    engine_options.sketch_dim = static_cast<int32_t>(dim);
    engine_options.seed = static_cast<uint64_t>(seed);
    return std::unique_ptr<CorrelationEngine>(
        new ParCorrEngine(engine_options));
  }

  return Status::NotFound("unknown engine '", name, "'; known: ",
                          KnownEngineNames());
}

std::string KnownEngineNames() { return "naive, tsubasa, dangoron, parcorr"; }

Result<std::unique_ptr<DangoronServer>> CreateServer(
    const std::string& options_text) {
  auto options_or = ParseOptions(options_text);
  if (!options_or.ok()) {
    return options_or.status();
  }
  std::map<std::string, std::string> options = std::move(*options_or);

  DangoronServerOptions server_options;
  int64_t threads = server_options.num_threads;
  int64_t sketch_cache_mb = server_options.sketch_cache_bytes >> 20;
  int64_t result_cache_mb = server_options.result_cache_bytes >> 20;
  RETURN_IF_ERROR(ConsumeInt(&options, "threads", &threads));
  RETURN_IF_ERROR(
      ConsumeInt(&options, "basic_window", &server_options.basic_window));
  RETURN_IF_ERROR(ConsumeInt(&options, "sketch_cache_mb", &sketch_cache_mb));
  RETURN_IF_ERROR(ConsumeInt(&options, "result_cache_mb", &result_cache_mb));
  RETURN_IF_ERROR(ConsumeBool(&options, "refuse_oversized",
                              &server_options.refuse_oversized_prepares));
  RETURN_IF_ERROR(ConsumeInt(&options, "threshold_steps",
                             &server_options.threshold_family_steps));
  RETURN_IF_ERROR(ConsumeInt(&options, "max_streams",
                             &server_options.max_concurrent_streams));
  RETURN_IF_ERROR(Consume(&options, "admission", [&](const std::string& v) {
    ASSIGN_OR_RETURN(server_options.admission, ParseAdmissionPolicy(v));
    return Status::Ok();
  }));
  RETURN_IF_ERROR(ConsumeInt(&options, "admission_queue",
                             &server_options.admission_queue_limit));
  RETURN_IF_ERROR(Consume(&options, "default_tier", [&](const std::string& v) {
    ASSIGN_OR_RETURN(server_options.default_tier, ParseServeTier(v));
    return Status::Ok();
  }));
  RETURN_IF_ERROR(Consume(&options, "degrade", [&](const std::string& v) {
    ASSIGN_OR_RETURN(server_options.degrade, ParseDegradePolicy(v));
    return Status::Ok();
  }));
  RETURN_IF_ERROR(RejectLeftovers(options, "server"));
  if (threads < 0) {
    return Status::InvalidArgument("server: threads must be >= 0, got ",
                                   threads);
  }
  if (server_options.basic_window <= 0) {
    return Status::InvalidArgument("server: basic_window must be > 0, got ",
                                   server_options.basic_window);
  }
  if (sketch_cache_mb < 0 || result_cache_mb < 0) {
    return Status::InvalidArgument("server: cache budgets must be >= 0");
  }
  if (server_options.threshold_family_steps < 0) {
    return Status::InvalidArgument(
        "server: threshold_steps must be >= 0 (0 disables family keys), got ",
        server_options.threshold_family_steps);
  }
  if (server_options.max_concurrent_streams <= 0) {
    return Status::InvalidArgument("server: max_streams must be > 0, got ",
                                   server_options.max_concurrent_streams);
  }
  if (server_options.admission_queue_limit <= 0) {
    return Status::InvalidArgument(
        "server: admission_queue must be > 0, got ",
        server_options.admission_queue_limit);
  }
  server_options.num_threads = static_cast<int32_t>(threads);
  server_options.sketch_cache_bytes = sketch_cache_mb << 20;
  server_options.result_cache_bytes = result_cache_mb << 20;
  return std::make_unique<DangoronServer>(server_options);
}

}  // namespace dangoron
