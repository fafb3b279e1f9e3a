#include "engine/factory.h"

#include <cstdint>
#include <limits>
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

constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();
constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
// Largest cache budget in MiB whose byte count (mb << 20) fits in int64.
constexpr int64_t kMaxCacheMb = kInt64Max >> 20;

// Pops `key` as an integer in [lo, hi] into `out`; a value outside the
// range is an error rather than a truncation. The range must fit `Int`.
template <typename Int>
Status ConsumeInt(std::map<std::string, std::string>* options,
                  const std::string& key, int64_t lo, int64_t hi, Int* out) {
  return Consume(options, key, [&](const std::string& value) -> Status {
    ASSIGN_OR_RETURN(const int64_t parsed, ParseInt64(value));
    if (parsed < lo || parsed > hi) {
      return Status::InvalidArgument("option '", key, "' must be in [", lo,
                                     ", ", hi, "], got ", parsed);
    }
    *out = static_cast<Int>(parsed);
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
    RETURN_IF_ERROR(ConsumeInt(&options, "basic_window", 1, kInt64Max,
                               &engine_options.basic_window));
    RETURN_IF_ERROR(ConsumeInt(&options, "threads", 0, kInt32Max,
                               &engine_options.num_threads));
    RETURN_IF_ERROR(RejectLeftovers(options, name));
    return std::unique_ptr<CorrelationEngine>(
        new TsubasaEngine(engine_options));
  }

  if (name == "dangoron") {
    DangoronOptions engine_options;
    RETURN_IF_ERROR(ConsumeInt(&options, "basic_window", 1, kInt64Max,
                               &engine_options.basic_window));
    RETURN_IF_ERROR(ConsumeBool(&options, "jump",
                                &engine_options.enable_jumping));
    RETURN_IF_ERROR(ConsumeBool(&options, "above_jump",
                                &engine_options.enable_above_jumping));
    RETURN_IF_ERROR(ConsumeInt(&options, "max_jump", 0, kInt64Max,
                               &engine_options.max_jump_steps));
    RETURN_IF_ERROR(ConsumeInt(&options, "threads", 0, kInt32Max,
                               &engine_options.num_threads));
    RETURN_IF_ERROR(RejectLeftovers(options, name));
    return std::unique_ptr<CorrelationEngine>(
        new DangoronEngine(engine_options));
  }

  if (name == "parcorr") {
    ParCorrOptions engine_options;
    int64_t seed = static_cast<int64_t>(engine_options.seed);
    RETURN_IF_ERROR(ConsumeInt(&options, "dim", 1, kInt32Max,
                               &engine_options.sketch_dim));
    RETURN_IF_ERROR(ConsumeInt(&options, "seed", kInt64Min, kInt64Max, &seed));
    RETURN_IF_ERROR(ConsumeBool(&options, "verify",
                                &engine_options.verify_candidates));
    RETURN_IF_ERROR(Consume(&options, "margin", [&](const std::string& v) {
      ASSIGN_OR_RETURN(engine_options.candidate_margin, ParseDouble(v));
      return Status::Ok();
    }));
    RETURN_IF_ERROR(RejectLeftovers(options, name));
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
  int64_t sketch_cache_mb = server_options.sketch_cache_bytes >> 20;
  int64_t result_cache_mb = server_options.result_cache_bytes >> 20;
  RETURN_IF_ERROR(ConsumeInt(&options, "threads", 0, kInt32Max,
                             &server_options.num_threads));
  RETURN_IF_ERROR(ConsumeInt(&options, "basic_window", 1, kInt64Max,
                             &server_options.basic_window));
  RETURN_IF_ERROR(ConsumeInt(&options, "sketch_cache_mb", 0, kMaxCacheMb,
                             &sketch_cache_mb));
  RETURN_IF_ERROR(ConsumeInt(&options, "result_cache_mb", 0, kMaxCacheMb,
                             &result_cache_mb));
  RETURN_IF_ERROR(ConsumeBool(&options, "refuse_oversized",
                              &server_options.refuse_oversized_prepares));
  // 0 disables threshold-family cache keys.
  RETURN_IF_ERROR(ConsumeInt(&options, "threshold_steps", 0, kInt64Max,
                             &server_options.threshold_family_steps));
  RETURN_IF_ERROR(ConsumeInt(&options, "max_streams", 1, kInt64Max,
                             &server_options.max_concurrent_streams));
  RETURN_IF_ERROR(Consume(&options, "admission", [&](const std::string& v) {
    ASSIGN_OR_RETURN(server_options.admission, ParseAdmissionPolicy(v));
    return Status::Ok();
  }));
  RETURN_IF_ERROR(ConsumeInt(&options, "admission_queue", 1, kInt64Max,
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
  server_options.sketch_cache_bytes = sketch_cache_mb << 20;
  server_options.result_cache_bytes = result_cache_mb << 20;
  return std::make_unique<DangoronServer>(server_options);
}

}  // namespace dangoron
