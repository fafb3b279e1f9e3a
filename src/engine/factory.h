#ifndef DANGORON_ENGINE_FACTORY_H_
#define DANGORON_ENGINE_FACTORY_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "engine/correlation_engine.h"

namespace dangoron {

// Declared only: engine-only users (CLI tools, benches) should not compile
// the serving stack. Callers of CreateServer include serve/server.h.
class DangoronServer;

/// Constructs an engine by name with `key=value` options — the wiring for
/// CLI tools and config-driven benchmark harnesses.
///
/// Names: "naive", "tsubasa", "dangoron", "parcorr".
/// Options (comma separated; unknown keys and integers outside their range
/// are errors):
///   naive:     (none)
///   tsubasa:   basic_window=<int >= 1>, threads=<int in [0, 2^31 - 1]>
///   dangoron:  basic_window=<int >= 1>, jump=<on|off>, above_jump=<on|off>,
///              max_jump=<int >= 0, 0 = unbounded>,
///              threads=<int in [0, 2^31 - 1]>
///   parcorr:   dim=<int in [1, 2^31 - 1]>, seed=<int>, verify=<on|off>,
///              margin=<double>
/// An engine runs serially at threads=0 or 1.
///
/// Example: CreateEngine("dangoron", "basic_window=24,jump=on,max_jump=4").
Result<std::unique_ptr<CorrelationEngine>> CreateEngine(
    const std::string& name, const std::string& options_text = "");

/// Names accepted by CreateEngine, for help text.
std::string KnownEngineNames();

/// Constructs a DangoronServer from `key=value` options — the wiring for
/// deployments that configure the serving layer from a flag or config file.
///
/// Options (comma separated; unknown keys and integers outside their range
/// are errors):
///   threads=<int>            worker threads in [0, 2^31 - 1]
///                            (0 = hardware concurrency)
///   basic_window=<int>       prepare granularity, >= 1
///   sketch_cache_mb=<int>    prepared-sketch LRU budget in MiB, in
///                            [0, 2^43 - 1] so the byte count fits int64
///   result_cache_mb=<int>    window-result cache budget in MiB, same range
///   refuse_oversized=<on|off> admission policy: refuse prepares whose
///                            estimated footprint exceeds the sketch budget
///   threshold_steps=<int>    threshold-family grid divisions per unit for
///                            window cache keys, >= 0 (0 = exact-match keys)
///   max_streams=<int>        cap on concurrent streaming submissions, >= 1
///   admission=<refuse|queue> default admission policy
///   admission_queue=<int>    cap on parked prepares in the admission
///                            queue, >= 1
///   default_tier=<exact|approx|auto> tier of requests that set none
///   degrade=<off|auto>       default degradation policy
///
/// Example: CreateServer("threads=8,basic_window=24,sketch_cache_mb=512").
Result<std::unique_ptr<DangoronServer>> CreateServer(
    const std::string& options_text = "");

}  // namespace dangoron

#endif  // DANGORON_ENGINE_FACTORY_H_
