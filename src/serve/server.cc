#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "corr/sweep_kernel.h"
#include "engine/dangoron_engine.h"
#include "sketch/basic_window_index.h"

namespace dangoron {

void FulfillWindowClaim(const WindowClaimPtr& claim, WindowEdges edges) {
  {
    MutexLock lock(claim->waker.m);
    claim->done = true;
    claim->edges = std::move(edges);
  }
  claim->waker.cv.NotifyAll();
}

WindowEdges WaitForWindowClaim(const WindowClaimPtr& claim,
                               WindowStreamState* stream, bool* cancelled,
                               const DeadlineToken& deadline,
                               bool* deadline_hit) {
  *cancelled = false;
  if (deadline_hit != nullptr) {
    *deadline_hit = false;
  }
  // Alias the waker to the claim so the registration keeps it alive even if
  // the claimant retires the claim while we sleep.
  stream->AddCancelWaker(std::shared_ptr<CancelWaker>(claim, &claim->waker));
  WindowEdges edges;
  {
    MutexLock lock(claim->waker.m);
    // The wait condition reads the stream's cancel flag under the waker's
    // lock; Cancel() notifies through that lock (see CancelWaker), so the
    // wait wakes on fulfillment *or* cancellation, whichever is first — and
    // a deadline bounds the sleep (no extra wake machinery: the foreign
    // claimant owes us nothing at our deadline). A WaitUntil timeout breaks
    // out; the classification below still prefers a fulfillment or
    // cancellation that raced in just ahead of it.
    while (!claim->done && !stream->cancelled()) {
      if (!deadline.has_deadline()) {
        claim->waker.cv.Wait(claim->waker.m);
      } else if (claim->waker.cv.WaitUntil(claim->waker.m,
                                           deadline.deadline())) {
        break;
      }
    }
    if (claim->done) {
      edges = claim->edges;
    } else if (stream->cancelled()) {
      *cancelled = true;
    } else {
      // Neither fulfilled nor cancelled: the deadline bounded the wait.
      if (deadline_hit != nullptr) {
        *deadline_hit = true;
      }
    }
  }
  stream->RemoveCancelWaker(&claim->waker);
  return edges;
}

namespace {

// Bridges the exact engine's native window emission into a callback; the
// callback returns false to cancel the producing query.
class CallbackWindowSink final : public WindowSink {
 public:
  explicit CallbackWindowSink(
      std::function<bool(int64_t, std::vector<Edge>)> on_window)
      : on_window_(std::move(on_window)) {}

  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override {
    return on_window_(window_index, std::move(edges));
  }

 private:
  std::function<bool(int64_t, std::vector<Edge>)> on_window_;
};

// The evaluation mode of the serving layer: exact incremental — a window's
// edge set must not depend on the query range it was computed for, or
// cross-query reuse would change results.
DangoronOptions ServingEngineOptions(int64_t basic_window) {
  DangoronOptions options;
  options.basic_window = basic_window;
  options.enable_jumping = false;
  options.horizontal_pruning = false;
  return options;
}

// Cache keys and the family machinery compare thresholds by bit pattern.
bool SameThresholdBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Seed of the exact-cost ns/cell estimate behind kAuto: deliberately
// pessimistic (the measured sweep runs well under 1 ns/cell at scale) so a
// fresh server facing a tight deadline picks the approx tier — the
// latency-safe error — until warm exact queries teach it the real rate.
constexpr double kExactCostSeedNsPerCell = 50.0;

// EWMA weight of a new warm-query ns/cell observation.
constexpr double kExactCostAlpha = 0.3;

// Bounded retry of transient prepare failures: attempts beyond the first,
// with jittered exponential backoff (1, 2, 4 ms nominal) capped by the
// request's remaining deadline.
constexpr int kPrepareMaxRetries = 3;

// A transient prepare failure worth retrying. ResourceExhausted is
// deliberately absent: backoff cannot free a byte budget, and the
// degradation path wants to see it promptly.
bool PrepareRetryable(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kInternal;
}

// Filters a family-threshold edge set down to `query`'s exact threshold.
// Sound because the family threshold is <= the query's, so the cached set
// is a superset whose values are threshold-independent (exact evaluation).
std::vector<Edge> FilterEdges(const std::vector<Edge>& edges,
                              const SlidingQuery& query) {
  std::vector<Edge> out;
  out.reserve(edges.size());
  for (const Edge& edge : edges) {
    if (query.IsEdge(edge.value)) {
      out.push_back(edge);
    }
  }
  return out;
}

}  // namespace

DangoronServer::DangoronServer(const DangoronServerOptions& options)
    : options_(options),
      sketch_cache_(options.sketch_cache_bytes),
      result_cache_(options.result_cache_bytes),
      admission_queue_(&sketch_cache_, options.admission_queue_limit),
      exact_cell_ns_(kExactCostSeedNsPerCell),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {
  // Insertions that evict sketches free budget a parked prepare may now
  // claim (the listener fires outside the cache lock — see LruByteCache).
  sketch_cache_.SetEvictionListener([this] {
    admission_queue_.NotifyReleased();
  });
}

DangoronServer::~DangoronServer() {
  // Cancel live streams, then join their producer threads: a producer
  // blocked on a consumer that will never drain wakes on Cancel, fulfills
  // its claims, finishes its stream, and exits.
  std::vector<ActiveStream> streams;
  {
    MutexLock lock(streams_mutex_);
    streams.swap(active_streams_);
  }
  for (ActiveStream& stream : streams) {
    if (std::shared_ptr<WindowStreamState> state = stream.state.lock()) {
      state->Cancel();
    }
    if (stream.producer.joinable()) {
      stream.producer.join();
    }
  }
  // Fail every parked (and future) admission wait: a queued prepare whose
  // budget will never free must not hold the pool drain below hostage.
  admission_queue_.Shutdown();
  // Drain before member teardown begins: in-flight query tasks schedule
  // ParallelFor helpers on the pool, which the pool's own destructor (it
  // runs with shutdown already flagged) would refuse. Wait() covers those
  // helpers too — a task registers them before it completes, so the
  // in-flight count stays nonzero until the whole query is done.
  pool_->Wait();
}

Status DangoronServer::AddDataset(
    const std::string& name, std::shared_ptr<const TimeSeriesMatrix> data) {
  if (name.empty()) {
    return Status::InvalidArgument("AddDataset: empty name");
  }
  if (data == nullptr || data->empty()) {
    return Status::InvalidArgument("AddDataset: empty dataset '", name, "'");
  }
  if (data->CountMissing() > 0) {
    return Status::FailedPrecondition(
        "AddDataset: dataset '", name,
        "' contains missing values; run InterpolateMissing first");
  }
  if (data->length() < options_.basic_window) {
    return Status::InvalidArgument(
        "AddDataset: dataset '", name, "' has length ", data->length(),
        ", shorter than one basic window of ", options_.basic_window);
  }
  RegisteredDataset registered;
  registered.fingerprint = data->ContentFingerprint();
  registered.data = std::move(data);
  MutexLock lock(datasets_mutex_);
  datasets_[name] = std::move(registered);
  return Status::Ok();
}

Status DangoronServer::AddDataset(const std::string& name,
                                  TimeSeriesMatrix data) {
  return AddDataset(name,
                    std::make_shared<const TimeSeriesMatrix>(std::move(data)));
}

Result<uint64_t> DangoronServer::DatasetFingerprint(
    const std::string& name) const {
  MutexLock lock(datasets_mutex_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("DatasetFingerprint: unknown dataset '", name,
                            "'");
  }
  return it->second.fingerprint;
}

Result<int64_t> DangoronServer::DatasetLength(const std::string& name) const {
  MutexLock lock(datasets_mutex_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("DatasetLength: unknown dataset '", name, "'");
  }
  return it->second.data->length();
}

bool DangoronServer::HasPreparedSketch(const std::string& dataset) const {
  uint64_t fingerprint = 0;
  {
    MutexLock lock(datasets_mutex_);
    auto it = datasets_.find(dataset);
    if (it == datasets_.end()) {
      return false;
    }
    fingerprint = it->second.fingerprint;
  }
  return sketch_cache_.Contains(
      SketchCacheKey{fingerprint, options_.basic_window});
}

bool DangoronServer::StartsWarm(const QueryRequest& request) const {
  if (HasPreparedSketch(request.dataset)) {
    return true;
  }
  if (request.options.tier.value_or(options_.default_tier) ==
      ServeTier::kApprox) {
    return false;  // the approx tier never reads the window cache
  }
  uint64_t fingerprint = 0;
  {
    MutexLock lock(datasets_mutex_);
    auto it = datasets_.find(request.dataset);
    if (it == datasets_.end()) {
      return false;
    }
    fingerprint = it->second.fingerprint;
  }
  const SlidingQuery& query = request.query;
  return result_cache_.Contains(QueryWindowKey(
      fingerprint, options_.basic_window, query, 0,
      CanonicalThreshold(query.threshold, query.absolute)));
}

double DangoronServer::CanonicalThreshold(double threshold,
                                          bool absolute) const {
  const int64_t steps = options_.threshold_family_steps;
  if (steps <= 0) {
    return threshold;
  }
  // Snap down to the grid. The epsilon absorbs products like 0.7 * 20 =
  // 13.999999999999998 landing a hair under their grid point; the guard
  // keeps the invariant canonical <= threshold when the epsilon overshoots
  // (a threshold just *below* a grid point must not snap up past it —
  // filtering only removes edges, so the cached set has to be a superset).
  const double steps_d = static_cast<double>(steps);
  double grid = std::floor(threshold * steps_d + 1e-7);
  double canonical = grid / steps_d;
  if (canonical > threshold) {
    canonical = (grid - 1.0) / steps_d;
  }
  // Never snap across a density cliff. At the accept-everything threshold
  // (0 in absolute mode, -1 otherwise) a family window is a full
  // n*(n-1)/2 clique; and in non-absolute mode, snapping a small positive
  // threshold to 0 caches the c >= 0 half-clique (~half of all pairs on
  // uncorrelated data) to answer a query that keeps almost none of it.
  // Below the bottom useful grid step, fall back to exact-match keys.
  const double accept_all = absolute ? 0.0 : -1.0;
  if (canonical <= accept_all && threshold > accept_all) {
    return threshold;
  }
  if (!absolute && threshold > 0.0 && canonical <= 0.0) {
    return threshold;
  }
  return std::max(canonical, accept_all);
}

Result<DangoronServer::RequestContext> DangoronServer::ResolveRequest(
    const QueryRequest& request, const char* api) const {
  if (Status valid = request.Validate(); !valid.ok()) {
    return Status(valid.code(), std::string(api) + ": " + valid.message());
  }
  RequestContext ctx;
  {
    MutexLock lock(datasets_mutex_);
    auto it = datasets_.find(request.dataset);
    if (it == datasets_.end()) {
      return Status::NotFound(api, ": unknown dataset '", request.dataset,
                              "'");
    }
    ctx.data = it->second.data;
    ctx.fingerprint = it->second.fingerprint;
  }
  ctx.query = request.query;
  ctx.tier = request.options.tier.value_or(options_.default_tier);
  ctx.admission = request.options.admission.value_or(options_.admission);
  ctx.degrade = request.options.degrade.value_or(options_.degrade);
  ctx.deadline = DeadlineToken(RequestDeadline(request.options));
  ctx.max_batch_windows = request.options.max_batch_windows;
  return ctx;
}

ServeTier DangoronServer::ResolveTier(const RequestContext& ctx) const {
  if (ctx.tier != ServeTier::kAuto) {
    return ctx.tier;
  }
  if (!ctx.deadline.has_deadline()) {
    return ServeTier::kExact;  // no latency pressure: reuse-friendly exact
  }
  if (!ctx.query.Validate(ctx.data->length()).ok()) {
    // An invalid query must not reach the cost estimate: a bogus range
    // (e.g. end = 2^50) would make its per-window probe loop effectively
    // unbounded. Route to exact — the plan rejects it with the real error.
    return ServeTier::kExact;
  }
  return EstimateExactCostMs(ctx) > ctx.deadline.remaining_ms()
             ? ServeTier::kApprox
             : ServeTier::kExact;
}

double DangoronServer::EstimateExactCostMs(const RequestContext& ctx) const {
  const int64_t num_series = ctx.data->num_series();
  const SlidingQuery& query = ctx.query;
  // Discount windows the result cache already holds: a warm range is a
  // near-free exact answer and must not be routed to approx just because
  // the full recompute would miss the deadline. Contains() probes are
  // read-only (no recency bump), one hashtable lookup per window —
  // negligible next to either tier's evaluation. An unaligned query gets
  // no discount (it is about to fail validation anyway).
  const int64_t b = options_.basic_window;
  int64_t windows_to_price = query.NumWindows();
  if (query.start % b == 0 && query.window % b == 0 && query.step % b == 0 &&
      windows_to_price > 0) {
    const double canonical =
        CanonicalThreshold(query.threshold, query.absolute);
    int64_t cached = 0;
    for (int64_t k = 0; k < query.NumWindows(); ++k) {
      if (result_cache_.Contains(
              QueryWindowKey(ctx.fingerprint, b, query, k, canonical))) {
        ++cached;
      }
    }
    windows_to_price -= cached;
  }
  // A pair-range restriction (sharding) shrinks the evaluated slice; price
  // what this shard will actually sweep, not the whole clique.
  const auto [pair_lo, pair_hi] =
      query.PairRange(num_series * (num_series - 1) / 2);
  const double pairs = static_cast<double>(pair_hi - pair_lo);
  const double cells = pairs * static_cast<double>(windows_to_price);
  double cell_ns;
  {
    MutexLock lock(stats_mutex_);
    cell_ns = exact_cell_ns_;
  }
  return cells * cell_ns / 1e6;
}

int64_t DangoronServer::EstimatePrepareBytes(
    const TimeSeriesMatrix& data) const {
  BasicWindowIndexOptions index_options;
  index_options.basic_window = options_.basic_window;
  return BasicWindowIndex::EstimateMemoryBytes(data.num_series(),
                                               data.length(), index_options) +
         static_cast<int64_t>(data.values().size() * sizeof(double));
}

Status DangoronServer::CheckQueryAligned(const SlidingQuery& query) const {
  const int64_t b = options_.basic_window;
  if (query.start % b != 0 || query.window % b != 0 || query.step % b != 0) {
    return Status::InvalidArgument(
        "DangoronServer: query start/window/step must be multiples of the "
        "server basic window ",
        b, " (got start=", query.start, " window=", query.window,
        " step=", query.step, ")");
  }
  return Status::Ok();
}

int64_t DangoronServer::EstimateStreamBytes(const RequestContext& ctx) const {
  return DangoronEngine::EstimateStreamBytes(
      ctx.data->num_series(), ctx.data->length(),
      ServingEngineOptions(options_.basic_window), ctx.query);
}

Status DangoronServer::CheckCoverage(const SlidingQuery& query,
                                     const TimeSeriesMatrix& data) const {
  const int64_t b = options_.basic_window;
  const int64_t last_needed_bw =
      query.start / b + (query.NumWindows() - 1) * (query.step / b) +
      query.window / b;
  const int64_t indexed = data.length() / b;
  if (last_needed_bw > indexed) {
    return Status::OutOfRange(
        "DangoronServer: query needs basic windows up to ", last_needed_bw,
        " but only ", indexed, " are indexed");
  }
  return Status::Ok();
}

std::future<Result<ServeResult>> DangoronServer::Submit(
    const QueryRequest& request) {
  Result<RequestContext> ctx = ResolveRequest(request, "Submit");
  if (!ctx.ok()) {
    RecordQueryStats(StreamingSummary{});
    std::promise<Result<ServeResult>> failed;
    failed.set_value(ctx.status());
    return failed.get_future();
  }
  return pool_->Async([this, ctx = std::move(*ctx)]() -> Result<ServeResult> {
    // Room for every window, so no push can ever block this compute thread
    // (and so no consumer pace reaches the pipeline); collected once the
    // stream finished.
    WindowStreamState collected(ctx.query.NumWindows());
    RunStreamingQuery(ctx, &collected);
    RETURN_IF_ERROR(collected.status());
    ServeResult result;
    static_cast<StreamingSummary&>(result) = collected.summary();
    result.series = CorrelationMatrixSeries(ctx.query, ctx.data->num_series());
    for (const StreamedWindow& window : collected.TakeAll()) {
      *result.series.MutableWindow(window.window_index) = *window.edges;
    }
    return result;
  });
}

std::unique_ptr<WindowStream> DangoronServer::SubmitStreaming(
    const QueryRequest& request) {
  auto state = std::make_shared<WindowStreamState>(
      request.options.queue_capacity);
  Result<RequestContext> resolved = ResolveRequest(request, "SubmitStreaming");
  if (!resolved.ok()) {
    RecordQueryStats(StreamingSummary{});
    state->Finish(resolved.status(), StreamingSummary{});
    return std::make_unique<WindowStream>(std::move(state));
  }
  // The producer gets a dedicated thread, not a pool task: delivery blocks
  // on the consumer by design (backpressure), and blocking must never pin a
  // compute thread (a 1-thread pool would otherwise wedge under
  // submit-stream, query, drain). Pair-tile evaluation inside still runs
  // on the shared pool. Threads are admission-capped and reaped here.
  {
    MutexLock lock(streams_mutex_);
    // Reap producers whose stream already finished (join is then
    // instantaneous), and keep the live ones. A plain loop, not erase_if:
    // joining the thread is a side effect the remove_if predicate contract
    // does not allow.
    std::vector<ActiveStream> live;
    live.reserve(active_streams_.size() + 1);
    for (ActiveStream& active : active_streams_) {
      const std::shared_ptr<WindowStreamState> stream_state =
          active.state.lock();
      if (stream_state != nullptr && !stream_state->finished()) {
        live.push_back(std::move(active));
      } else if (active.producer.joinable()) {
        active.producer.join();
      }
    }
    active_streams_ = std::move(live);
    if (static_cast<int64_t>(active_streams_.size()) >=
        options_.max_concurrent_streams) {
      RecordQueryStats(StreamingSummary{});
      state->Finish(
          Status::ResourceExhausted(
              "SubmitStreaming: ", active_streams_.size(),
              " streams already live (max_concurrent_streams = ",
              options_.max_concurrent_streams,
              "); drain or cancel existing streams first"),
          StreamingSummary{});
      return std::make_unique<WindowStream>(std::move(state));
    }
    std::thread producer([this, ctx = std::move(*resolved), state] {
      RunStreamingQuery(ctx, state.get());
    });
    active_streams_.push_back(ActiveStream{std::move(producer), state});
  }
  return std::make_unique<WindowStream>(std::move(state));
}

Result<ServeResult> DangoronServer::Query(const QueryRequest& request) {
  return Submit(request).get();
}

Result<bool> DangoronServer::AdmitBuild(
    int64_t estimate, const SketchCacheKey& key, AdmissionPolicy admission,
    const DeadlineToken& deadline, WindowStreamState* stream,
    std::shared_ptr<const PreparedDataset>* landed) {
  if (admission == AdmissionPolicy::kQueue) {
    // Reserve budget — reclaiming idle LRU entries, else parking until
    // evictions or released handles free enough, the deadline passes, or
    // the stream cancels.
    const Status admitted = admission_queue_.Admit(
        estimate, key, deadline.deadline(), stream,
        [this] {
          // At park time, not on return: stats must show a request that is
          // *currently* parked.
          MutexLock lock(stats_mutex_);
          ++stats_.prepares_queued;
        },
        landed);
    if (!admitted.ok()) {
      MutexLock lock(stats_mutex_);
      if (admitted.code() == StatusCode::kResourceExhausted) {
        ++stats_.prepares_refused;
      } else if (admitted.code() == StatusCode::kDeadlineExceeded) {
        ++stats_.deadline_exceeded;
      }
      return admitted;
    }
    return *landed == nullptr;
  }
  // The refuse policy rejects what can never fit the budget up front from
  // the closed-form estimate (gated on refuse_oversized_prepares).
  if (options_.refuse_oversized_prepares &&
      estimate > sketch_cache_.byte_budget()) {
    {
      MutexLock lock(stats_mutex_);
      ++stats_.prepares_refused;
    }
    return Status::ResourceExhausted(
        "DangoronServer: prepare refused by admission policy — estimated ",
        estimate, " bytes exceeds the sketch-cache budget of ",
        sketch_cache_.byte_budget(), " bytes");
  }
  return false;
}

template <typename T>
Result<T> DangoronServer::BuildWithRetries(
    uint64_t fingerprint, const DeadlineToken& deadline,
    WindowStreamState* stream, const std::function<Result<T>()>& build_once) {
  // The failpoint fires first so injected faults take the same
  // retry/failure path a real build fault would.
  auto attempt = [&]() -> Result<T> {
    DANGORON_FAILPOINT("serve.prepare");
    return build_once();
  };
  Result<T> built = attempt();
  int retries = 0;
  // Deterministic jitter: no wall-clock seeding (a per-process counter
  // varies the stream across requests), and the nominal 1/2/4 ms backoff
  // is scaled by [0.5, 1.5) then clipped to the remaining deadline.
  static std::atomic<uint64_t> retry_seq{0};
  Rng jitter(fingerprint ^ (retry_seq.fetch_add(1) + 0x9e3779b97f4a7c15ull));
  while (!built.ok() && PrepareRetryable(built.status()) &&
         retries < kPrepareMaxRetries && !deadline.expired() &&
         !stream->cancelled()) {
    ++retries;
    double backoff_ms = static_cast<double>(int64_t{1} << (retries - 1)) *
                        (0.5 + jitter.NextDouble());
    if (deadline.has_deadline()) {
      backoff_ms = std::min(backoff_ms, std::max(0.0, deadline.remaining_ms()));
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    built = attempt();
  }
  if (retries > 0) {
    MutexLock lock(stats_mutex_);
    stats_.prepare_retries += retries;
  }
  return built;
}

Status DangoronServer::OpenExactSource(const RequestContext& ctx,
                                       WindowStreamState* stream,
                                       ExactSource* source,
                                       StreamingSummary* out) {
  const SketchCacheKey key{ctx.fingerprint, options_.basic_window};
  // A resident full sketch (built by an approx query) serves the exact
  // sweep too — the cache state decides, no option does.
  if (auto cached = sketch_cache_.Get(key)) {
    source->resident = std::move(cached);
    MutexLock lock(stats_mutex_);
    ++stats_.prepares_shared;
    return Status::Ok();
  }
  // Otherwise band-stream: the panels plus the ring slab are a transient
  // working set, admitted like a build and released when the plan ends.
  const int64_t estimate = EstimateStreamBytes(ctx);
  std::shared_ptr<const PreparedDataset> landed;
  ASSIGN_OR_RETURN(const bool reserved,
                   AdmitBuild(estimate, key, ctx.admission, ctx.deadline,
                              stream, &landed));
  if (landed != nullptr) {
    source->resident = std::move(landed);
    MutexLock lock(stats_mutex_);
    ++stats_.prepares_shared;
    return Status::Ok();
  }
  if (reserved) {
    source->reservation_queue = &admission_queue_;
    source->reservation_bytes = estimate;
  }
  const DangoronOptions engine_options =
      ServingEngineOptions(options_.basic_window);
  Result<BandStreamedSketch> created = BuildWithRetries<BandStreamedSketch>(
      ctx.fingerprint, ctx.deadline, stream, [&] {
        return DangoronEngine::CreateStream(*ctx.data, engine_options,
                                            ctx.query, pool_.get());
      });
  RETURN_IF_ERROR(created.status());
  source->streamed.emplace(std::move(*created));
  out->prepared_from_cache = false;
  MutexLock lock(stats_mutex_);
  ++stats_.prepares_built;
  return Status::Ok();
}

Result<std::shared_ptr<const PreparedDataset>> DangoronServer::GetOrPrepare(
    std::shared_ptr<const TimeSeriesMatrix> data, uint64_t fingerprint,
    AdmissionPolicy admission, const DeadlineToken& deadline,
    WindowStreamState* stream, bool* shared) {
  const SketchCacheKey key{fingerprint, options_.basic_window};
  if (auto cached = sketch_cache_.Get(key)) {
    *shared = true;
    MutexLock lock(stats_mutex_);
    ++stats_.prepares_shared;
    return cached;
  }

  // Join an already-admitted in-flight build before any admission check:
  // joining costs no budget, so it must never park or refuse.
  {
    std::shared_future<std::shared_ptr<const PreparedDataset>> join;
    {
      MutexLock lock(inflight_mutex_);
      auto it = inflight_prepares_.find(key);
      if (it != inflight_prepares_.end()) {
        join = it->second;
      }
    }
    if (join.valid()) {
      if (auto prepared = join.get()) {
        *shared = true;
        MutexLock lock(stats_mutex_);
        ++stats_.prepares_shared;
        return prepared;
      }
      // The producer's build failed; fall through to admission + own build.
    }
  }

  // Admission control. An index that can never fit the budget would be
  // built only to be evicted on insertion (and would flush every warm
  // sketch's LRU position on its way through the build's memory pressure);
  // one that fits the budget but not the currently *free* budget would
  // thrash warm sketches pinned by in-flight queries (see AdmitBuild).
  const int64_t estimate = EstimatePrepareBytes(*data);
  std::shared_ptr<const PreparedDataset> landed;
  ASSIGN_OR_RETURN(const bool queued_reservation,
                   AdmitBuild(estimate, key, admission, deadline, stream,
                              &landed));
  if (landed != nullptr) {
    // A concurrent build published this sketch while we waited; the
    // queue admitted through the cache with no reservation taken.
    *shared = true;
    MutexLock lock(stats_mutex_);
    ++stats_.prepares_shared;
    return landed;
  }
  // From here every return path under a queued admission must Release the
  // reservation: once the built entry is Put (its bytes then count against
  // the cache), the build failed, or we joined another build after all.
  std::promise<std::shared_ptr<const PreparedDataset>> promise;
  std::shared_future<std::shared_ptr<const PreparedDataset>> join;
  bool producer = false;
  {
    MutexLock lock(inflight_mutex_);
    auto it = inflight_prepares_.find(key);
    if (it != inflight_prepares_.end()) {
      join = it->second;
    } else {
      producer = true;
      inflight_prepares_.emplace(key, promise.get_future().share());
    }
  }

  if (!producer) {
    // Another query is building this sketch right now; its task fulfills
    // the future before it waits on anything, so this cannot cycle.
    if (auto prepared = join.get()) {
      if (queued_reservation) {
        admission_queue_.Release(estimate);  // joined: no budget consumed
      }
      *shared = true;
      MutexLock lock(stats_mutex_);
      ++stats_.prepares_shared;
      return prepared;
    }
    // The producer's build failed; fall through and pay our own build so
    // one failure does not poison every waiter with an opaque error.
  }

  Result<std::shared_ptr<const PreparedDataset>> prepared_or =
      BuildWithRetries<std::shared_ptr<const PreparedDataset>>(
          fingerprint, deadline, stream, [&] {
            return PreparedDataset::Create(data, options_.basic_window,
                                           pool_.get(), fingerprint);
          });
  std::shared_ptr<const PreparedDataset> prepared =
      prepared_or.ok() ? *prepared_or : nullptr;
  if (producer) {
    if (prepared != nullptr) {
      // Publish to the cache before retiring the in-flight entry so a new
      // query always finds one of the two.
      sketch_cache_.Put(key, prepared, prepared->MemoryBytes());
    }
    {
      MutexLock lock(inflight_mutex_);
      inflight_prepares_.erase(key);
    }
    promise.set_value(prepared);
  } else if (prepared != nullptr) {
    sketch_cache_.Put(key, prepared, prepared->MemoryBytes());
  }
  if (queued_reservation) {
    // The Put above converted the reservation into cache-accounted bytes
    // (or the build failed); either way the reservation retires here.
    admission_queue_.Release(estimate);
  }
  if (!prepared_or.ok()) {
    return prepared_or.status();
  }
  *shared = false;
  {
    MutexLock lock(stats_mutex_);
    ++stats_.prepares_built;
  }
  return prepared;
}

Status DangoronServer::RunWindowPlan(const RequestContext& ctx,
                                     WindowStreamState* stream,
                                     StreamingSummary* out,
                                     int64_t* next_deliver_out) {
  *next_deliver_out = 0;
  const std::shared_ptr<const TimeSeriesMatrix>& data = ctx.data;
  const uint64_t fingerprint = ctx.fingerprint;
  const SlidingQuery& query = ctx.query;
  RETURN_IF_ERROR(query.Validate(data->length()));
  const int64_t b = options_.basic_window;
  RETURN_IF_ERROR(CheckQueryAligned(query));
  RETURN_IF_ERROR(CheckCoverage(query, *data));
  // Nothing is built until a window must be computed: a plan served from
  // the window cache and joins pays no build.
  out->prepared_from_cache = true;
  ExactSource source;

  const int64_t num_windows = query.NumWindows();

  // Threshold-family canonicalization: evaluate/cache at the family
  // threshold, filter back up to the query's on delivery.
  const double canonical =
      CanonicalThreshold(query.threshold, query.absolute);
  const bool exact_family = SameThresholdBits(canonical, query.threshold);
  SlidingQuery eval = query;
  eval.threshold = canonical;

  auto key_for = [&](int64_t k) {
    return QueryWindowKey(fingerprint, b, query, k, canonical);
  };

  // Resolved, not yet delivered windows at the family threshold.
  std::vector<WindowEdges> got(static_cast<size_t>(num_windows));

  // In-order delivery of the contiguous finished prefix. Filtering from the
  // family threshold to the query's happens here, at the delivery edge —
  // the cache keeps the family-threshold superset. The blocking form waits
  // out backpressure and therefore may only run while this task holds no
  // unfulfilled claims; the non-blocking form runs from inside the
  // evaluation sink (claims outstanding) and simply stops at a full queue,
  // leaving the rest for the next blocking edge.
  int64_t next_deliver = 0;
  bool delivery_cancelled = false;
  // Deadline blown while blocked delivering to a slow consumer (the only
  // blocking edge a deadline can interrupt besides claim joins).
  bool deadline_blown = false;
  // Memo of the head window's family-to-query filtered copy: a full queue
  // fails TryPush repeatedly on the same head window, and refiltering it on
  // every attempt would be O(windows landed) redundant copies.
  int64_t filtered_index = -1;
  WindowEdges filtered_edges;
  auto deliver_ready = [&](bool blocking) {
    if (delivery_cancelled) {
      return;
    }
    while (next_deliver < num_windows &&
           got[static_cast<size_t>(next_deliver)] != nullptr) {
      WindowEdges edges = got[static_cast<size_t>(next_deliver)];
      if (!exact_family) {
        if (filtered_index != next_deliver) {
          filtered_edges = std::make_shared<const std::vector<Edge>>(
              FilterEdges(*edges, query));
          filtered_index = next_deliver;
        }
        edges = filtered_edges;
      }
      StreamedWindow window{next_deliver, std::move(edges)};
      if (blocking) {
        // Deadline-bounded backpressure: the terminal DeadlineExceeded is
        // itself a delivery the consumer is waiting on, so the producer
        // must not block past the abort point (without a deadline,
        // time_point::max() waits indefinitely).
        switch (stream->PushUntil(std::move(window),
                                  ctx.deadline.deadline())) {
          case PushResult::kPushed:
            break;
          case PushResult::kCancelled:
            delivery_cancelled = true;
            return;
          case PushResult::kDeadlineExceeded:
            deadline_blown = true;
            return;
        }
      } else if (!stream->TryPush(std::move(window))) {
        // TryPush also fails on a full queue, which is not terminal.
        if (stream->cancelled()) {
          delivery_cancelled = true;
        }
        return;
      }
      // Drop the plan's reference once delivered: peak memory is the queue
      // plus the in-flight run, not the whole result (the cache keeps its
      // own budgeted reference).
      got[static_cast<size_t>(next_deliver)] = nullptr;
      ++next_deliver;
    }
  };
  auto plan_cancelled = [&]() {
    return delivery_cancelled || stream->cancelled();
  };
  // The cost-model sample: windows landed by claimed runs and the wall time
  // of their engine passes.
  int64_t run_windows = 0;
  double run_seconds = 0.0;
  // Every return funnels through here: the caller learns the resume point
  // (the first undelivered window), and the kAuto cost model learns from
  // whatever this plan evaluated in claimed runs — one EWMA step per plan.
  auto finish_plan = [&](Status status) {
    *next_deliver_out = next_deliver;
    const int64_t n = data->num_series();
    const auto [pair_lo, pair_hi] = query.PairRange(n * (n - 1) / 2);
    const double cells = static_cast<double>(run_windows) *
                         static_cast<double>(pair_hi - pair_lo);
    if (cells > 0 && run_seconds > 0) {
      const double observed = run_seconds * 1e9 / cells;
      MutexLock lock(stats_mutex_);
      exact_cell_ns_ = (1.0 - kExactCostAlpha) * exact_cell_ns_ +
                       kExactCostAlpha * observed;
    }
    return status;
  };
  // Hard mid-run deadline abort: the only site that counts a deadline as
  // "fired mid-evaluation" (pre-start and admission checks count plain
  // deadline_exceeded elsewhere). Every window already delivered stayed
  // delivered, every window already computed stayed cached — the abort
  // loses only the future.
  auto deadline_abort = [&](const char* where) {
    {
      MutexLock lock(stats_mutex_);
      ++stats_.deadline_exceeded;
      ++stats_.deadline_aborted_mid_run;
    }
    return Status::DeadlineExceeded("DangoronServer: deadline expired ",
                                    where, " — completed ", next_deliver,
                                    " of ", num_windows, " windows");
  };

  const DangoronOptions engine_options = ServingEngineOptions(b);

  // Walk the windows in order, resolving each from the cache, a concurrent
  // query's in-flight claim, or our own evaluation. Claims are taken *per
  // run*, immediately before evaluating, and fulfilled (cache Put + claim
  // wake) window by window as the exact engine's window-major sweep emits —
  // so this task never holds an unfulfilled claim across anything that
  // blocks (a join wait, or a delivery push stuck on a slow stream
  // consumer; in-run delivery is non-blocking TryPush). That is the
  // no-deadlock invariant of the dedup protocol: joiners wait only on
  // claims whose evaluation is actively running — and at window cadence,
  // since a claim is fulfilled the moment its window lands, not when the
  // whole run does. Each window is published to the result cache as it
  // lands, so even a cancelled plan leaves a reusable prefix.
  //
  // A nonzero `max_batch_windows` caps a claimed run in whole sweep bands:
  // the cap rounds up to a multiple of kSweepWindowBand, so one engine pass
  // streams each pair's dot-prefix lines once per band. A smaller run would
  // re-stream the whole prefix block once per run — 84 passes instead of 21
  // for a 336-window query at the default cap of 4. The cap is clamped to
  // the query first: a run never exceeds num_windows, and a wire client's
  // cap near INT64_MAX must not overflow the rounding.
  const int64_t run_cap =
      ctx.max_batch_windows > 0
          ? CeilDiv(std::min(ctx.max_batch_windows, num_windows),
                    kSweepWindowBand) *
                kSweepWindowBand
          : num_windows;
  int64_t k = 0;
  while (k < num_windows) {
    if (plan_cancelled()) {
      return finish_plan(
          Status::Cancelled("DangoronServer: stream cancelled mid-plan"));
    }
    // Per-window deadline check — no claims are held here, so aborting is
    // always safe; claimed-run evaluation re-checks at band cadence below.
    if (deadline_blown) {
      return finish_plan(deadline_abort("delivering under backpressure"));
    }
    if (ctx.deadline.expired()) {
      return finish_plan(deadline_abort("mid-plan"));
    }
    if (k < next_deliver || got[static_cast<size_t>(k)] != nullptr) {
      ++k;  // already resolved (and possibly delivered + released)
      continue;
    }

    // Resolve window k under the dedup lock; if it is free, claim the
    // maximal contiguous free run from k (capped at run_cap) — once the
    // source is open.
    WindowClaimPtr join;
    std::vector<WindowClaimPtr> claims;
    bool needs_source = false;
    {
      MutexLock lock(inflight_mutex_);
      if (auto cached = result_cache_.Get(key_for(k))) {
        got[static_cast<size_t>(k)] = std::move(cached);
        ++out->windows_from_cache;
      } else if (auto it = inflight_windows_.find(key_for(k));
                 it != inflight_windows_.end()) {
        join = it->second;
      } else if (!source.open()) {
        needs_source = true;
      } else {
        int64_t claimed = 1;
        while (claimed < run_cap && k + claimed < num_windows) {
          const WindowKey key = key_for(k + claimed);
          if (auto cached = result_cache_.Get(key)) {
            // Stash the probe hit so the main loop never re-reads it.
            got[static_cast<size_t>(k + claimed)] = std::move(cached);
            ++out->windows_from_cache;
            break;
          }
          if (inflight_windows_.find(key) != inflight_windows_.end()) {
            break;
          }
          ++claimed;
        }
        claims.reserve(static_cast<size_t>(claimed));
        for (int64_t d = 0; d < claimed; ++d) {
          claims.push_back(std::make_shared<WindowClaim>());
          inflight_windows_.emplace(key_for(k + d), claims.back());
        }
      }
    }

    if (got[static_cast<size_t>(k)] != nullptr) {
      deliver_ready(/*blocking=*/true);
      ++k;
      continue;
    }

    // Open the source before any claim is taken: admission may park, and a
    // parked plan must not hold claims others are joining.
    if (needs_source) {
      if (Status opened = OpenExactSource(ctx, stream, &source, out);
          !opened.ok()) {
        return finish_plan(opened);
      }
      continue;  // re-resolve window k: it may have landed meanwhile
    }

    if (join != nullptr) {
      // Wait holding no claims — and cancellably: the plan wakes on its own
      // stream's Cancel instead of waiting out the foreign evaluation. A
      // null result means the claimant failed (or was cancelled) after
      // claiming and retired the claim; re-resolve window k rather than
      // inheriting its error — this plan then claims a run from k, or joins
      // the peer that already re-claimed it.
      bool join_cancelled = false;
      bool join_deadline = false;
      WindowEdges edges = WaitForWindowClaim(join, stream, &join_cancelled,
                                             ctx.deadline, &join_deadline);
      if (join_cancelled) {
        return finish_plan(Status::Cancelled(
            "DangoronServer: stream cancelled while joining a claimed "
            "window"));
      }
      if (join_deadline) {
        return finish_plan(deadline_abort("joining a claimed window"));
      }
      if (edges == nullptr) {
        continue;
      }
      ++out->windows_joined;
      got[static_cast<size_t>(k)] = std::move(edges);
      deliver_ready(/*blocking=*/true);
      ++k;
      continue;
    }

    // Evaluate the claimed run [k, k + claims.size()) in one engine pass,
    // riding the exact engine's native window-major emission: each window
    // is cached, its claim fulfilled, and delivery attempted the moment
    // the engine emits it.
    const int64_t claimed = static_cast<int64_t>(claims.size());
    auto retire = [&](int64_t d, WindowEdges edges) {
      {
        MutexLock lock(inflight_mutex_);
        inflight_windows_.erase(key_for(k + d));
      }
      FulfillWindowClaim(claims[static_cast<size_t>(d)], std::move(edges));
    };
    int64_t landed = 0;
    bool deadline_hit_mid_run = false;
    CallbackWindowSink run_sink([&](int64_t d, std::vector<Edge> raw) {
      auto edges = std::make_shared<std::vector<Edge>>(std::move(raw));
      if (Status put_fault =
              DANGORON_FAILPOINT_STATUS("serve.window_cache.put");
          put_fault.ok()) {
        result_cache_.Put(key_for(k + d), edges, WindowEdgesBytes(*edges));
      }
      // An injected Put failure skips only the publication: the claim is
      // still retired with real edges, so joiners and this plan stay
      // correct — the window is merely not reusable by later queries.
      retire(d, edges);
      got[static_cast<size_t>(k + d)] = std::move(edges);
      ++out->windows_computed;
      ++landed;
      deliver_ready(/*blocking=*/false);
      // The engine emits at band cadence, so this is the hard deadline's
      // mid-sweep granularity: at most ~one band of work past the deadline.
      if (ctx.deadline.expired()) {
        deadline_hit_mid_run = true;
        return false;
      }
      return !plan_cancelled();
    });
    SlidingQuery sub = eval;
    sub.start = query.start + k * query.step;
    sub.end = sub.start + (claimed - 1) * query.step + query.window;
    if (source.streamed.has_value()) {
      // Fold the stream up to the run's first slot before timing it: after
      // a cached or joined prefix that catch-up covers every window the
      // run skipped, and charging it to the run's cells would inflate the
      // cost sample by the prefix's length.
      source.streamed->AdvanceTo(sub.start / b, pool_.get());
    }
    // Claimed runs move strictly forward through the plan, as a band stream
    // requires.
    Stopwatch run_timer;
    const Status eval_status =
        source.resident != nullptr
            ? DangoronEngine::QueryPreparedToSink(
                  engine_options, source.resident->index(), sub, pool_.get(),
                  /*stats=*/nullptr, &run_sink)
            : DangoronEngine::QueryStreamedToSink(
                  engine_options, &*source.streamed, sub, pool_.get(),
                  /*stats=*/nullptr, &run_sink);
    run_seconds += run_timer.ElapsedSeconds();
    run_windows += landed;
    if (!eval_status.ok()) {
      // Engine failure, sink-driven cancellation, or deadline abort
      // mid-run: fulfill the remaining claims with null so joiners
      // re-resolve those windows instead of hanging or inheriting our
      // outcome.
      for (int64_t d = landed; d < claimed; ++d) {
        retire(d, nullptr);
      }
      if (deadline_hit_mid_run) {
        return finish_plan(deadline_abort("mid-sweep"));
      }
      if (eval_status.code() == StatusCode::kCancelled) {
        return finish_plan(
            Status::Cancelled("DangoronServer: stream cancelled mid-plan"));
      }
      return finish_plan(eval_status);
    }
    deliver_ready(/*blocking=*/true);
    k += claimed;
  }
  if (deadline_blown) {
    return finish_plan(deadline_abort("delivering under backpressure"));
  }
  if (plan_cancelled()) {
    return finish_plan(
        Status::Cancelled("DangoronServer: stream cancelled mid-plan"));
  }
  return finish_plan(Status::Ok());
}

Status DangoronServer::RunApproxPlan(const RequestContext& ctx,
                                     WindowStreamState* stream,
                                     StreamingSummary* out,
                                     int64_t first_window) {
  const SlidingQuery& full_query = ctx.query;
  RETURN_IF_ERROR(full_query.Validate(ctx.data->length()));
  RETURN_IF_ERROR(CheckQueryAligned(full_query));
  // Degradation continuation: evaluate only the window suffix from
  // `first_window`, delivering under the original indices — the exact plan
  // already delivered [0, first_window).
  SlidingQuery query = full_query;
  if (first_window > 0) {
    if (first_window >= full_query.NumWindows()) {
      return Status::Ok();  // everything already delivered
    }
    query.start = full_query.start + first_window * full_query.step;
  }

  // The approx tier shares the prepared sketch with the exact tier — one
  // index serves both — but from here on it never touches the
  // window-result cache: no Get (the jump pattern must not depend on what
  // exact queries happened to cache), no Put (a jumped window's edge set
  // depends on this query's range; publishing it would poison exact
  // reuse), and no claims (nothing here is joinable).
  RETURN_IF_ERROR(CheckCoverage(query, *ctx.data));
  ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> prepared,
                   GetOrPrepare(ctx.data, ctx.fingerprint, ctx.admission,
                                ctx.deadline, stream,
                                &out->prepared_from_cache));

  DangoronOptions engine_options = ServingEngineOptions(options_.basic_window);
  engine_options.enable_jumping = true;  // the tier's whole point

  // Blocking delivery is safe here: this path holds no window claims, so a
  // slow consumer stalls only its own producer — but the request's deadline
  // still bounds it (PushUntil), and each emitted window re-checks the
  // clock: the approx tier enforces the hard deadline at window cadence.
  EngineStats engine_stats;
  bool deadline_hit = false;
  CallbackWindowSink sink([&](int64_t k, std::vector<Edge> edges) {
    auto shared_edges = std::make_shared<std::vector<Edge>>(std::move(edges));
    switch (stream->PushUntil(
        StreamedWindow{first_window + k, std::move(shared_edges)},
        ctx.deadline.deadline())) {
      case PushResult::kPushed:
        break;
      case PushResult::kCancelled:
        return false;
      case PushResult::kDeadlineExceeded:
        deadline_hit = true;
        return false;
    }
    ++out->windows_computed;
    if (ctx.deadline.expired()) {
      deadline_hit = true;
      return false;
    }
    return true;
  });
  const Status status = DangoronEngine::QueryPreparedToSink(
      engine_options, prepared->index(), query, pool_.get(), &engine_stats,
      &sink);
  out->cells_jumped = engine_stats.cells_jumped;
  out->jumps = engine_stats.jumps;
  if (deadline_hit) {
    {
      MutexLock lock(stats_mutex_);
      ++stats_.deadline_exceeded;
      ++stats_.deadline_aborted_mid_run;
    }
    return Status::DeadlineExceeded(
        "DangoronServer: deadline expired mid-approx-plan — delivered ",
        out->windows_computed, " of ",
        full_query.NumWindows() - first_window, " windows");
  }
  if (status.code() == StatusCode::kCancelled) {
    return Status::Cancelled(
        "DangoronServer: stream cancelled mid-approx-plan");
  }
  return status;
}

void DangoronServer::RunStreamingQuery(const RequestContext& ctx,
                                       WindowStreamState* stream) {
  StreamingSummary out;
  Status status = Status::Ok();
  if (ctx.deadline.expired()) {
    out.tier_used = ResolveTier(ctx);  // truthful per-tier attribution
    {
      MutexLock lock(stats_mutex_);
      ++stats_.deadline_exceeded;
    }
    status = Status::DeadlineExceeded(
        "DangoronServer: request deadline passed before the query started");
  } else {
    // Graceful degradation, pre-run leg: an explicitly exact request whose
    // deadline the exact cost estimate already misses is served approx up
    // front under degrade=auto — a late exact answer is worse than an
    // on-time approximate one (kAuto's own estimate-driven approx choice is
    // selection, not degradation, and is not flagged).
    const bool degrade_estimate =
        ctx.tier == ServeTier::kExact &&
        ctx.degrade == DegradePolicy::kAuto && ctx.deadline.has_deadline() &&
        EstimateExactCostMs(ctx) > ctx.deadline.remaining_ms();
    if (degrade_estimate || ResolveTier(ctx) == ServeTier::kApprox) {
      out.tier_used = ServeTier::kApprox;
      out.degraded = degrade_estimate;
      status = RunApproxPlan(ctx, stream, &out);
    } else {
      int64_t next_deliver = 0;
      status = RunWindowPlan(ctx, stream, &out, &next_deliver);
      // Graceful degradation, mid-run leg: an exact plan that died of
      // resource exhaustion (admission refusal, budget pressure — real or
      // injected) continues on the approx tier while the deadline still
      // has budget, from the first undelivered window and under the
      // original indices, so the consumer still sees one ascending
      // exactly-once sequence. Only ResourceExhausted: other failures would
      // fail approx identically, and a mid-run DeadlineExceeded means the
      // budget is already gone.
      if (status.code() == StatusCode::kResourceExhausted &&
          ctx.degrade == DegradePolicy::kAuto && !ctx.deadline.expired() &&
          !stream->cancelled()) {
        out.tier_used = ServeTier::kApprox;
        out.degraded = true;
        status = RunApproxPlan(ctx, stream, &out, next_deliver);
      }
    }
    admission_queue_.NotifyReleased();  // the prepared handle is released
  }
  RecordQueryStats(out);
  if (status.code() == StatusCode::kCancelled) {
    // Consumer Cancel — or, through the wire layer, a client disconnect.
    MutexLock lock(stats_mutex_);
    ++stats_.streams_cancelled;
  }
  stream->Finish(std::move(status), out);
}

void DangoronServer::RecordQueryStats(const StreamingSummary& out) {
  // Every submission counts, successful or not, and the window counters
  // reflect the work actually done.
  MutexLock lock(stats_mutex_);
  ++stats_.queries;
  if (out.tier_used == ServeTier::kApprox) {
    ++stats_.queries_approx;
  }
  if (out.degraded) {
    ++stats_.degraded_to_approx;
  }
  stats_.windows_computed += out.windows_computed;
  stats_.windows_from_cache += out.windows_from_cache;
  stats_.windows_joined += out.windows_joined;
}

DangoronServerStats DangoronServer::stats() const {
  DangoronServerStats snapshot;
  {
    MutexLock lock(stats_mutex_);
    snapshot = stats_;
  }
  {
    // Leak check surface: claims still registered by in-flight plans. On a
    // quiesced server this must read zero — every plan retires its claims
    // on success, failure, cancellation, and deadline abort alike.
    MutexLock lock(inflight_mutex_);
    snapshot.inflight_window_claims =
        static_cast<int64_t>(inflight_windows_.size());
  }
  snapshot.sketch_cache = sketch_cache_.stats();
  snapshot.result_cache = result_cache_.stats();
  return snapshot;
}

}  // namespace dangoron
