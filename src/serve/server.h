#ifndef DANGORON_SERVE_SERVER_H_
#define DANGORON_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "engine/query.h"
#include "serve/admission_queue.h"
#include "serve/query_request.h"
#include "serve/sketch_cache.h"
#include "serve/window_result_cache.h"
#include "serve/window_stream.h"
#include "sketch/band_streamed_sketch.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// Options of the serving layer.
struct DangoronServerOptions {
  /// Worker threads shared by all in-flight queries (0 = hardware
  /// concurrency). One pool serves both query tasks and their inner
  /// pair-tile parallelism.
  int32_t num_threads = 0;

  /// Basic window granularity datasets are prepared at; query start /
  /// window / step must be multiples of it.
  int64_t basic_window = 24;

  /// Byte budget of the prepared-sketch LRU cache (sketch storage + data).
  int64_t sketch_cache_bytes = int64_t{1} << 30;

  /// Byte budget of the per-window edge-set cache.
  int64_t result_cache_bytes = int64_t{64} << 20;

  /// Admission policy: when true, a prepare whose estimated footprint
  /// (BasicWindowIndex::EstimateMemoryBytes + data) exceeds the sketch-cache
  /// byte budget is refused with ResourceExhausted *before* building,
  /// instead of building an index that the cache evicts immediately. Off by
  /// default: small deployments may prefer paying thrash over refusing.
  bool refuse_oversized_prepares = false;

  /// Admission cap on concurrent streaming submissions: each live stream
  /// owns a dedicated producer thread, so past this many unfinished streams
  /// SubmitStreaming fails terminally with ResourceExhausted instead of
  /// spawning unbounded threads.
  int64_t max_concurrent_streams = 64;

  /// Threshold-family window caching: thresholds are snapped down to a grid
  /// of `threshold_family_steps` divisions per unit (20 = 0.05 apart) for
  /// evaluation and cache keys, and results are filtered back up to the
  /// query's exact threshold on assembly. A window evaluated at family
  /// threshold beta_c answers every query threshold in [beta_c, beta_c +
  /// 1/steps), so threshold-sweep clients multiply their hit rates instead
  /// of fragmenting the cache. Results are unchanged — exact evaluation's
  /// values are threshold-independent; the threshold only filters. 0
  /// disables (exact-match keys).
  int64_t threshold_family_steps = 20;

  /// Tier served to requests that leave `ServeOptions::tier` unset. The
  /// exact default keeps every default request byte-identical to
  /// NaiveEngine.
  ServeTier default_tier = ServeTier::kExact;

  /// Admission policy for requests that leave `ServeOptions::admission`
  /// unset. With `kRefuse`, oversized prepares are refused outright (only
  /// when `refuse_oversized_prepares` is also on — the historical gate);
  /// with `kQueue`, they park in the deadline-aware admission queue until
  /// sketch-cache budget frees up.
  AdmissionPolicy admission = AdmissionPolicy::kRefuse;

  /// Bound on concurrently parked prepares in the admission queue; requests
  /// past it fail with ResourceExhausted instead of growing the queue.
  int64_t admission_queue_limit = 16;

  /// Degradation policy for requests that leave `ServeOptions::degrade`
  /// unset. With `kAuto`, an exact-tier request under pressure — deadline
  /// tighter than the exact cost estimate, or a mid-query
  /// ResourceExhausted — is served on the approx tier instead of failing
  /// (reported via `tier_used` and the `degraded_to_approx` counter). Off
  /// by default: degradation changes answers, so it is strictly opt-in.
  DegradePolicy degrade = DegradePolicy::kOff;
};

/// One claimed in-flight window evaluation: the claimant fulfills it (edge
/// set, or null on failure/cancellation) exactly once; joiners block on the
/// embedded waker's condition variable. Streaming joiners additionally
/// register the waker with their stream so Cancel() aborts the wait (see
/// CancelWaker) — the join is cancellable without polling.
struct WindowClaim {
  CancelWaker waker;
  bool done GUARDED_BY(waker.m) = false;
  WindowEdges edges GUARDED_BY(waker.m);
};
using WindowClaimPtr = std::shared_ptr<WindowClaim>;

/// Fulfills `claim` and wakes every joiner. Call after retiring the claim
/// from the in-flight map so new queries resolve through the cache.
void FulfillWindowClaim(const WindowClaimPtr& claim, WindowEdges edges);

/// Blocks until `claim` is fulfilled, `stream` (non-null) is cancelled, or
/// `deadline` expires, whichever happens first; wakes on fulfillment and
/// cancellation via condition variables (no polling), and times out at the
/// deadline. Returns the claim's edges (null when the claimant failed) and
/// sets `*cancelled` when the wait was abandoned because the stream
/// cancelled, `*deadline_hit` (nullable) when it was abandoned because the
/// deadline passed. The defaults reproduce the historical deadline-free
/// wait. Exposed as a free function so the cancellable-wait protocol is
/// unit-testable without a server.
WindowEdges WaitForWindowClaim(const WindowClaimPtr& claim,
                               WindowStreamState* stream, bool* cancelled,
                               const DeadlineToken& deadline = DeadlineToken(),
                               bool* deadline_hit = nullptr);

/// Per-query outcome of `Submit` / `Query`: the collected stream — its
/// summary (where the windows came from) plus the assembled series.
struct ServeResult : StreamingSummary {
  CorrelationMatrixSeries series;
};

/// Aggregate server counters (monotonic since construction).
struct DangoronServerStats {
  /// Submissions processed (collected + streaming), successful or not;
  /// window counters reflect the work actually done, so a failed or
  /// cancelled submission contributes what it computed before stopping.
  int64_t queries = 0;
  int64_t queries_approx = 0;      ///< served by the approx (jumping) tier
  /// Builds actually paid: full sketches (approx tier) plus band streams
  /// (exact queries that computed windows without a resident sketch).
  int64_t prepares_built = 0;
  int64_t prepares_shared = 0;     ///< sketch cache or in-flight dedup hits
  /// Builds (full or streamed) rejected by the admission policy.
  int64_t prepares_refused = 0;
  int64_t prepares_queued = 0;     ///< parked in the admission queue
  int64_t deadline_exceeded = 0;   ///< requests failed on their deadline
  /// Of `deadline_exceeded`: requests whose deadline fired *mid-evaluation*
  /// — the hard-deadline abort path, not the pre-start or admission checks.
  int64_t deadline_aborted_mid_run = 0;
  /// Streaming submissions that finished Cancelled — consumer Cancel calls
  /// and, through the network front end, client disconnects (the wire
  /// layer maps a dropped connection to Cancel, so this is where a
  /// mid-stream disconnect becomes visible server-side).
  int64_t streams_cancelled = 0;
  /// Exact requests served approx by `DegradePolicy::kAuto` (see
  /// ServeResult::degraded).
  int64_t degraded_to_approx = 0;
  /// Transient prepare failures absorbed by the bounded retry loop
  /// (successful or not — each attempt after the first counts).
  int64_t prepare_retries = 0;
  int64_t windows_computed = 0;
  int64_t windows_from_cache = 0;
  int64_t windows_joined = 0;
  /// Snapshot (not monotonic): window claims currently registered in the
  /// in-flight map. Zero on a quiesced server — the chaos suite's leak
  /// check: a claim that survives its query was never retired.
  int64_t inflight_window_claims = 0;
  LruCacheStats sketch_cache;
  LruCacheStats result_cache;
};

/// Multi-tenant serving layer over the Dangoron sketch machinery: callers
/// register datasets once and submit any number of concurrent
/// `QueryRequest`s; the server shares everything shareable between them.
///
/// - `PreparedDataset` handles (dataset fingerprint -> built
///   BasicWindowIndex, dot prefix plus the Eq. 2 budget) are built by the
///   jumping (approx) tier once, deduplicated even across *concurrent*
///   first queries, held in an LRU sketch cache under a byte budget, and
///   shared read-only by both tiers; eviction composes with the sketch
///   storage recycler (see SketchCache). An exact query that finds no
///   resident sketch never builds one: it band-streams its own dot
///   prefixes (BandStreamedSketch) — a cache-sized ring slab built band by
///   band ahead of the sweep — and drops them when its plan ends.
///   Admission control handles builds that do not fit the budget (a full
///   sketch, or a stream's transient working set): refused outright, or
///   parked in a bounded deadline-aware queue (see PrepareAdmissionQueue
///   and `ServeOptions::admission`).
/// - Per-window edge sets are cached and deduplicated: overlapping queries
///   (same dataset / basic window / threshold family, overlapping ranges)
///   reuse each other's windows instead of re-walking pair tiles, and N
///   identical concurrent submissions evaluate each window once. Windows
///   land in the cache *as they are evaluated*, so even a cancelled or
///   still-running query's prefix is reusable.
/// - One pipeline serves every request: windows are delivered in order
///   through a bounded stream the moment each is final (see WindowStream).
///   `SubmitStreaming` hands that stream to the caller; `Submit` runs the
///   same pipeline as a pool task into a stream with room for every window
///   (no push can block a compute thread) and collects it into a series.
///   Pair tiles parallelize on the same shared ThreadPool.
///
/// Service tiers (`ServeOptions::tier`): the exact tier answers in exact
/// incremental mode (no Eq. 2 jumping) through the shared window cache —
/// jumping makes a window's result depend on the query's range, which would
/// poison cross-query reuse; exactness is also what makes results
/// byte-stable under every cache hit/miss/eviction interleaving (values
/// match NaiveEngine up to floating-point roundoff). The approx tier runs
/// Eq. 2 jumping per request for latency-critical clients: it shares the
/// prepared sketch but bypasses the window cache entirely (never reads it,
/// never writes it — range-dependent windows must not be published), so
/// approx traffic cannot perturb exact results. `kAuto` picks approx when
/// the request's deadline is tighter than the server's estimate of the
/// exact evaluation cost (a running estimate learned from exact claimed-run
/// evaluation, pessimistically seeded), exact otherwise.
///
/// Thread-safe: every public method may be called from any thread.
class DangoronServer {
 public:
  explicit DangoronServer(const DangoronServerOptions& options = {});
  /// Cancels still-active streams, then drains in-flight queries before
  /// tearing down shared state.
  ~DangoronServer();

  DangoronServer(const DangoronServer&) = delete;
  DangoronServer& operator=(const DangoronServer&) = delete;

  const DangoronServerOptions& options() const { return options_; }

  /// Registers `data` under `name` (cheap: fingerprint only, no build — the
  /// first query pays the prepare). Re-registering a name replaces it;
  /// queries already in flight keep the data they resolved.
  Status AddDataset(const std::string& name,
                    std::shared_ptr<const TimeSeriesMatrix> data);
  Status AddDataset(const std::string& name, TimeSeriesMatrix data);

  /// Content fingerprint of a registered dataset — the key for wiring
  /// external producers (e.g. StreamingNetworkBuilder::PublishTo) to this
  /// server's window cache.
  Result<uint64_t> DatasetFingerprint(const std::string& name) const;

  /// Series length (number of columns) of a registered dataset. The wire
  /// layer resolves a request's `end = 0` to this — a remote client can ask
  /// for "the whole range" without knowing the series length.
  Result<int64_t> DatasetLength(const std::string& name) const;

  /// True when `dataset` is registered and its sketch is currently resident
  /// in the prepared-sketch cache — i.e. a query against it skips the
  /// prepare. A pure peek: no recency bump, no hit/miss accounting. The
  /// network front end's lane classifier uses it to route warm requests to
  /// the high-priority lane and cold prepares to the low one.
  bool HasPreparedSketch(const std::string& dataset) const;

  /// True when `request` will start without a build: its dataset's full
  /// sketch is resident (HasPreparedSketch), or — exact tier — the window
  /// cache holds its first window at its threshold family. Exact queries
  /// cache windows, not sketches, so this is what makes a repeated exact
  /// request warm. A pure peek, like HasPreparedSketch; the network front
  /// end's lane classifier uses it.
  bool StartsWarm(const QueryRequest& request) const;

  /// Submits a request; returns immediately. The future resolves on a pool
  /// thread once the request's window stream finished and was collected
  /// into a series — the same pipeline, windows, deadline rule and summary
  /// as `SubmitStreaming`. The request carries the service tier, deadline,
  /// and admission preference (`ServeOptions`); a default-constructed
  /// `ServeOptions` reproduces the server's configured defaults (exact
  /// tier, refuse admission, no deadline out of the box).
  std::future<Result<ServeResult>> Submit(const QueryRequest& request);

  /// Streaming submission of a request: windows are delivered through the
  /// returned handle's bounded queue in ascending order as they are
  /// evaluated (or, exact tier, read from cache), so consumers see the
  /// first window at time-to-first-window instead of full-query latency.
  /// Exact tier: every window is published to the shared window cache the
  /// moment it lands, so a cancelled (or merely slower) stream leaves a
  /// reusable prefix for the next overlapping query. Approx tier: windows
  /// are jumped per request and delivered without touching the window
  /// cache. Errors surface as the stream's terminal status; this call
  /// itself never blocks.
  std::unique_ptr<WindowStream> SubmitStreaming(const QueryRequest& request);

  /// Synchronous convenience: Submit + wait. Must not be called from a pool
  /// task (i.e. from inside another query's execution).
  Result<ServeResult> Query(const QueryRequest& request);

  /// The family threshold `threshold` is evaluated and cached at (itself,
  /// when `threshold_family_steps` is 0 or the threshold already sits on
  /// the grid). Exposed so external cache producers can key compatibly.
  double CanonicalThreshold(double threshold, bool absolute) const;

  /// The window-result cache, for external producers that want live results
  /// (streams) visible to historical queries. Thread-safe.
  WindowResultCache* mutable_result_cache() { return &result_cache_; }

  DangoronServerStats stats() const;

 private:
  struct RegisteredDataset {
    std::shared_ptr<const TimeSeriesMatrix> data;
    uint64_t fingerprint = 0;
  };

  /// One submission, resolved at Submit time: the dataset snapshot it will
  /// run against plus its ServeOptions with the server defaults and the
  /// absolute deadline applied. `tier` may still be kAuto — it resolves to
  /// exact/approx when the task starts (the cost estimate should see the
  /// freshest measurements, and the remaining deadline budget is what the
  /// task actually has).
  struct RequestContext {
    std::shared_ptr<const TimeSeriesMatrix> data;
    uint64_t fingerprint = 0;
    SlidingQuery query;
    ServeTier tier = ServeTier::kExact;
    AdmissionPolicy admission = AdmissionPolicy::kRefuse;
    DegradePolicy degrade = DegradePolicy::kOff;
    DeadlineToken deadline;
    int64_t max_batch_windows = 0;
  };

  /// Resolves `request` against the dataset registry and the server's
  /// defaults; `api` names the calling entry point in error messages.
  Result<RequestContext> ResolveRequest(const QueryRequest& request,
                                        const char* api) const;

  /// Final tier of a task about to run: kAuto picks approx when the
  /// remaining deadline budget is tighter than EstimateExactCostMs, exact
  /// otherwise (and always exact without a deadline).
  ServeTier ResolveTier(const RequestContext& ctx) const;

  /// Estimated exact-tier evaluation cost of the request: uncached cells x
  /// the running ns/cell estimate (learned from the claimed runs of exact
  /// plans, pessimistically seeded — see kExactCostSeedNsPerCell).
  /// Windows already in the result cache are discounted — a warm range is
  /// a near-free exact answer. Excludes opening the plan's source (a
  /// cache lookup or a stream's panels); a band-streamed plan's per-band
  /// build advances are part of the rate it learns.
  double EstimateExactCostMs(const RequestContext& ctx) const;

  /// The closed-form admission estimate of preparing `data`: index bytes
  /// plus the data matrix — the same number the sketch cache is charged.
  int64_t EstimatePrepareBytes(const TimeSeriesMatrix& data) const;

  /// The admission estimate of band-streaming `ctx`'s exact plan: the
  /// stream's panels, series prefixes, accumulators and ring slab —
  /// exactly the BandStreamedSketch::MemoryBytes() of the stream it opens.
  int64_t EstimateStreamBytes(const RequestContext& ctx) const;

  /// The query preconditions both tiers share — and must keep rejecting
  /// identically: basic-window alignment and coverage of the data's full
  /// basic windows, both checked before any build is paid.
  Status CheckQueryAligned(const SlidingQuery& query) const;
  Status CheckCoverage(const SlidingQuery& query,
                       const TimeSeriesMatrix& data) const;

  /// Admission control of one build of `estimate` bytes for `key`'s data:
  /// under `AdmissionPolicy::kQueue` reserves the bytes against the
  /// sketch-cache budget, parking until they fit, the deadline passes or
  /// `stream` cancels (returns true: the caller must Release the
  /// reservation) — or returns false with `*landed` set when `key`'s full
  /// sketch reached the cache meanwhile; under `kRefuse` rejects estimates
  /// above the budget when `refuse_oversized_prepares` is on. Counts
  /// prepares_queued / prepares_refused / deadline_exceeded.
  Result<bool> AdmitBuild(int64_t estimate, const SketchCacheKey& key,
                          AdmissionPolicy admission,
                          const DeadlineToken& deadline,
                          WindowStreamState* stream,
                          std::shared_ptr<const PreparedDataset>* landed);

  /// Runs `build_once` under the `serve.prepare` failpoint, retrying
  /// transient failures (IoError, Internal) up to kPrepareMaxRetries times
  /// with jittered exponential backoff bounded by the deadline; counts
  /// prepare_retries. Both builds — full sketches and band streams — go
  /// through it.
  template <typename T>
  Result<T> BuildWithRetries(uint64_t fingerprint,
                             const DeadlineToken& deadline,
                             WindowStreamState* stream,
                             const std::function<Result<T>()>& build_once);

  /// The dot-prefix source of an exact plan, opened at its first computed
  /// window: the resident full sketch, or the plan's own band stream plus
  /// its transient admission reservation (released after the stream is
  /// freed, when the source goes out of scope).
  struct ExactSource {
    std::shared_ptr<const PreparedDataset> resident;
    std::optional<BandStreamedSketch> streamed;
    PrepareAdmissionQueue* reservation_queue = nullptr;
    int64_t reservation_bytes = 0;

    ExactSource() = default;
    ExactSource(const ExactSource&) = delete;
    ExactSource& operator=(const ExactSource&) = delete;
    ~ExactSource() {
      streamed.reset();
      if (reservation_queue != nullptr) {
        reservation_queue->Release(reservation_bytes);
      }
    }
    bool open() const { return resident != nullptr || streamed.has_value(); }
  };

  /// Opens `source` for `ctx`'s exact plan: the resident full sketch when
  /// the sketch cache holds one (prepares_shared; `prepared_from_cache`
  /// stays true), else a band stream over the plan's whole query, admitted
  /// through AdmitBuild as a transient reservation and created under
  /// BuildWithRetries (prepares_built; `prepared_from_cache` = false).
  /// Must be called holding no window claims: admission may park.
  Status OpenExactSource(const RequestContext& ctx, WindowStreamState* stream,
                         ExactSource* source, StreamingSummary* out);

  /// The exact tier of the pipeline: walks the query's windows in order,
  /// resolving each from the result cache, a concurrent query's in-flight
  /// claim, or its own evaluation in contiguous claimed runs of at most
  /// `ctx.max_batch_windows` rounded up to whole kSweepWindowBand bands (0 =
  /// unbounded), so one engine pass streams the dot-prefix block once per
  /// band. Evaluation drives the exact engine's native window emission:
  /// each window is cache-Put and its claim fulfilled the moment the engine
  /// emits it — mid-run, not at run end — so joiners and overlapping
  /// queries see windows at window cadence, and the task never holds an
  /// unfulfilled claim across a blocking wait (delivery inside a run uses
  /// non-blocking TryPush; blocking backpressure delivery happens only
  /// between runs, with no claims held — the no-deadlock invariant).
  /// Join waits are cancellable: a plan blocked on another query's claim
  /// wakes on its own stream's Cancel (see WaitForWindowClaim) instead of
  /// waiting out the foreign evaluation. The contiguous prefix is delivered
  /// in order through `stream`'s bounded queue (filtered from the family
  /// threshold to the query's) and released after delivery. Returns
  /// Cancelled when the stream cancels mid-plan; cached windows computed
  /// before that remain reusable.
  /// Dot prefixes come from the resident full sketch when the sketch cache
  /// holds one (built by an approx query), else from the plan's own band
  /// stream, opened lazily at the first window the plan must compute and
  /// fed by every later claimed run and failed-join re-evaluation (see
  /// OpenExactSource); a plan served wholly from the window cache and
  /// joins builds nothing. The exact tier never builds or caches a full
  /// sketch.
  /// The summed wall time of the claimed runs' engine passes teaches the
  /// kAuto cost model: in-run delivery never blocks, and a band stream is
  /// folded up to each run's first window before the clock starts, so that
  /// time excludes consumer pace, joins, cache reads, opening the source
  /// and catching the stream up past windows the plan did not compute.
  /// The request's deadline is enforced *mid-plan*: the walk checks it per
  /// window, claimed-run evaluation checks it at the engine's band cadence,
  /// and claim joins / backpressure delivery time out on it — a blown
  /// deadline aborts with DeadlineExceeded after delivering (and caching)
  /// every window completed before it. `*next_deliver_out` reports the
  /// first window index not yet delivered — the resume point a degrading
  /// caller continues an approx plan from.
  Status RunWindowPlan(const RequestContext& ctx, WindowStreamState* stream,
                       StreamingSummary* out, int64_t* next_deliver_out);

  /// The approx tier of the pipeline: runs the request through the Eq. 2
  /// jumping engine against the shared prepared sketch, *never touching the
  /// window-result cache* (jumped windows are range-dependent — publishing
  /// them would poison exact reuse, and reading cached exact windows would
  /// make the jump pattern cache-dependent). Each window is delivered
  /// through `stream`'s bounded queue (blocking is safe — this path holds
  /// no claims) and the deadline is enforced at window cadence.
  /// `first_window` > 0 evaluates only the query's window suffix starting
  /// there (delivered under the original indices) — the degradation path's
  /// continuation after an exact plan already delivered a prefix.
  Status RunApproxPlan(const RequestContext& ctx, WindowStreamState* stream,
                       StreamingSummary* out, int64_t first_window = 0);

  /// The one query driver: deadline pre-check, tier resolution, the exact
  /// or approx plan (with the degrade-on-exhaustion continuation), stats;
  /// always finishes `stream`. Runs on a streaming submission's producer
  /// thread, or as `Submit`'s pool task against a stream sized to hold
  /// every window.
  void RunStreamingQuery(const RequestContext& ctx, WindowStreamState* stream);

  /// Folds one submission's accounting into the aggregate counters.
  void RecordQueryStats(const StreamingSummary& out);

  /// Returns the prepared sketch for (fingerprint, basic_window), building
  /// it at most once across concurrent callers: cache hit, else join an
  /// in-flight build, else admission control, else build + publish. Under
  /// `AdmissionPolicy::kQueue` a build that does not fit the free
  /// sketch-cache budget parks in the admission queue until evictions free
  /// budget, `deadline` passes (DeadlineExceeded), or `stream` is
  /// cancelled; under `kRefuse` the historical refuse-oversized check
  /// applies. Transient build failures (IoError, Internal — injected or
  /// real) are retried up to kPrepareMaxRetries times with jittered
  /// exponential backoff bounded by the remaining deadline;
  /// ResourceExhausted is never retried (it feeds degradation, and backoff
  /// cannot free a budget). Sets `*shared` when this query did not pay the
  /// build.
  Result<std::shared_ptr<const PreparedDataset>> GetOrPrepare(
      std::shared_ptr<const TimeSeriesMatrix> data, uint64_t fingerprint,
      AdmissionPolicy admission, const DeadlineToken& deadline,
      WindowStreamState* stream, bool* shared);

  const DangoronServerOptions options_;

  mutable Mutex datasets_mutex_;
  std::unordered_map<std::string, RegisteredDataset> datasets_
      GUARDED_BY(datasets_mutex_);

  SketchCache sketch_cache_;
  WindowResultCache result_cache_;

  // Deadline-aware wait queue for oversized prepares under
  // AdmissionPolicy::kQueue; wired as sketch_cache_'s eviction listener and
  // notified whenever a task releases its prepared handle. Declared after
  // the cache it accounts against (constructed later, destroyed earlier);
  // the destructor calls Shutdown() before draining the pool so no parked
  // task can outlive teardown.
  PrepareAdmissionQueue admission_queue_;

  // In-flight deduplication. Window claims are taken per evaluation run and
  // fulfilled window by window as the engine emits, before the claiming
  // task can block on anything — another query's claim or a stream
  // consumer's queue — so a joiner only ever waits on an evaluation that is
  // actively running (see RunWindowPlan); no wait cycle and no dependence
  // on consumer progress. Joiners can additionally abandon the wait on
  // their stream's cancellation (WaitForWindowClaim + CancelWaker).
  mutable Mutex inflight_mutex_;  // mutable: stats() snapshots claims
  std::unordered_map<SketchCacheKey,
                     std::shared_future<std::shared_ptr<const PreparedDataset>>,
                     SketchCacheKeyHash>
      inflight_prepares_ GUARDED_BY(inflight_mutex_);
  std::unordered_map<WindowKey, WindowClaimPtr, WindowKeyHash>
      inflight_windows_ GUARDED_BY(inflight_mutex_);

  // Live streaming submissions. Each runs on a dedicated producer thread —
  // not a pool task — because delivery legitimately blocks on the consumer
  // (backpressure): on the pool, every undrained stream would pin a compute
  // thread, and a 1-thread pool would wedge outright under the
  // submit-stream-then-query-then-drain pattern. Inner pair-tile
  // parallelism still runs on the shared pool (ParallelFor is
  // caller-helping, so external callers compose). Destruction cancels the
  // streams, then joins the threads (guarded by streams_mutex_).
  Mutex streams_mutex_;
  struct ActiveStream {
    std::thread producer;
    std::weak_ptr<WindowStreamState> state;
  };
  std::vector<ActiveStream> active_streams_ GUARDED_BY(streams_mutex_);

  // Aggregate counters (guarded by stats_mutex_), plus the running exact
  // ns/cell estimate behind kAuto's tier choice: an EWMA over exact plans'
  // claimed-run engine passes (see RunWindowPlan), seeded pessimistically
  // so a fresh server under tight deadlines leans approx — the
  // latency-safe direction — until real measurements arrive.
  mutable Mutex stats_mutex_;
  DangoronServerStats stats_ GUARDED_BY(stats_mutex_);
  double exact_cell_ns_ GUARDED_BY(stats_mutex_);

  // Destroyed first (reverse member order): the pool's destructor drains
  // every queued and running query task while the caches, maps, and
  // registered datasets above are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dangoron

#endif  // DANGORON_SERVE_SERVER_H_
