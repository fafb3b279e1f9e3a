// Randomized fault-injection chaos suite for the serving stack: each
// iteration arms a random failpoint schedule (from the documented site
// catalog — see src/common/README.md), throws a random mix of collected
// and streaming requests at a live server with tiny cache budgets, and
// checks the invariants that must survive *any* fault interleaving:
//
//  - no deadlock: every future resolves and every stream reaches a
//    terminal status (the test terminating is the assertion; ctest's
//    timeout is the backstop);
//  - delivery integrity: each stream's windows arrive contiguously
//    ascending from 0, each exactly once — faults may truncate the
//    sequence, never corrupt it;
//  - failures are from the expected set (injected codes, Cancelled,
//    DeadlineExceeded, ResourceExhausted) — never an invariant-violation
//    surprise like InvalidArgument;
//  - no leaked window claims: a quiesced server's in-flight claim map is
//    empty, or some future joiner would hang forever;
//  - cache consistency: after disarming, a clean exact query — served
//    partly from whatever the faulted runs managed to cache — still
//    matches NaiveEngine bit-for-bit up to roundoff.
//
// Schedules are seeded, so a failure reproduces from its logged iteration
// seed. Run under TSan (see .github/workflows/ci.yml) for the memory-order
// half of the no-deadlock claim.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "engine/naive_engine.h"
#include "serve/server.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

#if DANGORON_FAILPOINTS_ENABLED
constexpr bool kChaosFailpointsCompiled = true;
#else
constexpr bool kChaosFailpointsCompiled = false;
#endif

TimeSeriesMatrix SmallClimate(int64_t stations, int64_t hours,
                              uint64_t seed) {
  ClimateSpec spec;
  spec.num_stations = stations;
  spec.num_hours = hours;
  spec.seed = seed;
  auto dataset = GenerateClimate(spec);
  CHECK(dataset.ok());
  return std::move(dataset->data);
}

// One random action spec per site — drawn per iteration, so every schedule
// mixes error, delay, wake, count-limited, and probabilistic triggers.
std::string RandomAction(Rng* rng, bool wake_site) {
  if (wake_site) {
    // wake sites simulate spurious events; probability keeps them from
    // firing on literally every evaluation.
    return "wake%" + std::to_string(rng->NextInt(20, 80));
  }
  switch (rng->NextBounded(4)) {
    case 0: {
      static const char* kCodes[] = {"internal", "ioerror",
                                     "resource_exhausted"};
      std::string spec =
          std::string("error:") + kCodes[rng->NextBounded(3)];
      if (rng->NextBernoulli(0.7)) {
        spec += "*" + std::to_string(rng->NextInt(1, 3));
      }
      if (rng->NextBernoulli(0.5)) {
        spec += "%" + std::to_string(rng->NextInt(25, 90));
      }
      return spec;
    }
    case 1:
      return "delay:" + std::to_string(rng->NextInt(1, 3));
    case 2:
      return "delay:1%" + std::to_string(rng->NextInt(25, 75));
    default:
      return "error*" + std::to_string(rng->NextInt(1, 2));  // internal
  }
}

// The full instrumented-site catalog (src/common/README.md).
struct SiteSpec {
  const char* name;
  bool wake_site;
};
constexpr SiteSpec kSites[] = {
    {"serve.prepare", false},       {"serve.window_cache.put", false},
    {"cache.evict", false},         {"sweep.band", false},
    {"stream.try_push", true},      {"admission.admit", false},
    {"admission.park", true},
};

// The codes a faulted request may legitimately surface. Anything else
// means a fault corrupted control flow instead of failing it cleanly.
bool ExpectedOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kIoError:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

TEST(ChaosTest, RandomFailpointSchedulesPreserveServingInvariants) {
  if (!kChaosFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out (DANGORON_FAILPOINTS=OFF)";
  }
  constexpr int kIterations = 100;
  const int64_t b = 4;
  const int64_t length = b * 24;
  const TimeSeriesMatrix data_a = SmallClimate(6, length, 8101);
  const TimeSeriesMatrix data_b = SmallClimate(6, length, 8102);

  SlidingQuery query;
  query.start = 0;
  query.end = length;
  query.window = b * 4;
  query.step = b;
  query.threshold = 0.6;

  NaiveEngine naive;
  ASSERT_TRUE(naive.Prepare(data_a).ok());
  auto truth = naive.Query(query);
  ASSERT_TRUE(truth.ok());

  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const uint64_t seed = 0xc4a05 + static_cast<uint64_t>(iteration);
    SCOPED_TRACE("iteration " + std::to_string(iteration) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    FailpointRegistry::Instance().DisarmAll();

    DangoronServerOptions options;
    options.num_threads = static_cast<int32_t>(rng.NextInt(1, 3));
    options.basic_window = b;
    // A tiny result-cache budget keeps evictions (and cache.evict fires)
    // in every iteration's hot path.
    options.result_cache_bytes = rng.NextInt(1, 8) * 1024;
    options.sketch_cache_bytes = int64_t{8} << 20;  // both datasets fit
    const bool queued = rng.NextBernoulli(0.5);
    options.admission =
        queued ? AdmissionPolicy::kQueue : AdmissionPolicy::kRefuse;
    options.degrade =
        rng.NextBernoulli(0.5) ? DegradePolicy::kAuto : DegradePolicy::kOff;
    DangoronServer server(options);
    ASSERT_TRUE(server.AddDataset("a", data_a).ok());
    ASSERT_TRUE(server.AddDataset("b", data_b).ok());

    // Arm a random subset of the catalog (possibly empty: the no-fault
    // baseline interleavings are part of the space).
    for (const SiteSpec& site : kSites) {
      if (rng.NextBernoulli(0.4)) {
        const std::string spec = RandomAction(&rng, site.wake_site);
        ASSERT_TRUE(FailpointRegistry::Instance()
                        .Configure(std::string(site.name) + "=" + spec)
                        .ok())
            << site.name << "=" << spec;
      }
    }

    const auto make_request = [&](bool streaming) {
      QueryRequest request;
      request.dataset = rng.NextBernoulli(0.7) ? "a" : "b";
      request.query = query;
      switch (rng.NextBounded(3)) {
        case 0:
          request.options.tier = ServeTier::kExact;
          break;
        case 1:
          request.options.tier = ServeTier::kApprox;
          break;
        default:
          request.options.tier = ServeTier::kAuto;
          break;
      }
      // Parked admissions wait for budget another request may never free
      // (a stream this test drains later), so under kQueue every request
      // carries a deadline bounding the park.
      if (queued || rng.NextBernoulli(0.5)) {
        request.options.deadline_ms = rng.NextInt(1, 200);
      }
      if (rng.NextBernoulli(0.5)) {
        request.options.degrade = DegradePolicy::kAuto;
      }
      if (streaming) {
        request.options.queue_capacity = rng.NextInt(1, 4);
        request.options.max_batch_windows = rng.NextInt(0, 2);
      }
      return request;
    };

    std::vector<std::future<Result<ServeResult>>> futures;
    std::vector<std::unique_ptr<WindowStream>> streams;
    std::vector<bool> cancel_stream;
    const int num_requests = static_cast<int>(rng.NextInt(3, 5));
    for (int r = 0; r < num_requests; ++r) {
      if (rng.NextBernoulli(0.5)) {
        futures.push_back(server.Submit(make_request(/*streaming=*/false)));
      } else {
        streams.push_back(
            server.SubmitStreaming(make_request(/*streaming=*/true)));
        cancel_stream.push_back(rng.NextBernoulli(0.3));
      }
    }

    // Drain everything. Termination *is* the no-deadlock assertion.
    for (size_t s = 0; s < streams.size(); ++s) {
      int64_t next_index = 0;
      const int64_t cancel_after = rng.NextInt(0, query.NumWindows());
      while (auto window = streams[s]->Next()) {
        // Contiguously ascending from 0, exactly once — even across a
        // mid-stream exact->approx degradation handoff.
        ASSERT_EQ(window->window_index, next_index);
        ++next_index;
        if (cancel_stream[s] && next_index >= cancel_after) {
          streams[s]->Cancel();
          cancel_stream[s] = false;  // cancel once
        }
      }
      EXPECT_TRUE(ExpectedOutcome(streams[s]->status()))
          << streams[s]->status().ToString();
    }
    for (auto& future : futures) {
      auto result = future.get();
      EXPECT_TRUE(ExpectedOutcome(result.status()))
          << result.status().ToString();
      if (result.ok()) {
        EXPECT_LE(result->series.num_windows(), query.NumWindows());
      }
    }

    // Quiesced: every claim taken during the storm was retired — fulfilled
    // or nulled — never leaked (a leak would hang some future joiner).
    EXPECT_EQ(server.stats().inflight_window_claims, 0);

    // Cache consistency: with faults disarmed, an exact query assembled
    // from whatever survived in the caches still matches the naive truth.
    FailpointRegistry::Instance().DisarmAll();
    auto clean = server.Query(QueryRequest{"a", query, ServeOptions{}});
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(clean->series.num_windows(), truth->num_windows());
    for (int64_t k = 0; k < truth->num_windows(); ++k) {
      const auto got = clean->series.WindowEdges(k);
      const auto expected = truth->WindowEdges(k);
      ASSERT_EQ(got.size(), expected.size()) << "window " << k;
      for (size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(got[e].i, expected[e].i) << "window " << k;
        EXPECT_EQ(got[e].j, expected[e].j) << "window " << k;
        EXPECT_NEAR(got[e].value, expected[e].value, 1e-8) << "window " << k;
      }
    }
  }
  FailpointRegistry::Instance().DisarmAll();
}

}  // namespace
}  // namespace dangoron
