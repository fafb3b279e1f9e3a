#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/sketch_block.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace dangoron {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::InvalidArgument("bad value: ", 42);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad value: 42");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad value: 42");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 7;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_EQ(*result, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

Result<int> HelperParsePositive(int v) {
  if (v <= 0) {
    return Status::InvalidArgument("not positive");
  }
  return v * 2;
}

Status HelperUseAssignOrReturn(int v, int* out) {
  ASSIGN_OR_RETURN(const int doubled, HelperParsePositive(v));
  *out = doubled;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(HelperUseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  const Status status = HelperUseAssignOrReturn(-1, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, SplitKeepsEmptyFields) {
  const std::vector<std::string> fields = Split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringsTest, SplitWhitespaceDropsRuns) {
  const std::vector<std::string> fields =
      SplitWhitespace("  alpha \t beta\n gamma  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "alpha");
  EXPECT_EQ(fields[1], "beta");
  EXPECT_EQ(fields[2], "gamma");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringsTest, EndsWith) {
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "table.csv"));
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -9999.0 ").value(), -9999.0);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").value(), 1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("12abc").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringsTest, ParseInt64Strict) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, ThousandsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSeparators(-1234567), "-1,234,567");
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() != b.NextU64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoundedIsUnbiasedEnough) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.NextBounded(10)];
  }
  for (const int count : counts) {
    EXPECT_NEAR(count, trials / 10, trials / 100);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sumsq = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.02);
  EXPECT_NEAR(sumsq / trials, 1.0, 0.02);
}

TEST(RngTest, NextIntCoversRangeInclusive) {
  Rng rng(23);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

// ------------------------------------------------------------ Math utils --

TEST(MathTest, PowersOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo(5), 8);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 5), 2);
  EXPECT_EQ(CeilDiv(11, 5), 3);
  EXPECT_EQ(CeilDiv(0, 5), 0);
}

TEST(MathTest, ClampCorrelation) {
  EXPECT_DOUBLE_EQ(ClampCorrelation(1.0000001), 1.0);
  EXPECT_DOUBLE_EQ(ClampCorrelation(-1.5), -1.0);
  EXPECT_DOUBLE_EQ(ClampCorrelation(0.5), 0.5);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsAllScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllBlocks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&hits](int64_t block) {
    hits[static_cast<size_t>(block)].fetch_add(1);
  });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int counter = 0;  // no atomics needed: must run on the calling thread
  pool.ParallelFor(10, [&counter](int64_t) { ++counter; });
  EXPECT_EQ(counter, 10);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroBlocksIsNoOp) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(0, [&touched](int64_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, AsyncReturnsValueThroughFuture) {
  ThreadPool pool(2);
  std::future<int> sum = pool.Async([] { return 40 + 2; });
  EXPECT_EQ(sum.get(), 42);
}

TEST(ThreadPoolTest, ParallelForIsReentrantFromPoolTasks) {
  // The serving layer runs whole queries as pool tasks that parallelize
  // their inner loops on the same pool; with more tasks than threads the
  // pre-rework global-counter ParallelFor would deadlock here.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> tasks;
  for (int t = 0; t < 8; ++t) {
    tasks.push_back(pool.Async([&pool, &total] {
      pool.ParallelFor(16, [&total](int64_t) { total.fetch_add(1); });
    }));
  }
  for (auto& task : tasks) {
    task.get();
  }
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, NestedParallelForCoversAllCells) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8 * 8);
  pool.ParallelFor(8, [&](int64_t outer) {
    pool.ParallelFor(8, [&, outer](int64_t inner) {
      hits[static_cast<size_t>(outer * 8 + inner)].fetch_add(1);
    });
  });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

// ---------------------------------------------------------- DeadlineToken --

TEST(DeadlineTokenTest, DefaultHasNoDeadline) {
  DeadlineToken token;
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.expired());
  EXPECT_TRUE(std::isinf(token.remaining_ms()));
  EXPECT_EQ(token.deadline(), DeadlineToken::TimePoint::max());
}

TEST(DeadlineTokenTest, MaxTimePointMeansNone) {
  // The sentinel RequestDeadline produces round-trips to "no deadline".
  DeadlineToken token(DeadlineToken::TimePoint::max());
  EXPECT_FALSE(token.has_deadline());
}

TEST(DeadlineTokenTest, FutureDeadlineNotExpired) {
  DeadlineToken token(std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(60'000));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.expired());
  EXPECT_GT(token.remaining_ms(), 0.0);
  EXPECT_LE(token.remaining_ms(), 60'000.0);
}

TEST(DeadlineTokenTest, PastDeadlineExpired) {
  DeadlineToken token(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(5));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.expired());
  EXPECT_LT(token.remaining_ms(), 0.0);
}

// ----------------------------------------------------------- SketchBlock --

bool IsAligned(const double* data, size_t alignment) {
  return reinterpret_cast<uintptr_t>(data) % alignment == 0;
}

// The AnonHugePages of the /proc/self/smaps mapping that holds `address`,
// in kB; -1 when no mapping holds it.
int64_t AnonHugePagesKbAt(const void* address) {
  const uintptr_t at = reinterpret_cast<uintptr_t>(address);
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    uintptr_t begin = 0;
    uintptr_t end = 0;
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR, &begin, &end) ==
        2) {
      inside = begin <= at && at < end;
      continue;
    }
    long long kb = 0;
    if (inside &&
        std::sscanf(line.c_str(), "AnonHugePages: %lld kB", &kb) == 1) {
      return kb;
    }
  }
  return -1;
}

constexpr size_t kHugePageDoubles = kHugePageBytes / sizeof(double);

TEST(SketchBlockTest, LargeBlocksStartOnAHugePageBoundary) {
  TrimSketchRecycler();
  for (const size_t doubles : {kHugePageDoubles, 4 * kHugePageDoubles + 3}) {
    const double* first = nullptr;
    {
      SketchBlock fresh(doubles);
      first = fresh.data();
      EXPECT_TRUE(IsAligned(first, kHugePageBytes)) << doubles;
    }
    SketchBlock recycled(doubles);
    EXPECT_EQ(recycled.data(), first) << doubles;
    EXPECT_TRUE(IsAligned(recycled.data(), kHugePageBytes)) << doubles;
  }
  TrimSketchRecycler();
}

TEST(SketchBlockTest, SmallBlocksStayPageAligned) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  for (const size_t doubles : {size_t{3}, kHugePageDoubles - 1}) {
    const PageStorage storage = MapPageStorage(doubles);
    EXPECT_TRUE(IsAligned(storage.get(), page)) << doubles;
  }
}

TEST(SketchBlockTest, LastDoubleIsWritableAndTheByteAfterIsPoisoned) {
  for (const size_t doubles : {size_t{3}, kHugePageDoubles - 1,
                               kHugePageDoubles, 4 * kHugePageDoubles + 3}) {
    const PageStorage storage = MapPageStorage(doubles);
    double* last = storage.get() + doubles - 1;
    *last = 42.0;
    EXPECT_EQ(*last, 42.0) << doubles;
#if defined(__SANITIZE_ADDRESS__)
    EXPECT_TRUE(__asan_address_is_poisoned(last + 1)) << doubles;
#endif
  }
}

TEST(SketchBlockTest, TouchedLargeBlockIsBackedByHugePages) {
  std::ifstream mode_file("/sys/kernel/mm/transparent_hugepage/enabled");
  const std::string mode((std::istreambuf_iterator<char>(mode_file)),
                         std::istreambuf_iterator<char>());
  if (mode.find("[always]") == std::string::npos &&
      mode.find("[madvise]") == std::string::npos) {
    GTEST_SKIP() << "transparent huge pages are off: '" << mode << "'";
  }
  const size_t doubles = 4 * kHugePageDoubles;
  const PageStorage storage = MapPageStorage(doubles);
  std::fill(storage.get(), storage.get() + doubles, 1.0);
  EXPECT_GT(AnonHugePagesKbAt(storage.get()), 0);
}

// -------------------------------------------------------------- Failpoint --

#if DANGORON_FAILPOINTS_ENABLED
constexpr bool kFailpointsCompiled = true;
#else
constexpr bool kFailpointsCompiled = false;
#endif

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFailpointsCompiled) {
      GTEST_SKIP() << "failpoints compiled out (DANGORON_FAILPOINTS=OFF)";
    }
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(FailpointTest, DormantSiteFiresNothing) {
  EXPECT_TRUE(FailpointFire("test.dormant").ok());
  EXPECT_FALSE(FailpointFireWake("test.dormant"));
  Failpoint* fp = FailpointRegistry::Instance().GetOrCreate("test.dormant");
  EXPECT_FALSE(fp->armed());
  EXPECT_EQ(fp->hits(), 0);
}

TEST_F(FailpointTest, ErrorActionInjectsStatus) {
  Failpoint* fp = FailpointRegistry::Instance().GetOrCreate("test.error");
  ASSERT_TRUE(fp->Set("error:ioerror").ok());
  Status fired = fp->Fire();
  EXPECT_EQ(fired.code(), StatusCode::kIoError);
  EXPECT_NE(fired.message().find("test.error"), std::string::npos);
  fp->Disarm();
  EXPECT_TRUE(fp->Fire().ok());
}

TEST_F(FailpointTest, DefaultErrorCodeIsInternal) {
  Failpoint* fp = FailpointRegistry::Instance().GetOrCreate("test.default");
  ASSERT_TRUE(fp->Set("error").ok());
  EXPECT_EQ(fp->Fire().code(), StatusCode::kInternal);
}

TEST_F(FailpointTest, CountLimitAutoDisarms) {
  Failpoint* fp = FailpointRegistry::Instance().GetOrCreate("test.count");
  ASSERT_TRUE(fp->Set("error:resource_exhausted*2").ok());
  EXPECT_EQ(fp->Fire().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fp->Fire().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(fp->Fire().ok());  // exhausted: dormant again
  EXPECT_FALSE(fp->armed());
  EXPECT_EQ(fp->hits(), 2);
}

TEST_F(FailpointTest, DelayActionSleepsThenOk) {
  Failpoint* fp = FailpointRegistry::Instance().GetOrCreate("test.delay");
  ASSERT_TRUE(fp->Set("delay:20*1").ok());
  const auto before = std::chrono::steady_clock::now();
  EXPECT_TRUE(fp->Fire().ok());
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - before)
                           .count();
  EXPECT_GE(elapsed, 15.0);  // scheduler slop below, never above
}

TEST_F(FailpointTest, WakeActionOnlyThroughFireWake) {
  Failpoint* fp = FailpointRegistry::Instance().GetOrCreate("test.wake");
  ASSERT_TRUE(fp->Set("wake*1").ok());
  EXPECT_TRUE(fp->Fire().ok());  // error/delay channel ignores wake actions
  EXPECT_TRUE(fp->FireWake());
  EXPECT_FALSE(fp->FireWake());  // count consumed
}

TEST_F(FailpointTest, PercentIsDeterministicPerSite) {
  // The %P gate draws from a per-site PCG stream seeded by the site name:
  // two registries' same-named sites replay the same decisions. Here we
  // just pin down that 100% always fires and 1% mostly does not.
  Failpoint* always = FailpointRegistry::Instance().GetOrCreate("test.p100");
  ASSERT_TRUE(always->Set("error%100").ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(always->Fire().ok());
  }
  Failpoint* rare = FailpointRegistry::Instance().GetOrCreate("test.p1");
  ASSERT_TRUE(rare->Set("error%1").ok());
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    if (!rare->Fire().ok()) {
      ++fired;
    }
  }
  EXPECT_LT(fired, 30);  // ~2 expected; 30 would be a broken gate
}

TEST_F(FailpointTest, RejectsMalformedSpecs) {
  Failpoint* fp = FailpointRegistry::Instance().GetOrCreate("test.bad");
  EXPECT_FALSE(fp->Set("explode").ok());
  EXPECT_FALSE(fp->Set("error:nosuchcode").ok());
  EXPECT_FALSE(fp->Set("delay").ok());       // delay wants :ms
  EXPECT_FALSE(fp->Set("error*0").ok());     // count must be > 0
  EXPECT_FALSE(fp->Set("error%0").ok());     // percent in [1, 100]
  EXPECT_FALSE(fp->Set("error%101").ok());
  EXPECT_FALSE(fp->armed());
}

TEST_F(FailpointTest, ConfigureArmsMultipleSites) {
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("test.a=error:cancelled;test.b=wake")
                  .ok());
  EXPECT_EQ(FailpointFire("test.a").code(), StatusCode::kCancelled);
  EXPECT_TRUE(FailpointFireWake("test.b"));
  EXPECT_EQ(FailpointRegistry::Instance().ArmedSites().size(), 2u);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_TRUE(FailpointRegistry::Instance().ArmedSites().empty());
  EXPECT_FALSE(FailpointsArmed());
}

TEST_F(FailpointTest, ArmedFlagTracksGlobally) {
  EXPECT_FALSE(FailpointsArmed());
  Failpoint* fp = FailpointRegistry::Instance().GetOrCreate("test.flag");
  ASSERT_TRUE(fp->Set("delay:0").ok());
  EXPECT_TRUE(FailpointsArmed());
  fp->Disarm();
  EXPECT_FALSE(FailpointsArmed());
}

TEST_F(FailpointTest, MacrosRouteThroughRegistry) {
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("test.macro=error:deadline_exceeded*1")
                  .ok());
  auto guarded = []() -> Status {
    DANGORON_FAILPOINT("test.macro");
    return Status::Ok();
  };
  EXPECT_EQ(guarded().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(guarded().ok());  // single charge consumed
}

}  // namespace
}  // namespace dangoron
