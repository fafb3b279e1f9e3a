// Network front-end tests: LanedTaskPool scheduling, WireServer lane
// classification, and socketpair-driven end-to-end runs of the full wire
// path — including the acceptance-critical properties: wire results are
// byte-identical to in-process streaming, and a client disconnect (or
// cancel frame) cancels the producer with no leaked window claims.

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sync.h"
#include "net/task_lanes.h"
#include "net/wire_server.h"
#include "serve/server.h"
#include "ts/generators.h"
#include "wire/client.h"
#include "wire/wire_format.h"

namespace dangoron {
namespace {

// ---------------------------------------------------------- LanedTaskPool --

TEST(LanedTaskPoolTest, StrictPriorityAcrossLanes) {
  LanedTaskPool pool(1);
  Mutex mutex;
  CondVar cv;
  bool release = false;
  std::vector<TaskLane> order;

  // Occupy the single worker so the next three posts pile up queued...
  ASSERT_TRUE(pool.Post(TaskLane::kHigh, [&] {
    MutexLock lock(mutex);
    while (!release) {
      cv.Wait(mutex);
    }
  }));
  // ...then post in worst-case order: low first, high last.
  for (const TaskLane lane :
       {TaskLane::kLow, TaskLane::kMedium, TaskLane::kHigh}) {
    ASSERT_TRUE(pool.Post(lane, [&, lane] {
      MutexLock lock(mutex);
      order.push_back(lane);
    }));
  }
  {
    MutexLock lock(mutex);
    release = true;
  }
  cv.NotifyAll();
  pool.Shutdown();

  // The worker must have drained them highest-first regardless of arrival.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], TaskLane::kHigh);
  EXPECT_EQ(order[1], TaskLane::kMedium);
  EXPECT_EQ(order[2], TaskLane::kLow);

  const TaskLaneStats stats = pool.stats();
  for (int lane = 0; lane < kNumTaskLanes; ++lane) {
    EXPECT_EQ(stats.posted[lane], stats.executed[lane]);
    EXPECT_EQ(stats.queued[lane], 0);
  }
}

TEST(LanedTaskPoolTest, ShutdownDrainsQueuedWorkThenRefuses) {
  LanedTaskPool pool(2);
  std::atomic<int> executed{0};
  for (int task = 0; task < 64; ++task) {
    ASSERT_TRUE(pool.Post(static_cast<TaskLane>(task % kNumTaskLanes),
                          [&] { executed.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(executed.load(), 64);
  EXPECT_FALSE(pool.Post(TaskLane::kHigh, [&] { executed.fetch_add(1); }));
  EXPECT_EQ(executed.load(), 64);
}

// -------------------------------------------------------- shared fixture --

constexpr int64_t kBasicWindow = 8;
constexpr int64_t kNumSeries = 16;
constexpr int64_t kLength = kBasicWindow * 40;  // 320 samples

SlidingQuery TestQuery() {
  SlidingQuery query;
  query.start = 0;
  query.end = kLength;
  query.window = 4 * kBasicWindow;
  query.step = kBasicWindow;
  query.threshold = 0.1;
  query.absolute = true;  // dense edge sets: exercises the delta packing
  return query;
}

TimeSeriesMatrix TestData() {
  Rng rng(3);
  return GenerateWhiteNoise(kNumSeries, kLength, &rng);
}

class WireE2ETest : public ::testing::Test {
 protected:
  WireE2ETest() : server_(ServerOptions()) {
    CHECK(server_.AddDataset("d", TestData()).ok());
  }

  // Tests that arm failpoints disarm them here too, so a failed assertion
  // cannot leak a schedule into the rest of the suite.
  void TearDown() override {
#if DANGORON_FAILPOINTS_ENABLED
    FailpointRegistry::Instance().DisarmAll();
#endif
  }

  static DangoronServerOptions ServerOptions() {
    DangoronServerOptions options;
    options.num_threads = 2;
    options.basic_window = kBasicWindow;
    return options;
  }

  /// Starts a listener-less WireServer and hands back a connected client
  /// over a socketpair — the whole wire path with no network stack.
  std::unique_ptr<WireClient> ConnectOverSocketpair(
      WireServer* wire, int* raw_peer = nullptr) {
    int fds[2];
    CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    CHECK(wire->AddConnection(fds[0]).ok());
    if (raw_peer != nullptr) {
      *raw_peer = fds[1];
      return nullptr;
    }
    return WireClient::Adopt(fds[1]);
  }

  /// Polls `predicate` for up to two seconds — stats updated by the IO
  /// thread and workers land asynchronously after a disconnect.
  static bool PollFor(const std::function<bool()>& predicate) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return predicate();
  }

  DangoronServer server_;
};

// ----------------------------------------------------------- ClassifyLane --

TEST_F(WireE2ETest, ClassifyLaneRoutesByDeadlineAndWarmth) {
  WireServerOptions options;
  options.port = -1;  // classification needs no sockets at all
  WireServer wire(&server_, options);

  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();

  // Cold dataset, no deadline: an index build must not jump the queue.
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kLow);

  // Cold but deadline-bound: middle lane.
  request.options.deadline_ms = 10000;
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kMedium);

  // A tight deadline rides high regardless of cache state.
  request.options.deadline_ms = 100;
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kHigh);

  // An exact query caches its windows, not a sketch: the same request now
  // starts from the window cache and rides high even without a deadline.
  ASSERT_TRUE(
      server_.Query(QueryRequest{"d", TestQuery(), ServeOptions{}}).ok());
  EXPECT_FALSE(server_.HasPreparedSketch("d"));
  request.options.deadline_ms.reset();
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kHigh);

  // Another threshold family has no cached windows: cold again.
  request.query.threshold = 0.6;
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kLow);

  // Warm the sketch (the approx tier builds and caches full sketches);
  // now every request on the dataset is high-lane.
  QueryRequest warm{"d", TestQuery(), ServeOptions{}};
  warm.options.tier = ServeTier::kApprox;
  ASSERT_TRUE(server_.Query(warm).ok());
  ASSERT_TRUE(server_.HasPreparedSketch("d"));
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kHigh);
}

// ------------------------------------------------------------ end to end --

TEST_F(WireE2ETest, SocketpairStreamIsByteIdenticalToInProcess) {
  WireServerOptions options;
  options.port = -1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  auto client = ConnectOverSocketpair(&wire);

  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  ASSERT_TRUE(client->Submit(request).ok());

  // Drain the wire stream and the in-process stream side by side, comparing
  // the *encoded frame bytes* of every window: the wire must not perturb a
  // single bit of any correlation value or edge index.
  QueryRequest in_process;
  in_process.dataset = "d";
  in_process.query = TestQuery();
  auto reference = server_.SubmitStreaming(in_process);

  int64_t windows = 0;
  while (true) {
    auto from_wire = client->Next();
    ASSERT_TRUE(from_wire.ok()) << from_wire.status().message();
    auto from_ref = reference->Next();
    if (!from_wire->has_value()) {
      EXPECT_FALSE(from_ref.has_value());
      break;
    }
    ASSERT_TRUE(from_ref.has_value());
    std::string wire_bytes;
    std::string ref_bytes;
    EncodeWindowFrame((*from_wire)->window_index, *(*from_wire)->edges,
                      &wire_bytes);
    EncodeWindowFrame(from_ref->window_index, *from_ref->edges, &ref_bytes);
    ASSERT_EQ(wire_bytes.size(), ref_bytes.size());
    ASSERT_EQ(std::memcmp(wire_bytes.data(), ref_bytes.data(),
                          wire_bytes.size()),
              0)
        << "window " << from_ref->window_index
        << " differs between wire and in-process delivery";
    ++windows;
  }
  EXPECT_TRUE(reference->status().ok());
  EXPECT_TRUE(client->result_status().ok())
      << client->result_status().message();
  const int64_t expected_windows =
      (TestQuery().end - TestQuery().window) / TestQuery().step + 1;
  EXPECT_EQ(windows, expected_windows);
  EXPECT_EQ(client->summary().windows_delivered, windows);

  // Back-to-back request on the same connection: the protocol is
  // sequential, not one-shot.
  ASSERT_TRUE(client->Submit(request).ok());
  int64_t rerun_windows = 0;
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
    ++rerun_windows;
  }
  EXPECT_TRUE(client->result_status().ok());
  EXPECT_EQ(rerun_windows, expected_windows);

  wire.Stop();
  const WireServerStats stats = wire.stats();
  EXPECT_EQ(stats.connections_adopted, 1);
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.protocol_errors, 0);
  EXPECT_EQ(server_.stats().inflight_window_claims, 0);
}

TEST_F(WireE2ETest, EndZeroMeansFullRangeAndFingerprintIsChecked) {
  WireServerOptions options;
  options.port = -1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  auto client = ConnectOverSocketpair(&wire);

  // end = 0: the server resolves it to the dataset's full length — the
  // remote caller does not need to know the series length.
  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  request.query.end = 0;
  auto fingerprint = server_.DatasetFingerprint("d");
  ASSERT_TRUE(fingerprint.ok());
  request.expected_fingerprint = *fingerprint;
  ASSERT_TRUE(client->Submit(request).ok());
  int64_t windows = 0;
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
    ++windows;
  }
  ASSERT_TRUE(client->result_status().ok())
      << client->result_status().message();
  EXPECT_EQ(windows,
            (kLength - TestQuery().window) / TestQuery().step + 1);

  // A stale fingerprint must be refused before any evaluation: a router
  // never silently queries a shard whose data drifted.
  request.expected_fingerprint = *fingerprint + 1;
  ASSERT_TRUE(client->Submit(request).ok());
  auto window = client->Next();
  ASSERT_TRUE(window.ok());
  EXPECT_FALSE(window->has_value());
  EXPECT_EQ(client->result_status().code(),
            StatusCode::kFailedPrecondition);

  // Unknown dataset: NotFound, zero windows, connection still usable.
  request.dataset = "nope";
  request.expected_fingerprint = 0;
  ASSERT_TRUE(client->Submit(request).ok());
  window = client->Next();
  ASSERT_TRUE(window.ok());
  EXPECT_FALSE(window->has_value());
  EXPECT_EQ(client->result_status().code(), StatusCode::kNotFound);

  wire.Stop();
}

TEST_F(WireE2ETest, DisconnectMidStreamCancelsProducer) {
  WireServerOptions options;
  options.port = -1;
  // A tiny outbuf watermark so the draining worker blocks early: the
  // disconnect must reach a producer that is genuinely mid-stream.
  options.outbuf_high_watermark = int64_t{1} << 14;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  // The 37 windows are small enough to fit the queue, the outbuf and the
  // socket buffers, so a fast producer could finish before the hangup
  // lands. Stalling every sweep band (three 16-window runs) keeps it
  // provably mid-stream: after the first window it still owes two 200 ms
  // bands when the client vanishes.
#if DANGORON_FAILPOINTS_ENABLED
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("sweep.band=delay:200").ok());
#endif

  {
    auto client = ConnectOverSocketpair(&wire);
    WireRequest request;
    request.dataset = "d";
    request.query = TestQuery();
    request.options.queue_capacity = 2;  // tight producer queue
    ASSERT_TRUE(client->Submit(request).ok());
    // Read exactly one window, then vanish (the destructor closes the fd).
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    ASSERT_TRUE(window->has_value());
  }

  // The disconnect propagates: epoll sees the hangup, the IO thread
  // cancels the active stream, the producer aborts, and both layers count
  // it. Poll — all of that is asynchronous.
  EXPECT_TRUE(PollFor([&] { return wire.stats().disconnect_cancels >= 1; }))
      << "wire layer never mapped the disconnect to a cancel";
  EXPECT_TRUE(
      PollFor([&] { return server_.stats().streams_cancelled >= 1; }))
      << "serving layer never saw the cancelled stream";

  // No leaked claims once the cancelled producer unwinds, and the server
  // still serves: a fresh connection completes the same query in full.
  EXPECT_TRUE(PollFor(
      [&] { return server_.stats().inflight_window_claims == 0; }));
#if DANGORON_FAILPOINTS_ENABLED
  FailpointRegistry::Instance().DisarmAll();
#endif
  auto client = ConnectOverSocketpair(&wire);
  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  ASSERT_TRUE(client->Submit(request).ok());
  int64_t windows = 0;
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
    ++windows;
  }
  EXPECT_TRUE(client->result_status().ok());
  EXPECT_EQ(windows,
            (TestQuery().end - TestQuery().window) / TestQuery().step + 1);

  wire.Stop();
  EXPECT_EQ(server_.stats().inflight_window_claims, 0);
}

TEST_F(WireE2ETest, CancelFrameAbortsTheStream) {
  WireServerOptions options;
  options.port = -1;
  options.outbuf_high_watermark = int64_t{1} << 14;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  auto client = ConnectOverSocketpair(&wire);

  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  request.options.queue_capacity = 2;
  ASSERT_TRUE(client->Submit(request).ok());

  // With a 16 KiB watermark and a 2-window queue the producer cannot get
  // anywhere near the end of a ~37-window dense stream before the cancel
  // frame lands, so the terminal status is deterministically Cancelled.
  ASSERT_TRUE(client->Cancel().ok());
  int64_t windows = 0;
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok()) << window.status().message();
    if (!window->has_value()) {
      break;
    }
    ++windows;  // buffered frames from before the cancel still arrive
  }
  EXPECT_EQ(client->result_status().code(), StatusCode::kCancelled);
  EXPECT_EQ(client->summary().windows_delivered, windows);

  wire.Stop();
  EXPECT_EQ(wire.stats().cancel_frames, 1);
  EXPECT_EQ(server_.stats().inflight_window_claims, 0);
}

TEST_F(WireE2ETest, BadMagicIsAProtocolError) {
  WireServerOptions options;
  options.port = -1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  int raw = -1;
  ConnectOverSocketpair(&wire, &raw);
  ASSERT_GE(raw, 0);

  const char junk[] = "HTTP/1.1 GET /\r\n";
  ASSERT_EQ(send(raw, junk, sizeof(junk) - 1, 0),
            static_cast<ssize_t>(sizeof(junk) - 1));

  // The server answers with a terminal error status frame, then closes.
  FrameReader reader(/*expect_preamble=*/false);
  std::vector<uint8_t> buffer(4096);
  bool saw_status = false;
  bool closed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline && !closed) {
    const ssize_t n = recv(raw, buffer.data(), buffer.size(), MSG_DONTWAIT);
    if (n == 0) {
      closed = true;
      break;
    }
    if (n < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    reader.Feed(buffer.data(), static_cast<size_t>(n));
    Frame frame;
    bool have = false;
    ASSERT_TRUE(reader.Next(&frame, &have).ok());
    if (have) {
      ASSERT_EQ(frame.type, FrameType::kStatus);
      Status status;
      WireSummary summary;
      ASSERT_TRUE(DecodeStatusPayload(frame.payload, &status, &summary).ok());
      EXPECT_FALSE(status.ok());
      saw_status = true;
    }
  }
  EXPECT_TRUE(saw_status);
  EXPECT_TRUE(closed);
  close(raw);

  EXPECT_TRUE(PollFor([&] { return wire.stats().protocol_errors >= 1; }));
  wire.Stop();
}

TEST_F(WireE2ETest, HostileRequestLengthIsAProtocolErrorNotACrash) {
  // Regression: a request frame whose dataset-length varint encodes a
  // value near 2^64 once wrapped the decoder's bounds check and threw an
  // uncaught std::length_error on the IO thread — a handful of hostile
  // bytes after connect took the whole daemon down. It must instead be a
  // per-connection protocol error that leaves the server serving.
  WireServerOptions options;
  options.port = -1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  int raw = -1;
  ConnectOverSocketpair(&wire, &raw);
  ASSERT_GE(raw, 0);

  std::string bytes;
  AppendPreamble(&bytes);
  std::string payload;
  PutVarint(std::numeric_limits<uint64_t>::max(), &payload);  // dataset len
  payload.append(30, 'x');
  AppendFrameHeader(FrameType::kRequest, payload.size(), &bytes);
  bytes.append(payload);
  ASSERT_EQ(send(raw, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  // The connection dies as a protocol error...
  EXPECT_TRUE(PollFor([&] { return wire.stats().protocol_errors >= 1; }));
  close(raw);

  // ...and the server is still alive: a fresh connection runs the same
  // query to a clean Ok status.
  auto client = ConnectOverSocketpair(&wire);
  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  ASSERT_TRUE(client->Submit(request).ok());
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
  }
  EXPECT_TRUE(client->result_status().ok());
  wire.Stop();
}

// The TCP listener under concurrent load: 32 clients, each on its own
// socket and all connected at once, send 4 back-to-back requests each.
// Every request completes, and every delivered window is byte-identical to
// the in-process answer of a separate server over the same data (so the
// wire requests race cold windows through server_'s claims and caches).
TEST_F(WireE2ETest, TcpListenerServesARealSocket) {
  constexpr int kConnections = 32;
  constexpr int kRequestsPerConnection = 4;
  DangoronServer reference_server(ServerOptions());
  ASSERT_TRUE(reference_server.AddDataset("d", TestData()).ok());
  auto reference = reference_server.SubmitStreaming(
      QueryRequest{"d", TestQuery(), ServeOptions{}});
  std::vector<std::string> expected;
  while (auto window = reference->Next()) {
    EncodeWindowFrame(window->window_index, *window->edges,
                      &expected.emplace_back());
  }
  ASSERT_TRUE(reference->status().ok());
  ASSERT_EQ(static_cast<int64_t>(expected.size()),
            (TestQuery().end - TestQuery().window) / TestQuery().step + 1);

  WireServerOptions options;
  options.port = 0;  // ephemeral
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  ASSERT_GT(wire.port(), 0);

  std::latch all_connected(kConnections);
  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  auto run_client = [&] {
    auto client = WireClient::ConnectTcp("127.0.0.1", wire.port());
    all_connected.arrive_and_wait();
    if (!client.ok()) {
      failures += kRequestsPerConnection;
      return;
    }
    WireRequest request;
    request.dataset = "d";
    request.query = TestQuery();
    for (int r = 0; r < kRequestsPerConnection; ++r) {
      if (!(*client)->Submit(request).ok()) {
        failures += kRequestsPerConnection - r;
        return;  // the connection is unusable past a transport error
      }
      size_t windows = 0;
      bool exact = true;
      while (true) {
        auto window = (*client)->Next();
        if (!window.ok()) {
          failures += kRequestsPerConnection - r;
          return;
        }
        if (!window->has_value()) {
          break;
        }
        std::string bytes;
        EncodeWindowFrame((*window)->window_index, *(*window)->edges, &bytes);
        exact = exact && windows < expected.size() &&
                bytes == expected[windows];
        ++windows;
      }
      if (!(*client)->result_status().ok()) {
        ++failures;
      } else if (!exact || windows != expected.size() ||
                 (*client)->summary().windows_delivered !=
                     static_cast<int64_t>(windows)) {
        ++mismatches;
      } else {
        ++completed;
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back(run_client);
  }
  for (std::thread& client : clients) {
    client.join();
  }
  wire.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(completed.load(), kConnections * kRequestsPerConnection);
  EXPECT_EQ(wire.stats().connections_accepted, kConnections);
}

// docs/WIRE_PROTOCOL.md §4 lets a client send its next Request the instant
// the terminal Status frame arrives. The server must have retired the
// previous request by then, or it refuses the legal request as pipelined
// and closes the connection. The `wire.status_queued` delay parks the
// worker right after it hands the Status frame to the IO thread — the
// widest that race can be — on a tenth of the requests.
TEST_F(WireE2ETest, BackToBackRequestsAreNeverRefusedAsPipelined) {
  WireServerOptions options;
  options.port = -1;
  options.worker_threads = 1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  auto client = ConnectOverSocketpair(&wire);
#if DANGORON_FAILPOINTS_ENABLED
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("wire.status_queued=delay:1%10")
                  .ok());
#endif

  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  request.query.end = 8 * kBasicWindow;  // five windows: requests are quick
  constexpr int kRequests = 500;
  int refused = 0;
  for (int r = 0; r < kRequests && refused == 0; ++r) {
    if (!client->Submit(request).ok()) {
      ++refused;  // the server already hung up on an earlier refusal
      break;
    }
    while (true) {
      auto window = client->Next();
      if (!window.ok()) {
        ++refused;
        break;
      }
      if (!window->has_value()) {
        if (!client->result_status().ok()) {
          ++refused;
        }
        break;
      }
    }
  }
#if DANGORON_FAILPOINTS_ENABLED
  FailpointRegistry::Instance().DisarmAll();
#endif
  EXPECT_EQ(refused, 0) << client->result_status().message();
  wire.Stop();
  EXPECT_EQ(wire.stats().requests, kRequests);
  EXPECT_EQ(wire.stats().protocol_errors, 0);
}

}  // namespace
}  // namespace dangoron
