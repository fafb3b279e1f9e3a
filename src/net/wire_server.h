#ifndef DANGORON_NET_WIRE_SERVER_H_
#define DANGORON_NET_WIRE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "net/task_lanes.h"
#include "net/window_source.h"
#include "serve/server.h"
#include "wire/wire_format.h"

namespace dangoron {

/// Options of the network front end.
struct WireServerOptions {
  /// IPv4 address the listener binds (loopback by default — production
  /// deployments front this with their own routing layer).
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port (read it back via `port()`), -1
  /// runs with no listener at all — connections arrive only through
  /// `AddConnection` (how the socketpair tests and in-process benchmarks
  /// drive the server without touching the network stack).
  int port = 0;

  /// Worker threads draining request streams (0 = max(8, hardware
  /// concurrency)). A worker is occupied for the lifetime of one in-flight
  /// response — it blocks on the consumer's pace, not on compute (the
  /// evaluation itself runs on DangoronServer's pool, or on the shards
  /// behind a router) — so this bounds concurrent in-flight wire
  /// responses, routed ones included, and oversubscribing the core count
  /// is correct.
  int32_t worker_threads = 0;

  /// Connections beyond this are accepted and immediately closed.
  int64_t max_connections = 256;

  /// Per-connection cap on buffered-but-unsent response bytes. When the
  /// kernel socket buffer and this buffer are both full — the client reads
  /// slower than windows are produced — the worker blocks before encoding
  /// the next window, the stream's bounded queue fills behind it, and the
  /// producer's TryPush fails: socket backpressure becomes WindowStream
  /// backpressure, and a slow client costs one worker plus bounded memory,
  /// never unbounded buffering.
  int64_t outbuf_high_watermark = int64_t{1} << 20;

  /// Requests with a deadline at or under this many milliseconds ride the
  /// high lane regardless of cache state (see ClassifyLane).
  int64_t high_lane_deadline_ms = 250;
};

/// Aggregate front-end counters (monotonic since Start, except the active
/// gauge).
struct WireServerStats {
  int64_t connections_accepted = 0;  ///< via the TCP listener
  int64_t connections_adopted = 0;   ///< via AddConnection
  int64_t connections_active = 0;    ///< gauge: currently registered
  int64_t connections_rejected = 0;  ///< over max_connections
  int64_t requests = 0;              ///< request frames dispatched
  int64_t protocol_errors = 0;       ///< connections killed by bad bytes
  int64_t cancel_frames = 0;         ///< explicit client cancels
  /// Disconnects that cancelled an in-flight stream — the wire face of
  /// DangoronServerStats::streams_cancelled.
  int64_t disconnect_cancels = 0;
  int64_t oversized_windows = 0;     ///< windows too dense to frame
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  TaskLaneStats lanes;
};

/// The network front end: an epoll event loop speaking the framed wire
/// protocol (docs/WIRE_PROTOCOL.md) on many concurrent connections, and a
/// priority-laned worker pool bridging decoded requests onto a
/// WindowSource — one DangoronServer's `SubmitStreaming`, or a
/// RouterServer's shard merge. It owns the only listener and epoll loop
/// under src/ (scripts/check_invariants.py enforces it).
///
/// Division of labor:
/// - One IO thread owns epoll, the listener, and every socket: it accepts,
///   reads bytes into per-connection FrameReaders, dispatches decoded
///   request frames to the lane pool, and flushes buffered response bytes
///   when sockets turn writable. It never computes and never blocks.
/// - Lane workers own requests end to end: open the source's stream,
///   drain its WindowStream, encode each window into the connection's
///   output buffer (blocking on the high watermark — backpressure), and
///   finish with the terminal status frame.
///
/// Cancellation: a client disconnect (or explicit cancel frame) reaches the
/// IO thread as an epoll event; it cancels the connection's active stream,
/// which aborts the producer at its next batch boundary and unblocks the
/// draining worker — `streams_cancelled` in the serving stats counts these.
///
/// Lifecycle: construct over a DangoronServer or a WindowSource (not owned;
/// must outlive Stop), Start(), then Stop() or destroy. Thread-safe.
class WireServer {
 public:
  /// Serves one DangoronServer through an adapter that adds the shard-side
  /// request semantics: the expected-fingerprint check and `end == 0`
  /// resolution.
  explicit WireServer(DangoronServer* server,
                      const WireServerOptions& options = {});
  WireServer(WindowSource* source, const WireServerOptions& options = {});
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds the listener (unless `options.port` == -1), spawns the IO
  /// thread and lane workers.
  Status Start();

  /// Adopts an already-connected socket (e.g. one end of a socketpair) as
  /// a client connection; takes ownership of `fd`. The peer must speak the
  /// preamble like any other client.
  Status AddConnection(int fd);

  /// Shuts down: closes every connection (cancelling in-flight streams),
  /// joins the IO thread, drains the lane workers. Idempotent.
  void Stop();

  /// The bound listener port (after Start; 0 when listener-less).
  int port() const { return bound_port_; }

  WireServerStats stats() const;

  /// Lane routing of one request — exposed for tests and the docs:
  /// - high: deadline <= high_lane_deadline_ms, or the request starts warm
  ///   (WindowSource::StartsWarm; for a DangoronServer, its full sketch is
  ///   resident or, exact tier, its first window is cached — warm requests
  ///   finish fast; serving them first keeps tail latency flat under cold
  ///   backlog; a router never claims warm);
  /// - medium: cold but deadline-bound;
  /// - low: cold prepares with no deadline — an index build must never
  ///   queue ahead of a microsecond cache hit.
  TaskLane ClassifyLane(const WireRequest& request) const;

 private:
  struct Connection;
  using ConnectionPtr = std::shared_ptr<Connection>;

  void IoLoop();
  void HandleWake() REQUIRES(io_role_);
  void AcceptNew() REQUIRES(io_role_);
  /// fd-exhaustion path of AcceptNew: closes the reserved spare fd, accepts
  /// the pending connection into the freed slot and closes it (counted as
  /// rejected), then re-reserves. Without this the level-triggered listener
  /// spins the IO loop at 100% CPU under EMFILE/ENFILE. If even the freed
  /// slot cannot accept, the listener is disarmed until a connection closes.
  void ShedPendingConnection() REQUIRES(io_role_);
  void RegisterConnection(ConnectionPtr conn, bool adopted)
      REQUIRES(io_role_);
  void HandleReadable(const ConnectionPtr& conn) REQUIRES(io_role_);
  void HandleFrame(const ConnectionPtr& conn, const Frame& frame)
      REQUIRES(io_role_);
  /// Kills a connection that violated the protocol: best-effort error
  /// status frame, then close-after-flush.
  void ProtocolError(const ConnectionPtr& conn, const Status& status)
      REQUIRES(io_role_);
  /// Peer vanished: cancel the active stream, tear the connection down.
  void HandleDisconnect(const ConnectionPtr& conn) REQUIRES(io_role_);
  /// Flushes the connection's output buffer to the socket; arms/disarms
  /// EPOLLOUT; closes once drained when close_after_flush is set.
  void FlushConnection(const ConnectionPtr& conn) REQUIRES(io_role_);
  void UpdateEpoll(const ConnectionPtr& conn, bool want_write)
      REQUIRES(io_role_);
  void CloseConnection(const ConnectionPtr& conn) REQUIRES(io_role_);

  /// Worker-side body of one request.
  void RunRequest(ConnectionPtr conn, WireRequest request);
  /// Worker-side append to the connection's output buffer; blocks on the
  /// high watermark; false once the connection is closed. `ends_request`
  /// marks the terminal Status frame: the request is retired under the same
  /// lock that queues it, so a client's next request is never pipelined.
  bool WriteToConnection(const ConnectionPtr& conn, const std::string& bytes,
                         bool ends_request = false);
  /// Asks the IO thread to flush `conn` (eventfd wake).
  void RequestFlush(const ConnectionPtr& conn);

  /// The DangoronServer adapter, when constructed over a server.
  const std::unique_ptr<WindowSource> owned_source_;
  WindowSource* const source_;
  const WireServerOptions options_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::thread io_thread_;
  std::unique_ptr<LanedTaskPool> pool_;

  // The IO thread's identity capability: single-threaded ownership of the
  // epoll set, checked at compile time (REQUIRES on the handlers above) and
  // at runtime (AssertHeld). Start seeds the state below from the caller's
  // thread before the IO thread exists, IoLoop adopts the role on entry,
  // and Stop re-adopts after joining it.
  ThreadRole io_role_;
  int spare_fd_ GUARDED_BY(io_role_) = -1;  ///< for ShedPendingConnection
  /// Listener currently in the epoll set.
  bool listener_armed_ GUARDED_BY(io_role_) = false;
  /// fd -> connection (only the IO thread mutates).
  std::unordered_map<int, ConnectionPtr> connections_ GUARDED_BY(io_role_);

  // Cross-thread handoff to the IO thread, drained on eventfd wake.
  Mutex pending_mutex_;
  std::vector<ConnectionPtr> pending_adds_ GUARDED_BY(pending_mutex_);
  std::vector<ConnectionPtr> pending_flushes_ GUARDED_BY(pending_mutex_);

  mutable Mutex stats_mutex_;
  WireServerStats stats_ GUARDED_BY(stats_mutex_);
};

}  // namespace dangoron

#endif  // DANGORON_NET_WIRE_SERVER_H_
