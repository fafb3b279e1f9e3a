#ifndef DANGORON_ROUTER_ROUTER_SERVER_H_
#define DANGORON_ROUTER_ROUTER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "router/shard_router.h"

namespace dangoron {

struct RouterServerOptions {
  /// IPv4 address the listener binds (loopback by default, like
  /// WireServerOptions).
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port (read back via `port()`), -1 runs
  /// listener-less — connections arrive only through `AddConnection` (the
  /// socketpair seam tests use).
  int port = 0;

  /// Connections beyond this are accepted and immediately closed.
  int64_t max_connections = 256;
};

struct RouterServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_adopted = 0;
  int64_t connections_active = 0;  ///< gauge
  int64_t requests = 0;
  int64_t cancel_frames = 0;
  int64_t disconnect_cancels = 0;
  int64_t protocol_errors = 0;
  int64_t shard_failures = 0;  ///< merged streams that ended in an error
  int64_t failovers = 0;  ///< mid-stream shard deaths ridden out by
                          ///< re-dispatch (queries that survived a shard)
};

/// The router tier's network face: speaks the same framed wire protocol as
/// net/WireServer, but answers each request by fanning it out through a
/// ShardRouter and relaying the merged window stream. A wire client cannot
/// tell a router from a single shard — same preamble, frames, cancel and
/// terminal-status semantics.
///
/// Unlike the epoll WireServer (built for thousands of idle connections),
/// the router front end is thread-per-connection: a router carries few,
/// long-lived, mostly-streaming connections, and a blocking relay loop per
/// connection keeps the backpressure chain trivially correct — the relay
/// blocks on whichever side is slower. While a request is in flight, a
/// watcher thread polls the socket so a client cancel frame or disconnect
/// reaches the merge (and through it all K shards) immediately instead of
/// at the next window boundary.
///
/// The router holds no time-series data, so it cannot resolve a dataset
/// name to its pair count or verify content: `RegisterDataset` supplies
/// both. A registered fingerprint is stamped onto shard requests whenever
/// the client did not pin one itself, so every sharded query is
/// fingerprint-checked end to end (drift on any shard fails the query with
/// that shard's FailedPrecondition).
class RouterServer {
 public:
  RouterServer(ShardRouter* router, const RouterServerOptions& options = {});
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  /// Registers a dataset the router may serve: its series count (for the
  /// pair split) and expected content fingerprint (0 = unpinned).
  void RegisterDataset(const std::string& name, int64_t num_series,
                       uint64_t fingerprint);

  /// Binds the listener (unless options.port == -1) and starts accepting.
  Status Start();

  /// Adopts an already-connected socket as a client connection; takes
  /// ownership of `fd`.
  Status AddConnection(int fd);

  /// Closes the listener, shuts every connection down, joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound listener port (after Start; 0 when listener-less).
  int bound_port() const { return bound_port_; }

  RouterServerStats stats() const;

 private:
  struct DatasetInfo {
    int64_t num_pairs = 0;
    uint64_t fingerprint = 0;
  };

  /// One client connection's thread and its exit flag, set as the thread's
  /// last act so a set flag means join() returns at once.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };

  void AcceptLoop();
  /// Registers `fd` and starts its connection thread, first joining the
  /// threads of connections that already ended: an unjoined finished
  /// thread keeps its stack mapped until Stop().
  void SpawnConnectionLocked(int fd) REQUIRES(mutex_);
  void HandleConnection(int fd);
  /// Serves one decoded request on `fd`; returns false when the connection
  /// must close (protocol error or dead socket).
  bool ServeRequest(int fd, FrameReader* reader, const WireRequest& request);
  /// Appends a status frame and writes it; best-effort.
  bool SendStatus(int fd, const Status& status, const WireSummary& summary);
  bool WriteAll(int fd, const std::string& data);

  ShardRouter* const router_;
  const RouterServerOptions options_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::thread accept_thread_;

  mutable Mutex mutex_;
  std::unordered_map<std::string, DatasetInfo> datasets_ GUARDED_BY(mutex_);
  std::vector<Connection> connections_ GUARDED_BY(mutex_);
  std::vector<int> open_fds_ GUARDED_BY(mutex_);
  RouterServerStats stats_ GUARDED_BY(mutex_);
};

}  // namespace dangoron

#endif  // DANGORON_ROUTER_ROUTER_SERVER_H_
