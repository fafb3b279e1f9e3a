#ifndef DANGORON_ROUTER_ROUTER_SERVER_H_
#define DANGORON_ROUTER_ROUTER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/sync.h"
#include "net/wire_server.h"
#include "router/shard_router.h"

namespace dangoron {

/// The router front end is a WireServer: same listener, lanes, worker
/// bound and backpressure options.
using RouterServerOptions = WireServerOptions;

struct RouterServerStats : WireServerStats {
  int64_t shard_failures = 0;  ///< routed requests that ended in an error
  int64_t failovers = 0;  ///< mid-stream shard deaths ridden out by
                          ///< re-dispatch (queries that survived a shard)
};

/// The router tier's network face: speaks the same framed wire protocol as
/// a shard, but answers each request by fanning it out through a
/// ShardRouter and relaying the merged window stream. A wire client cannot
/// tell a router from a single shard — same preamble, frames, cancel and
/// terminal-status semantics — because the connections are served by the
/// same WireServer a shard uses, with this class as its WindowSource.
///
/// Routed requests therefore ride WireServer's machinery unchanged: the
/// epoll IO thread sees a cancel frame or a hangup at once and cancels the
/// merge, which cancels all K shard streams; a slow client blocks the lane
/// worker on the output watermark, the merge queue fills behind it, and
/// the shards stall behind their sockets. Each in-flight routed request
/// occupies one lane worker, so `worker_threads` bounds how many run
/// concurrently. A router cannot tell which requests are warm on the
/// shards, so they are laned by deadline only.
///
/// The router holds no time-series data, so it cannot resolve a dataset
/// name to its pair count or verify content: `RegisterDataset` supplies
/// both. A registered fingerprint is stamped onto shard requests whenever
/// the client did not pin one itself, so every sharded query is
/// fingerprint-checked end to end (drift on any shard fails the query with
/// that shard's FailedPrecondition).
class RouterServer : public WindowSource {
 public:
  RouterServer(ShardRouter* router, const RouterServerOptions& options = {});
  ~RouterServer() override;

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  /// Registers a dataset the router may serve: its series count (for the
  /// pair split) and expected content fingerprint (0 = unpinned).
  void RegisterDataset(const std::string& name, int64_t num_series,
                       uint64_t fingerprint);

  /// Binds the listener (unless options.port == -1) and starts serving.
  Status Start() { return wire_.Start(); }

  /// Adopts an already-connected socket as a client connection; takes
  /// ownership of `fd`.
  Status AddConnection(int fd) { return wire_.AddConnection(fd); }

  /// Closes the listener and every connection, cancelling in-flight merges,
  /// and joins the workers. Idempotent.
  void Stop() { wire_.Stop(); }

  /// The bound listener port (after Start; 0 when listener-less).
  int bound_port() const { return wire_.port(); }

  RouterServerStats stats() const;

  // WindowSource:
  bool StartsWarm(const WireRequest& /*request*/) const override {
    return false;
  }
  /// NotFound for an unregistered dataset; otherwise the merged stream of
  /// `ShardRouter::Submit`, with the registered fingerprint pinned.
  Result<std::shared_ptr<WindowStream>> Open(WireRequest request) override;

 private:
  class RoutedStream;

  struct DatasetInfo {
    int64_t num_pairs = 0;
    uint64_t fingerprint = 0;
  };

  ShardRouter* const router_;

  mutable Mutex mutex_;
  std::unordered_map<std::string, DatasetInfo> datasets_ GUARDED_BY(mutex_);
  int64_t shard_failures_ GUARDED_BY(mutex_) = 0;
  int64_t failovers_ GUARDED_BY(mutex_) = 0;

  /// Last: destroyed first, so its workers (which call Open and drop
  /// RoutedStreams) are joined before the registry and counters go away.
  WireServer wire_;
};

}  // namespace dangoron

#endif  // DANGORON_ROUTER_ROUTER_SERVER_H_
