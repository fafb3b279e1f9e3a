#include "router/router_server.h"

#include <utility>

namespace dangoron {

/// One routed request's stream: the merge's downstream channel, owning the
/// merge, so the merge's reader threads live until the lane worker drops
/// the stream. Cancel reaches all K shards through ShardMerge::Cancel,
/// not only the delivery queue.
class RouterServer::RoutedStream final : public WindowStream {
 public:
  RoutedStream(std::unique_ptr<ShardMerge> merge, RouterServer* owner)
      : WindowStream(merge->downstream()),
        merge_(std::move(merge)),
        owner_(owner) {}

  /// Runs where the worker drops the drained stream: the merge has
  /// finished, so its verdict and failover count are final.
  ~RoutedStream() override {
    const Status verdict = status();
    MutexLock lock(owner_->mutex_);
    owner_->failovers_ += merge_->failovers();
    if (!verdict.ok() && verdict.code() != StatusCode::kCancelled) {
      ++owner_->shard_failures_;
    }
  }

  void Cancel() override { merge_->Cancel(); }

 private:
  const std::unique_ptr<ShardMerge> merge_;
  RouterServer* const owner_;
};

RouterServer::RouterServer(ShardRouter* router,
                           const RouterServerOptions& options)
    : router_(router), wire_(this, options) {}

RouterServer::~RouterServer() { Stop(); }

void RouterServer::RegisterDataset(const std::string& name,
                                   int64_t num_series, uint64_t fingerprint) {
  MutexLock lock(mutex_);
  datasets_[name] =
      DatasetInfo{num_series * (num_series - 1) / 2, fingerprint};
}

RouterServerStats RouterServer::stats() const {
  RouterServerStats stats;
  static_cast<WireServerStats&>(stats) = wire_.stats();
  MutexLock lock(mutex_);
  stats.shard_failures = shard_failures_;
  stats.failovers = failovers_;
  return stats;
}

Result<std::shared_ptr<WindowStream>> RouterServer::Open(WireRequest request) {
  DatasetInfo info;
  {
    MutexLock lock(mutex_);
    auto it = datasets_.find(request.dataset);
    if (it == datasets_.end()) {
      // The same request-scoped failure as a shard server's: the
      // connection stays usable.
      return Status::NotFound("router: unknown dataset '", request.dataset,
                              "'");
    }
    info = it->second;
  }
  if (request.expected_fingerprint == 0) {
    // Pin the registered fingerprint so every shard verifies content even
    // when the client did not ask — drift on any shard must fail loudly,
    // never return a silently partial merge.
    request.expected_fingerprint = info.fingerprint;
  }
  Result<std::unique_ptr<ShardMerge>> merge =
      router_->Submit(request, info.num_pairs);
  if (!merge.ok()) {
    MutexLock lock(mutex_);
    ++shard_failures_;
    return merge.status();
  }
  std::shared_ptr<WindowStream> stream =
      std::make_shared<RoutedStream>(std::move(*merge), this);
  return stream;
}

}  // namespace dangoron
