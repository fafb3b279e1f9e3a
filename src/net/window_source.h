#ifndef DANGORON_NET_WINDOW_SOURCE_H_
#define DANGORON_NET_WINDOW_SOURCE_H_

#include <memory>

#include "common/status.h"
#include "serve/window_stream.h"
#include "wire/wire_format.h"

namespace dangoron {

/// What a WireServer serves: the backend that answers one decoded request
/// with a window stream. Two implement it — WireServer's adapter over one
/// DangoronServer (a shard, or a single-process deployment) and
/// RouterServer (K shards behind a ShardMerge) — so both speak the wire
/// protocol through the same epoll loop, lanes and backpressure.
///
/// Both calls run on WireServer threads concurrently; implementations are
/// thread-safe.
class WindowSource {
 public:
  virtual ~WindowSource() = default;

  /// Lane routing hint (WireServer::ClassifyLane): true when the request's
  /// work is already cached and it will finish fast. Runs on the IO thread,
  /// so it must not block.
  virtual bool StartsWarm(const WireRequest& request) const = 0;

  /// Starts answering `request`; runs on a lane worker. The worker drains
  /// a returned stream to its end and sends its status and summary as the
  /// terminal Status frame; an error return is sent as that frame directly,
  /// with an empty summary. A client cancel or disconnect calls the
  /// stream's `Cancel` from the IO thread, so it must reach the producer.
  virtual Result<std::shared_ptr<WindowStream>> Open(WireRequest request) = 0;
};

}  // namespace dangoron

#endif  // DANGORON_NET_WINDOW_SOURCE_H_
