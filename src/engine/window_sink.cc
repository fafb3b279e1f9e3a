#include "engine/window_sink.h"

namespace dangoron {

Status FinishCancelled(WindowSink* sink, const char* producer,
                       int64_t window_index) {
  Status cancelled = Status::Cancelled(producer, ": sink cancelled at window ",
                                       window_index);
  sink->OnFinish(cancelled);
  return cancelled;
}

}  // namespace dangoron
