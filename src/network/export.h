#ifndef DANGORON_NETWORK_EXPORT_H_
#define DANGORON_NETWORK_EXPORT_H_

#include <fstream>
#include <string>

#include "common/status.h"
#include "engine/query.h"
#include "engine/window_sink.h"

namespace dangoron {

/// Writes the whole query result as a long-format CSV:
/// `window,i,j,correlation` — the exchange format for plotting the dynamic
/// network outside C++. Implemented over the same row writer as
/// SeriesCsvSink, so the two paths emit identical files.
Status WriteSeriesCsv(const CorrelationMatrixSeries& series,
                      const std::string& path);

/// The export leg of the window pipeline: a WindowSink that appends each
/// emitted window's edges to a long-format CSV (`window,i,j,correlation`)
/// as it arrives — rows hit the file at window cadence, and the series is
/// never materialized. Drive it straight from an engine
/// (`engine.QueryToSink(query, &sink)`), a `WindowStream` drain loop, or a
/// `StreamingNetworkBuilder::EmitTo` feed. An I/O failure cancels the
/// producing query (OnWindow returns false) and surfaces in `status()`.
class SeriesCsvSink final : public WindowSink {
 public:
  /// Opens `path` and writes the header; a failed open surfaces through
  /// `status()` and aborts a bounded producer at OnBegin with the IoError.
  explicit SeriesCsvSink(const std::string& path);

  Status OnBegin(const SlidingQuery& query, int64_t num_series) override;
  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override;
  void OnFinish(const Status& status) override;

  /// Ok only when every window was written and flushed: the first I/O
  /// failure, a failed final flush, or the producer's non-OK terminal
  /// status (the file is then a truncated prefix) land here.
  const Status& status() const { return status_; }

 private:
  std::ofstream out_;
  std::string path_;
  Status status_ = Status::Ok();
};

}  // namespace dangoron

#endif  // DANGORON_NETWORK_EXPORT_H_
