#include "network/export.h"

#include <fstream>

#include "common/strings.h"

namespace dangoron {

namespace {

// The one row writer behind both CSV export paths (materialized and sink).
// Values print with %.17g, enough digits to round-trip every double, so a
// file says exactly what the engine computed.
void WriteCsvRows(std::ofstream& out, int64_t window_index,
                  std::span<const Edge> edges) {
  for (const Edge& edge : edges) {
    out << window_index << ',' << edge.i << ',' << edge.j << ','
        << StrFormat("%.17g", edge.value) << '\n';
  }
}

}  // namespace

Status WriteSeriesCsv(const CorrelationMatrixSeries& series,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open series CSV for writing: ", path);
  }
  out << "window,i,j,correlation\n";
  for (int64_t k = 0; k < series.num_windows(); ++k) {
    WriteCsvRows(out, k, series.WindowEdges(k));
  }
  if (!out) {
    return Status::IoError("error writing series CSV: ", path);
  }
  return Status::Ok();
}

SeriesCsvSink::SeriesCsvSink(const std::string& path)
    : out_(path), path_(path) {
  if (!out_) {
    status_ = Status::IoError("cannot open series CSV for writing: ", path_);
    return;
  }
  out_ << "window,i,j,correlation\n";
}

Status SeriesCsvSink::OnBegin(const SlidingQuery& query, int64_t num_series) {
  (void)query;
  (void)num_series;
  // A broken sink aborts the bounded producer with the root cause (the
  // IoError from the failed open), not a generic mid-stream cancellation.
  return status_;
}

bool SeriesCsvSink::OnWindow(int64_t window_index, std::vector<Edge> edges) {
  if (!status_.ok()) {
    return false;  // already failed: cancel the producer
  }
  WriteCsvRows(out_, window_index, edges);
  if (!out_) {
    status_ = Status::IoError("error writing series CSV: ", path_);
    return false;
  }
  return true;
}

void SeriesCsvSink::OnFinish(const Status& status) {
  if (!status_.ok()) {
    return;
  }
  if (!status.ok()) {
    // The producer failed or was cancelled mid-query: the file is a
    // truncated prefix, and status() must say so, not report success.
    status_ = status;
    return;
  }
  out_.flush();
  if (!out_) {
    status_ = Status::IoError("error flushing series CSV: ", path_);
  }
}

}  // namespace dangoron
