#include "ts/time_series_matrix.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "ts/dataset_io.h"

namespace dangoron {

double MissingValue() { return std::numeric_limits<double>::quiet_NaN(); }

bool IsMissing(double value) { return std::isnan(value); }

TimeSeriesMatrix::TimeSeriesMatrix(int64_t num_series, int64_t length)
    : num_series_(num_series), length_(length) {
  CHECK_GE(num_series, 0);
  CHECK_GE(length, 0);
  values_.assign(static_cast<size_t>(num_series * length), 0.0);
}

Result<TimeSeriesMatrix> TimeSeriesMatrix::FromRows(
    std::vector<std::vector<double>> rows) {
  if (rows.empty()) {
    return Status::InvalidArgument("FromRows: no rows given");
  }
  const int64_t length = static_cast<int64_t>(rows[0].size());
  if (length == 0) {
    return Status::InvalidArgument("FromRows: rows are empty");
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (static_cast<int64_t>(rows[i].size()) != length) {
      return Status::InvalidArgument("FromRows: ragged rows; row 0 has ",
                                     length, " values but row ", i, " has ",
                                     rows[i].size());
    }
  }
  TimeSeriesMatrix matrix(static_cast<int64_t>(rows.size()), length);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::span<double> row = matrix.Row(static_cast<int64_t>(i));
    std::copy(rows[i].begin(), rows[i].end(), row.begin());
  }
  return matrix;
}

std::span<const double> TimeSeriesMatrix::RowRange(int64_t i, int64_t start,
                                                   int64_t count) const {
  DCHECK_GE(i, 0);
  DCHECK_LT(i, num_series_);
  DCHECK_GE(start, 0);
  DCHECK_GE(count, 0);
  DCHECK_LE(start + count, length_);
  return std::span<const double>(values_.data() + i * length_ + start,
                                 static_cast<size_t>(count));
}

std::string TimeSeriesMatrix::SeriesName(int64_t i) const {
  DCHECK_GE(i, 0);
  DCHECK_LT(i, num_series_);
  if (static_cast<size_t>(i) < names_.size() && !names_[i].empty()) {
    return names_[i];
  }
  return "series" + std::to_string(i);
}

Status TimeSeriesMatrix::SetSeriesNames(std::vector<std::string> names) {
  if (static_cast<int64_t>(names.size()) != num_series_) {
    return Status::InvalidArgument("SetSeriesNames: got ", names.size(),
                                   " names for ", num_series_, " series");
  }
  names_ = std::move(names);
  return Status::Ok();
}

int64_t TimeSeriesMatrix::CountMissing() const {
  int64_t count = 0;
  for (const double v : values_) {
    if (IsMissing(v)) {
      ++count;
    }
  }
  return count;
}

uint64_t TimeSeriesMatrix::ContentFingerprint() const {
  // Chained FNV-1a over the shape followed by the raw value bytes. Hashing
  // the bit pattern (not the double value) keeps 0.0 / -0.0 and NaN
  // payloads distinct, which is what byte-identity means here.
  uint64_t hash = Fnv1a64(&num_series_, sizeof(num_series_));
  hash = Fnv1a64(&length_, sizeof(length_), hash);
  return Fnv1a64(values_.data(), values_.size() * sizeof(double), hash);
}

}  // namespace dangoron
