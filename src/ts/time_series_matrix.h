#ifndef DANGORON_TS_TIME_SERIES_MATRIX_H_
#define DANGORON_TS_TIME_SERIES_MATRIX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace dangoron {

/// Sentinel for a missing observation, matching the convention of the USCRN
/// raw files after parsing (the files use -9999 codes; the loaders convert
/// them to NaN so arithmetic can't silently absorb them).
double MissingValue();

/// True if `value` marks a missing observation.
bool IsMissing(double value);

/// Dense, row-major collection of N synchronized time series of length L —
/// the matrix `X` of the paper's problem definition. Row `i` is series `i`.
///
/// The matrix owns its storage; rows are exposed as spans so kernels iterate
/// contiguous memory. Series may carry names (e.g. USCRN station ids).
class TimeSeriesMatrix {
 public:
  /// Creates an empty 0 x 0 matrix.
  TimeSeriesMatrix() = default;

  /// Creates an `num_series x length` matrix initialized to zero.
  TimeSeriesMatrix(int64_t num_series, int64_t length);

  /// Builds a matrix from equally sized rows. Fails if rows are ragged or
  /// empty.
  static Result<TimeSeriesMatrix> FromRows(
      std::vector<std::vector<double>> rows);

  int64_t num_series() const { return num_series_; }
  int64_t length() const { return length_; }
  bool empty() const { return num_series_ == 0 || length_ == 0; }

  /// Mutable view of series `i`.
  std::span<double> Row(int64_t i) {
    return std::span<double>(values_.data() + i * length_,
                             static_cast<size_t>(length_));
  }
  /// Read-only view of series `i`.
  std::span<const double> Row(int64_t i) const {
    return std::span<const double>(values_.data() + i * length_,
                                   static_cast<size_t>(length_));
  }

  /// Read-only view of `count` values of series `i` starting at column
  /// `start`. Bounds are DCHECKed.
  std::span<const double> RowRange(int64_t i, int64_t start,
                                   int64_t count) const;

  double Get(int64_t series, int64_t t) const {
    return values_[series * length_ + t];
  }
  void Set(int64_t series, int64_t t, double value) {
    values_[series * length_ + t] = value;
  }

  /// Name of series `i` ("series<i>" when unnamed).
  std::string SeriesName(int64_t i) const;

  /// Assigns names; must match num_series().
  Status SetSeriesNames(std::vector<std::string> names);

  const std::vector<std::string>& series_names() const { return names_; }

  /// Count of missing (NaN) cells.
  int64_t CountMissing() const;

  /// 64-bit content hash of shape plus raw values (FNV-1a over the value
  /// bytes): the serving layer's dataset identity, so two registrations of
  /// identical data share one prepared sketch. O(N * L); names are excluded
  /// — identity is the numbers, not their labels.
  uint64_t ContentFingerprint() const;

  /// Flat row-major storage (size num_series * length).
  const std::vector<double>& values() const { return values_; }

 private:
  int64_t num_series_ = 0;
  int64_t length_ = 0;
  std::vector<double> values_;
  std::vector<std::string> names_;
};

}  // namespace dangoron

#endif  // DANGORON_TS_TIME_SERIES_MATRIX_H_
