#include "ts/resample.h"

namespace dangoron {

Status InterpolateMissing(TimeSeriesMatrix* matrix) {
  const int64_t length = matrix->length();
  for (int64_t s = 0; s < matrix->num_series(); ++s) {
    std::span<double> row = matrix->Row(s);
    // Find first observed value.
    int64_t first = -1;
    for (int64_t t = 0; t < length; ++t) {
      if (!IsMissing(row[static_cast<size_t>(t)])) {
        first = t;
        break;
      }
    }
    if (first < 0) {
      return Status::FailedPrecondition(
          "InterpolateMissing: series ", matrix->SeriesName(s),
          " has no observed values; drop it before interpolating");
    }
    // Extend the first observation backwards.
    for (int64_t t = 0; t < first; ++t) {
      row[static_cast<size_t>(t)] = row[static_cast<size_t>(first)];
    }
    // Walk forward: for each gap, interpolate to the next observation or
    // extend the last one.
    int64_t prev = first;
    for (int64_t t = first + 1; t < length; ++t) {
      if (!IsMissing(row[static_cast<size_t>(t)])) {
        if (t > prev + 1) {
          const double lo = row[static_cast<size_t>(prev)];
          const double hi = row[static_cast<size_t>(t)];
          const double span = static_cast<double>(t - prev);
          for (int64_t u = prev + 1; u < t; ++u) {
            const double alpha = static_cast<double>(u - prev) / span;
            row[static_cast<size_t>(u)] = lo + alpha * (hi - lo);
          }
        }
        prev = t;
      }
    }
    for (int64_t t = prev + 1; t < length; ++t) {
      row[static_cast<size_t>(t)] = row[static_cast<size_t>(prev)];
    }
  }
  return Status::Ok();
}

}  // namespace dangoron
