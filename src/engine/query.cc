#include "engine/query.h"

#include "common/strings.h"

namespace dangoron {

Status SlidingQuery::Validate(int64_t series_length) const {
  // Multi-field conditions echo every participating value (plus the full
  // query via ToString) so a rejected query is diagnosable from the message
  // alone — the caller may have built it from several config sources.
  if (window <= 0) {
    return Status::InvalidArgument("query window must be positive, got ",
                                   window, " (", ToString(), ")");
  }
  if (step <= 0) {
    return Status::InvalidArgument("query step must be positive, got ", step,
                                   " (", ToString(), ")");
  }
  if (start < 0 || end > series_length || start >= end) {
    return Status::OutOfRange("query range [", start, ", ", end,
                              ") invalid for series length ", series_length,
                              " (", ToString(), ")");
  }
  if (end - start < window) {
    return Status::InvalidArgument(
        "query range [", start, ", ", end, ") spans ", end - start,
        " columns, shorter than one window of ", window, " (", ToString(),
        ")");
  }
  if (threshold < -1.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must be in [-1, 1], got ",
                                   std::to_string(threshold), " (", ToString(),
                                   ")");
  }
  if (absolute && threshold < 0.0) {
    return Status::InvalidArgument(
        "absolute-mode threshold must be in [0, 1], got ",
        std::to_string(threshold), " (", ToString(), ")");
  }
  if (pair_begin < 0 || pair_end < 0) {
    return Status::InvalidArgument("pair range [", pair_begin, ", ", pair_end,
                                   ") must be non-negative (", ToString(),
                                   ")");
  }
  if (HasPairRestriction() && pair_end <= pair_begin) {
    return Status::InvalidArgument("pair range [", pair_begin, ", ", pair_end,
                                   ") is empty (", ToString(), ")");
  }
  return Status::Ok();
}

std::string SlidingQuery::ToString() const {
  std::string text =
      StrFormat("range=[%lld,%lld) l=%lld eta=%lld beta=%.3f abs=%s "
                "windows=%lld",
                static_cast<long long>(start), static_cast<long long>(end),
                static_cast<long long>(window), static_cast<long long>(step),
                threshold, absolute ? "on" : "off",
                static_cast<long long>(NumWindows()));
  if (HasPairRestriction()) {
    text += StrFormat(" pairs=[%lld,%lld)", static_cast<long long>(pair_begin),
                      static_cast<long long>(pair_end));
  }
  return text;
}

int64_t CorrelationMatrixSeries::TotalEdges() const {
  int64_t total = 0;
  for (const std::vector<Edge>& window : windows_) {
    total += static_cast<int64_t>(window.size());
  }
  return total;
}

}  // namespace dangoron
