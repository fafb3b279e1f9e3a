#include "eval/table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace dangoron {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

Table& Table::AddRow() {
  rows_.emplace_back();
  return *this;
}

Table& Table::Add(std::string cell) {
  CHECK(!rows_.empty()) << "Add called before AddRow";
  rows_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::AddInt(int64_t value) {
  return Add(WithThousandsSeparators(value));
}

Table& Table::AddDouble(double value, int digits) {
  return Add(StrFormat("%.*f", digits, value));
}

Table& Table::AddTime(double seconds) {
  if (seconds >= 1.0) {
    return Add(StrFormat("%.2f s", seconds));
  }
  if (seconds >= 1e-3) {
    return Add(StrFormat("%.2f ms", seconds * 1e3));
  }
  return Add(StrFormat("%.1f us", seconds * 1e6));
}

Table& Table::AddRatio(double ratio) { return Add(StrFormat("%.1fx", ratio)); }

Table& Table::AddPercent(double fraction) {
  return Add(StrFormat("%.1f%%", fraction * 100.0));
}

std::string Table::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const std::vector<std::string>& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out += cell;
      if (c + 1 < widths.size()) {
        out.append(widths[c] - cell.size() + 2, ' ');
      }
    }
    out += '\n';
  };
  append_row(headers_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out.append(total, '-');
  out += '\n';
  for (const std::vector<std::string>& row : rows_) {
    append_row(row);
  }
  return out;
}

}  // namespace dangoron
