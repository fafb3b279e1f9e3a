#ifndef DANGORON_EVAL_TABLE_H_
#define DANGORON_EVAL_TABLE_H_

#include <string>
#include <vector>

namespace dangoron {

/// Column-aligned plain-text table, the output format of every experiment
/// binary ("paper-style rows"). Cells are strings; numeric helpers format
/// consistently.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent Add* calls fill it left to right.
  Table& AddRow();
  Table& Add(std::string cell);
  Table& Add(const char* cell) { return Add(std::string(cell)); }
  Table& AddInt(int64_t value);
  /// Fixed-point with `digits` decimals.
  Table& AddDouble(double value, int digits = 3);
  /// Seconds rendered with an adaptive unit (s / ms / us).
  Table& AddTime(double seconds);
  /// "12.3x" speedup style.
  Table& AddRatio(double ratio);
  /// "93.1%" percentage style.
  Table& AddPercent(double fraction);

  /// Renders with a header underline and 2-space column gaps.
  std::string ToString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dangoron

#endif  // DANGORON_EVAL_TABLE_H_
