// Streaming statistics accumulator (Welford) and a tiny fixed-width table
// printer used by the benchmark binaries to emit paper-style rows.
#ifndef SOLROS_SRC_BASE_STATS_H_
#define SOLROS_SRC_BASE_STATS_H_

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace solros {

class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_ || n_ == 1) {
      min_ = x;
    }
    if (x > max_ || n_ == 1) {
      max_ = x;
    }
    sum_ += x;
  }

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double sum() const { return sum_; }
  double min() const { return n_ != 0 ? min_ : 0.0; }
  double max() const { return n_ != 0 ? max_ : 0.0; }
  double Variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double Stddev() const { return std::sqrt(Variance()); }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Accumulates rows of strings and prints them with aligned columns. Every
// benchmark uses this so outputs are uniform and grep-able.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  void Print(std::ostream& os) const;

  // The header row, then the data rows, as added.
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  // Formats a double with `precision` digits after the point.
  static std::string Num(double v, int precision = 2);

 private:
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace solros

#endif  // SOLROS_SRC_BASE_STATS_H_
