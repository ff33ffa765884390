#include "src/base/stats.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace solros {

TablePrinter::TablePrinter(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) {
      widths.resize(row.size(), 0);
    }
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    for (size_t i = 0; i < row.size(); ++i) {
      os << row[i];
      if (i + 1 < row.size()) {
        os << std::string(widths[i] - row[i].size() + 2, ' ');
      }
    }
    os << "\n";
    if (r == 0) {
      size_t total = 0;
      for (size_t i = 0; i < widths.size(); ++i) {
        total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
      }
      os << std::string(total, '-') << "\n";
    }
  }
}

std::string TablePrinter::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace solros
