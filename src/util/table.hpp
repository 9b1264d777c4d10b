#pragma once

// Plain-text table and CSV emission.
//
// bench_run_all prints the rows of every paper table/figure it regenerates,
// and the CLIs their comparisons, as aligned console tables (human diffing
// against the paper); CSV serves plot scripts.  Cells are strings; numeric
// formatting helpers keep the output stable across locales.

#include <iosfwd>
#include <string>
#include <vector>

namespace spgcmp::util {

/// Format a double with `digits` significant digits, locale-independent.
[[nodiscard]] std::string fmt_double(double value, int digits = 4);

/// Format a double in scientific notation with `digits` mantissa digits.
[[nodiscard]] std::string fmt_sci(double value, int digits = 3);

/// Simple row-oriented table.  Columns are sized to the widest cell.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const noexcept { return header_.size(); }

  /// Render with aligned columns and a separator under the header.
  void print(std::ostream& os) const;

  /// Render as RFC-4180-ish CSV (cells containing , or " get quoted).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace spgcmp::util
