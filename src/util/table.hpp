// Aligned text tables and CSV export for bench/experiment output.
//
// Every bench binary reports the same rows the paper's figures plot, both as a
// human-readable aligned table on stdout and as a CSV file for re-plotting.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

namespace isoee::util {

/// A simple column-aligned table. Cells are strings; use the `num` helpers to
/// format doubles consistently.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; pads or truncates to the header width.
  void add_row(std::vector<std::string> row);

  /// Renders the table with aligned columns and a separator under the header.
  std::string to_string() const;

  /// Renders the table as RFC-4180-ish CSV (quotes cells containing , " or \n).
  std::string to_csv() const;

  /// Writes the CSV rendering to `path`, creating parent dirs if needed.
  /// Returns false (and logs) on I/O failure.
  bool write_csv(const std::string& path) const;

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` significant decimals ("%.*f").
std::string num(double value, int digits = 3);

/// Formats a double in scientific notation with `digits` decimals.
std::string sci(double value, int digits = 3);

/// Formats an integer value.
std::string num(long long value);
inline std::string num(int value) { return num(static_cast<long long>(value)); }
inline std::string num(std::size_t value) { return num(static_cast<long long>(value)); }

/// Formats a percentage with two decimals, e.g. "4.99%".
std::string pct(double value);

/// Appends `value` as printf's "%.17g" prints it in the C locale, byte for
/// byte ("inf", "-nan" and subnormals included): 17 significant digits read
/// back to the same bits. Through std::to_chars, which the standard defines
/// to match "%.17g" and which skips printf's format parsing and locale.
void append_num17(std::string& out, double value);

/// append_num17 into a fresh string.
std::string num17(double value);

}  // namespace isoee::util
