#pragma once
// ASCII table printer used by the bench experiments to emit the paper's
// tables and figure series as aligned rows.

#include <cstdio>
#include <string>
#include <vector>

namespace taf::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; the number of cells must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format a double with the given precision.
  static std::string num(double v, int precision = 2);
  /// Format as a percentage ("12.3%").
  static std::string pct(double fraction, int precision = 1);

  /// Render the table to a string (markdown-ish, pipe separated, aligned).
  std::string to_string() const;
  /// Print to stdout.
  void print(FILE* out = stdout) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace taf::util
