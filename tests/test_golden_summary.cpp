// Golden check of the documented headline numbers: every "avg N %" cell
// in the Measured column of EXPERIMENTS.md's "## Summary" table must
// appear as an "N%" cell of an `average` row in the committed bench_all
// stdout (tests/golden/bench_all.stdout), so the summary cannot drift from
// the bytes the suite prints. There is no regenerate mode: a PR that moves
// a number updates the golden and the summary together.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#ifndef TAF_GOLDEN_DIR
#error "TAF_GOLDEN_DIR must point at the tests/golden source directory"
#endif
#ifndef TAF_EXPERIMENTS_MD
#error "TAF_EXPERIMENTS_MD must point at the repository's EXPERIMENTS.md"
#endif

namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Cells of a markdown table row ("| a | b |" -> {"a", "b"}).
std::vector<std::string> cells(const std::string& row) {
  std::vector<std::string> out;
  std::stringstream ss(row);
  std::string cell;
  std::getline(ss, cell, '|');  // text before the leading bar
  while (std::getline(ss, cell, '|')) out.push_back(trim(cell));
  if (!out.empty() && out.back().empty()) out.pop_back();  // trailing bar
  return out;
}

/// The Measured column of EXPERIMENTS.md's summary table.
std::vector<std::string> summary_measured_cells() {
  const std::vector<std::string> lines =
      read_lines(std::string(TAF_EXPERIMENTS_MD));
  std::vector<std::string> measured;
  bool in_summary = false;
  int column = -1;
  for (const std::string& line : lines) {
    if (line.rfind("## ", 0) == 0) {
      in_summary = line == "## Summary";
      continue;
    }
    if (!in_summary || line.rfind("|", 0) != 0) continue;
    const std::vector<std::string> row = cells(line);
    if (column < 0) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i] == "Measured") column = static_cast<int>(i);
      }
      continue;
    }
    if (static_cast<std::size_t>(column) < row.size()) {
      measured.push_back(row[static_cast<std::size_t>(column)]);
    }
  }
  return measured;
}

TEST(GoldenSummary, SummaryAveragesAppearInGoldenStdout) {
  std::vector<std::vector<std::string>> average_rows;
  for (const std::string& line :
       read_lines(std::string(TAF_GOLDEN_DIR) + "/bench_all.stdout")) {
    const std::vector<std::string> row = cells(line);
    if (!row.empty() && row.front() == "average") average_rows.push_back(row);
  }
  ASSERT_FALSE(average_rows.empty());

  const std::regex avg_re(R"(avg\s+([0-9]+(?:\.[0-9]+)?)\s*%)");
  std::size_t checked = 0;
  for (const std::string& cell : summary_measured_cells()) {
    std::smatch m;
    if (!std::regex_search(cell, m, avg_re)) continue;
    const std::string want = m[1].str() + "%";
    bool found = false;
    for (const auto& row : average_rows) {
      for (const std::string& c : row) found = found || c == want;
    }
    EXPECT_TRUE(found) << "summary cell '" << cell << "' quotes " << want
                       << ", which no average row of the golden prints";
    ++checked;
  }
  // Fig. 6, 7 and 8 quote averages today; a parser that finds none
  // would pass vacuously.
  EXPECT_GE(checked, 3u);
}

}  // namespace
