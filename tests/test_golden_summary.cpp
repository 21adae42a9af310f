// Golden check of the documented headline numbers in the Measured column
// of EXPERIMENTS.md's "## Summary" table against the committed bench_all
// stdout (tests/golden/bench_all.stdout), so the summary cannot drift from
// the bytes the suite prints:
//   - every "avg N %" cell appears as an "N%" cell of an `average` row;
//   - every percentage of a Fig. 1 row is a cell of the Fig. 1 table's
//     100 °C row;
//   - every "N×" ratio of a Fig. 2 row is a cell of the Fig. 2 table;
//   - every percentage of a Fig. 3 row appears as "N% slower" in the
//     Fig. 3 crossover line.
// There is no regenerate mode: a PR that moves a number updates the golden
// and the summary together.

#include <gtest/gtest.h>

#include <algorithm>
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

/// One row of EXPERIMENTS.md's summary table: its Experiment and
/// Measured cells.
struct SummaryRow {
  std::string experiment;
  std::string measured;
};

std::vector<SummaryRow> summary_rows() {
  const std::vector<std::string> lines =
      read_lines(std::string(TAF_EXPERIMENTS_MD));
  std::vector<SummaryRow> rows;
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
      rows.push_back({row.front(), row[static_cast<std::size_t>(column)]});
    }
  }
  return rows;
}

std::vector<std::string> golden_lines() {
  return read_lines(std::string(TAF_GOLDEN_DIR) + "/bench_all.stdout");
}

/// The lines of the golden's section headed "== <title>...", up to the
/// next section header.
std::vector<std::string> golden_section(const std::string& title) {
  std::vector<std::string> section;
  bool in_section = false;
  for (const std::string& line : golden_lines()) {
    if (line.rfind("== ", 0) == 0) {
      in_section = line.rfind("== " + title + " ", 0) == 0;
      continue;
    }
    if (in_section) section.push_back(line);
  }
  EXPECT_FALSE(section.empty()) << "the golden has no section " << title;
  return section;
}

/// The numbers N of every "N <unit>" in `cell` (spaces allowed between).
std::vector<std::string> numbers_before(const std::string& cell, const std::string& unit) {
  const std::regex re("([0-9]+(?:\\.[0-9]+)?)\\s*" + unit);
  std::vector<std::string> out;
  for (auto it = std::sregex_iterator(cell.begin(), cell.end(), re);
       it != std::sregex_iterator(); ++it) {
    out.push_back((*it)[1].str());
  }
  return out;
}

/// The Measured cells of the summary rows about `figure` ("Fig. 1").
std::vector<std::string> figure_cells(const std::string& figure) {
  std::vector<std::string> out;
  for (const SummaryRow& row : summary_rows()) {
    if (row.experiment.rfind(figure + " ", 0) == 0) out.push_back(row.measured);
  }
  return out;
}

TEST(GoldenSummary, SummaryAveragesAppearInGoldenStdout) {
  std::vector<std::vector<std::string>> average_rows;
  for (const std::string& line : golden_lines()) {
    const std::vector<std::string> row = cells(line);
    if (!row.empty() && row.front() == "average") average_rows.push_back(row);
  }
  ASSERT_FALSE(average_rows.empty());

  const std::regex avg_re(R"(avg\s+([0-9]+(?:\.[0-9]+)?)\s*%)");
  std::size_t checked = 0;
  for (const SummaryRow& summary : summary_rows()) {
    const std::string& cell = summary.measured;
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

TEST(GoldenSummary, Fig1IncreasesAreTheGoldensHundredDegreeRow) {
  std::vector<std::string> row_100;
  for (const std::string& line : golden_section("Fig. 1")) {
    const std::vector<std::string> row = cells(line);
    if (!row.empty() && row.front() == "100") row_100 = row;
  }
  ASSERT_FALSE(row_100.empty()) << "the golden's Fig. 1 table has no 100 C row";
  std::size_t checked = 0;
  for (const std::string& cell : figure_cells("Fig. 1")) {
    for (const std::string& n : numbers_before(cell, "%")) {
      EXPECT_TRUE(std::ranges::find(row_100, n + "%") != row_100.end())
          << "summary cell '" << cell << "' quotes " << n
          << " %, which the golden's Fig. 1 100 C row does not print";
      ++checked;
    }
  }
  // CP, DSP, LUT and SB.
  EXPECT_GE(checked, 4u);
}

TEST(GoldenSummary, Fig2RatiosAreCellsOfTheGoldensTable) {
  std::vector<std::string> table;
  for (const std::string& line : golden_section("Fig. 2")) {
    for (const std::string& c : cells(line)) table.push_back(c);
  }
  std::size_t checked = 0;
  for (const std::string& cell : figure_cells("Fig. 2")) {
    for (const std::string& n : numbers_before(cell, "×")) {
      EXPECT_TRUE(std::ranges::find(table, n) != table.end())
          << "summary cell '" << cell << "' quotes " << n
          << "×, which the golden's Fig. 2 table does not print";
      ++checked;
    }
  }
  // The two BRAM spreads.
  EXPECT_GE(checked, 2u);
}

TEST(GoldenSummary, Fig3PenaltiesAreTheGoldensCrossoverLine) {
  std::string slower_line;
  for (const std::string& line : golden_section("Fig. 3")) {
    if (line.find("% slower") != std::string::npos) slower_line = line;
  }
  ASSERT_FALSE(slower_line.empty()) << "the golden's Fig. 3 has no '% slower' line";
  const std::vector<std::string> printed = numbers_before(slower_line, "% slower");
  std::size_t checked = 0;
  for (const std::string& cell : figure_cells("Fig. 3")) {
    for (const std::string& n : numbers_before(cell, "%")) {
      EXPECT_TRUE(std::ranges::find(printed, n) != printed.end())
          << "summary cell '" << cell << "' quotes " << n
          << " %, which the golden's Fig. 3 line does not print";
      ++checked;
    }
  }
  // The D100 penalty at 0 C and the D0 penalty at 100 C.
  EXPECT_GE(checked, 2u);
}

}  // namespace
