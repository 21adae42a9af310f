#pragma once
// taf-analyze — compiled static-analysis gate for the TAF tree.
//
// Sixteen rules over the shared lexer (lexer.hpp): ten char-level seam
// rules, plus two token-level families — lock discipline
// (lock-order-cycle, blocking-while-locked) and determinism
// (unordered-iteration, wall-clock, raw-random, pointer-keyed-container).
// DESIGN.md section 14 documents the rule semantics and the suppression
// format (tools/taf-analyze.suppressions).

#include <string>
#include <vector>

#include "analyzer/lexer.hpp"

namespace taf::analyze {

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};
bool operator<(const Finding& a, const Finding& b);
bool operator==(const Finding& a, const Finding& b);

struct SourceFile {
  std::string path;  // repo-relative, forward slashes
  std::string text;
};

/// Registry of all rule names, in report order.
const std::vector<std::string>& all_rules();

/// Analyze a set of sources together (the lock-order graph is merged
/// across all of them). `rules` filters to a subset; empty = all rules.
/// Findings come back sorted by (path, line, rule, message).
std::vector<Finding> analyze_sources(const std::vector<SourceFile>& sources,
                                     const std::vector<std::string>& rules = {});

// ---------------------------------------------------------- suppressions

struct Suppression {
  std::string glob;    // fnmatch-style path glob
  std::string rule;    // rule name or "*"
  std::string substr;  // message substring ("" = any)
  int line = 0;        // 1-based line in the suppressions file
  std::string entry;   // the entry text as written
};

std::vector<Suppression> parse_suppressions(const std::string& text);
/// fnmatch-compatible glob match (* ? [seq] [!seq], '*' crosses '/').
bool glob_match(const std::string& pattern, const std::string& s);
bool suppression_matches(const Suppression& s, const Finding& f);

// ------------------------------------------------------------------ CLI

struct CliOptions {
  std::string root;                 // repo root ("" = current directory)
  std::vector<std::string> paths;   // files/dirs relative to root; empty = defaults
  std::vector<std::string> rules;   // empty = all
  bool use_suppressions = true;     // --no-suppress clears this
  bool prune = false;               // --prune-suppressions report mode
  bool list_rules = false;
  bool summary = true;              // per-rule stderr table (--no-summary clears)
};

struct CliResult {
  int exit_code = 0;  // 0 clean / 1 findings / 2 I/O error
  std::string out;    // stdout payload (findings / rule list / prune report)
  std::string err;    // stderr payload (per-rule table, totals, errors)
};

/// Full CLI run as a pure function of options + filesystem, so tests can
/// pin byte-identical output and exit codes in-process.
CliResult run_cli(const CliOptions& opts);

// Individual rule passes (exposed for focused unit tests).
void run_seam_rules(const LexedFile& f, const std::vector<std::string>& rules,
                    std::vector<Finding>& findings);
void run_determinism_rules(const LexedFile& f, const std::vector<std::string>& rules,
                           std::vector<Finding>& findings);

/// Per-file half of the lock pass: emits blocking-while-locked findings
/// and returns the file's lock-order edges for the cross-TU graph.
struct LockEdge {
  std::string held;      // normalized mutex expression already held
  std::string acquired;  // normalized mutex expression being acquired
  std::string path;
  int line = 0;  // acquisition site
};
std::vector<LockEdge> run_lock_rules(const LexedFile& f,
                                     const std::vector<std::string>& rules,
                                     std::vector<Finding>& findings);
/// Cross-TU half: cycle detection over the merged edge list.
void report_lock_cycles(const std::vector<LockEdge>& edges,
                        std::vector<Finding>& findings);

}  // namespace taf::analyze
