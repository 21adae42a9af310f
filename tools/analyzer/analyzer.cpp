// taf-analyze driver: file collection, suppression handling, deterministic
// reporting, and the CLI surface. Output is a pure function of the input
// file set — findings are sorted by (path, line, rule, message), the file
// list is sorted and de-duplicated, and no clocks, locale, or pointer
// values feed the report — so two runs (or a shuffled argument order)
// produce byte-identical output; tests pin this.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "analyzer/analyzer.hpp"

namespace taf::analyze {

namespace fs = std::filesystem;

bool operator<(const Finding& a, const Finding& b) {
  return std::tie(a.path, a.line, a.rule, a.message) <
         std::tie(b.path, b.line, b.rule, b.message);
}
bool operator==(const Finding& a, const Finding& b) {
  return a.path == b.path && a.line == b.line && a.rule == b.rule &&
         a.message == b.message;
}

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      "unit-typed-api",    "printf-sized-int",      "header-using-ns",
      "env-through-util",  "banned-identifier",     "raw-serialization",
      "thermal-backend-seam", "service-socket-seam", "trace-codec-seam",
      "place-cost-seam",
      "lock-order-cycle",  "blocking-while-locked", "unordered-iteration",
      "wall-clock",        "raw-random",            "pointer-keyed-container",
  };
  return kRules;
}

std::vector<Finding> analyze_sources(const std::vector<SourceFile>& sources,
                                     const std::vector<std::string>& rules) {
  std::vector<Finding> findings;
  std::vector<LockEdge> edges;
  for (const SourceFile& src : sources) {
    const LexedFile lexed = lex(src.path, src.text);
    run_seam_rules(lexed, rules, findings);
    run_determinism_rules(lexed, rules, findings);
    std::vector<LockEdge> file_edges = run_lock_rules(lexed, rules, findings);
    edges.insert(edges.end(), file_edges.begin(), file_edges.end());
  }
  std::sort(edges.begin(), edges.end(), [](const LockEdge& a, const LockEdge& b) {
    return std::tie(a.path, a.line, a.held, a.acquired) <
           std::tie(b.path, b.line, b.held, b.acquired);
  });
  report_lock_cycles(edges, findings);
  std::sort(findings.begin(), findings.end());
  return findings;
}

// ---------------------------------------------------------- suppressions

std::vector<Suppression> parse_suppressions(const std::string& text) {
  std::vector<Suppression> out;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string entry = raw.substr(0, raw.find('#'));
    std::size_t b = entry.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) continue;
    std::size_t e = entry.find_last_not_of(" \t\r\n");
    entry = entry.substr(b, e - b + 1);
    Suppression s;
    s.line = lineno;
    s.entry = entry;
    const std::size_t c1 = entry.find(':');
    if (c1 == std::string::npos) {
      s.glob = entry;
      s.rule = "*";
    } else {
      s.glob = entry.substr(0, c1);
      const std::size_t c2 = entry.find(':', c1 + 1);
      if (c2 == std::string::npos) {
        s.rule = entry.substr(c1 + 1);
      } else {
        s.rule = entry.substr(c1 + 1, c2 - c1 - 1);
        s.substr = entry.substr(c2 + 1);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

// fnmatch-style glob: '*' matches any run (including '/'), '?' any single
// character, [seq] / [!seq] character classes with ranges.
bool glob_match(const std::string& pattern, const std::string& s) {
  const std::size_t np = pattern.size(), ns = s.size();
  std::size_t p = 0, i = 0, star_p = std::string::npos, star_i = 0;
  while (i < ns) {
    if (p < np) {
      const char pc = pattern[p];
      if (pc == '*') {
        star_p = p++;
        star_i = i;
        continue;
      }
      if (pc == '?') {
        ++p;
        ++i;
        continue;
      }
      if (pc == '[') {
        std::size_t q = p + 1;
        bool negate = false;
        if (q < np && (pattern[q] == '!' || pattern[q] == '^')) {
          negate = true;
          ++q;
        }
        bool hit = false;
        bool first = true;
        while (q < np && (first || pattern[q] != ']')) {
          if (q + 2 < np && pattern[q + 1] == '-' && pattern[q + 2] != ']') {
            if (pattern[q] <= s[i] && s[i] <= pattern[q + 2]) hit = true;
            q += 3;
          } else {
            if (pattern[q] == s[i]) hit = true;
            ++q;
          }
          first = false;
        }
        if (q < np && pattern[q] == ']' && (hit != negate)) {
          p = q + 1;
          ++i;
          continue;
        }
      } else if (pc == s[i]) {
        ++p;
        ++i;
        continue;
      }
    }
    if (star_p != std::string::npos) {  // backtrack: let '*' eat one more char
      p = star_p + 1;
      i = ++star_i;
      continue;
    }
    return false;
  }
  while (p < np && pattern[p] == '*') ++p;
  return p == np;
}

bool suppression_matches(const Suppression& s, const Finding& f) {
  if (!glob_match(s.glob, f.path)) return false;
  if (s.rule != "*" && s.rule != f.rule) return false;
  if (!s.substr.empty() && f.message.find(s.substr) == std::string::npos) return false;
  return true;
}

// ------------------------------------------------------------------ CLI

namespace {

const std::vector<std::string>& default_dirs() {
  static const std::vector<std::string> kDirs = {"src", "bench", "tests", "examples"};
  return kDirs;
}

bool has_source_ext(const std::string& name) {
  for (const char* ext : {".cpp", ".hpp", ".h", ".cc"}) {
    const std::string e = ext;
    if (name.size() >= e.size() &&
        name.compare(name.size() - e.size(), e.size(), e) == 0)
      return true;
  }
  return false;
}

std::string pad_right(const std::string& s, std::size_t width) {
  std::string out = s;
  while (out.size() < width) out += ' ';
  return out;
}
std::string pad_left(const std::string& s, std::size_t width) {
  std::string out = s;
  while (out.size() < width) out.insert(out.begin(), ' ');
  return out;
}

}  // namespace

CliResult run_cli(const CliOptions& opts) {
  CliResult res;
  if (opts.list_rules) {
    for (const std::string& r : all_rules()) res.out += r + "\n";
    return res;
  }
  const fs::path root = opts.root.empty() ? fs::path(".") : fs::path(opts.root);

  // ----------------------------------------------------- collect files
  std::vector<std::string> paths = opts.paths;
  if (paths.empty()) {
    for (const std::string& d : default_dirs())
      if (fs::is_directory(root / d)) paths.push_back(d);
  } else {
    for (const std::string& p : paths) {
      if (!fs::exists(root / p)) {
        res.err = "taf-analyze: cannot read " + p + ": no such file or directory\n";
        res.exit_code = 2;
        return res;
      }
    }
  }
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    const fs::path full = root / p;
    if (fs::is_regular_file(full)) {
      files.push_back(fs::path(p).generic_string());
      continue;
    }
    std::error_code ec;
    for (fs::recursive_directory_iterator it(full, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      const std::string name = it->path().filename().string();
      if (!has_source_ext(name)) continue;
      files.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& rel : files) {
    std::ifstream in(root / rel, std::ios::binary);
    if (!in) {
      res.err = "taf-analyze: cannot read " + rel + ": open failed\n";
      res.exit_code = 2;
      return res;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
      res.err = "taf-analyze: cannot read " + rel + ": read failed\n";
      res.exit_code = 2;
      return res;
    }
    sources.push_back({rel, buf.str()});
  }

  // ----------------------------------------------------------- analyze
  const std::vector<std::string> rule_filter = opts.prune ? std::vector<std::string>{}
                                                          : opts.rules;
  const std::vector<Finding> findings = analyze_sources(sources, rule_filter);

  std::vector<Suppression> suppressions;
  {
    std::ifstream in(root / "tools" / "taf-analyze.suppressions", std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      suppressions = parse_suppressions(buf.str());
    }
  }

  // ------------------------------------------- prune-suppressions mode
  if (opts.prune) {
    std::vector<bool> live(suppressions.size(), false);
    for (const Finding& f : findings)
      for (std::size_t k = 0; k < suppressions.size(); ++k)
        if (!live[k] && suppression_matches(suppressions[k], f)) live[k] = true;
    std::size_t stale = 0;
    for (std::size_t k = 0; k < suppressions.size(); ++k) {
      if (live[k]) continue;
      ++stale;
      res.out += "taf-analyze: stale suppression (tools/taf-analyze.suppressions:" +
                 std::to_string(suppressions[k].line) + "): " + suppressions[k].entry +
                 "\n";
    }
    res.err = stale ? "taf-analyze: " + std::to_string(stale) +
                          " stale suppression entry(ies) of " +
                          std::to_string(suppressions.size()) + "\n"
                    : "taf-analyze: suppressions all live (" +
                          std::to_string(suppressions.size()) + " entries)\n";
    return res;
  }

  // -------------------------------------------------- report findings
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_rule;
  const std::vector<std::string>& enabled =
      opts.rules.empty() ? all_rules() : opts.rules;
  for (const std::string& r : enabled) per_rule[r] = {0, 0};

  std::size_t visible = 0, hidden = 0;
  for (const Finding& f : findings) {
    bool is_suppressed = false;
    if (opts.use_suppressions) {
      for (const Suppression& s : suppressions)
        if (suppression_matches(s, f)) {
          is_suppressed = true;
          break;
        }
    }
    auto& counts = per_rule[f.rule];
    if (is_suppressed) {
      ++hidden;
      ++counts.second;
      continue;
    }
    ++visible;
    ++counts.first;
    res.out +=
        f.path + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message + "\n";
  }

  if (opts.summary) {
    res.err += "taf-analyze: " + pad_right("rule", 26) + pad_left("findings", 10) +
               pad_left("suppressed", 12) + "\n";
    for (const std::string& r : all_rules()) {
      const auto it = per_rule.find(r);
      if (it == per_rule.end()) continue;
      res.err += "taf-analyze: " + pad_right(r, 26) +
                 pad_left(std::to_string(it->second.first), 10) +
                 pad_left(std::to_string(it->second.second), 12) + "\n";
    }
  }
  res.err += visible ? "taf-analyze: " + std::to_string(visible) + " finding(s) (" +
                           std::to_string(hidden) + " suppressed) over " +
                           std::to_string(files.size()) + " file(s)\n"
                     : "taf-analyze: clean (" + std::to_string(hidden) +
                           " suppressed) over " + std::to_string(files.size()) +
                           " file(s)\n";
  res.exit_code = visible ? 1 : 0;
  return res;
}

}  // namespace taf::analyze
