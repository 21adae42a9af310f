// Tests for taf-analyze (tools/analyzer): lexer semantics, the findings
// corpus under tests/analyzer_corpus/, CLI determinism and exit codes,
// suppression handling, and the self-host gate over the live tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "analyzer/lexer.hpp"

namespace fs = std::filesystem;

namespace {

using namespace taf::analyze;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const fs::path& p, const std::string& text) {
  fs::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << "cannot write " << p;
}

// ------------------------------------------------------------- lexer

TEST(Lexer, CommentsBlankedKeepingLineStructure) {
  const LexedFile f = lex("a.cpp", "int a; // trailing getenv(\n/* block\nspans */ int b;\n");
  EXPECT_EQ(f.stripped.find("getenv"), std::string::npos);
  EXPECT_EQ(f.stripped.find("spans"), std::string::npos);
  // Same newline count: line numbers survive stripping.
  EXPECT_EQ(std::count(f.stripped.begin(), f.stripped.end(), '\n'), 3);
  EXPECT_NE(f.stripped.find("int b;"), std::string::npos);
}

TEST(Lexer, StringLiteralInteriorBlankedQuotesKept) {
  const LexedFile f = lex("a.cpp", "const char* s = \"call getenv(x) now\";\n");
  EXPECT_EQ(f.stripped.find("getenv"), std::string::npos);
  EXPECT_NE(f.stripped.find('"'), std::string::npos);
}

TEST(Lexer, RawStringInteriorBlankedEvenWithQuotesAndParens) {
  // The pre-lexer stripper treated R"(...)" as an ordinary string: the
  // quote inside the literal "closed" it and getenv( leaked into the
  // stripped text. The lexer must blank the full raw literal.
  const std::string src =
      "const char* d = R\"(say \" then std::getenv(\"X\") inside)\";\n"
      "const char* e = R\"==(fake )\" terminator)==\";\n";
  const LexedFile f = lex("a.cpp", src);
  EXPECT_EQ(f.stripped.find("getenv"), std::string::npos);
  EXPECT_EQ(f.stripped.find("terminator"), std::string::npos);
  EXPECT_EQ(std::count(f.stripped.begin(), f.stripped.end(), '\n'), 2);
}

// The stripper algorithm the seam rules used before the raw-string fix:
// literals end at the first unescaped matching quote, and an escape always
// blanks two characters (dropping escaped newlines). Kept here as a
// regression witness: it must FAIL on the corpus raw-string input that the
// new lexer handles, or the corpus case is no longer load-bearing.
std::string naive_strip(const std::string& text) {
  std::string out;
  std::size_t i = 0;
  const std::size_t n = text.size();
  char state = 0;
  while (i < n) {
    const char ch = text[i];
    const char nxt = i + 1 < n ? text[i + 1] : '\0';
    if (state == 0) {
      if (ch == '/' && nxt == '/') { state = 1; out += "  "; i += 2; continue; }
      if (ch == '/' && nxt == '*') { state = 2; out += "  "; i += 2; continue; }
      if (ch == '"' || ch == '\'') { state = ch; out += ch; ++i; continue; }
      out += ch;
      ++i;
      continue;
    }
    if (state == 1) { out += ch == '\n' ? '\n' : ' '; state = ch == '\n' ? 0 : state; ++i; continue; }
    if (state == 2) {
      if (ch == '*' && nxt == '/') { state = 0; out += "  "; i += 2; continue; }
      out += ch == '\n' ? '\n' : ' ';
      ++i;
      continue;
    }
    if (ch == '\\') { out += "  "; i += 2; continue; }  // drops escaped newlines
    if (ch == state) state = 0;
    out += (ch == '\n' || ch == '"' || ch == '\'') ? ch : ' ';
    ++i;
  }
  return out;
}

TEST(Lexer, OldStripperFailsOnRawStringsNewLexerPasses) {
  const std::string src =
      "const char* d = R\"(say \" then std::getenv(\"X\") inside)\";\n";
  // Old behavior: the embedded quote "closes" the literal and getenv(
  // leaks into the stripped text — the false positive the fix removes.
  EXPECT_NE(naive_strip(src).find("getenv"), std::string::npos);
  EXPECT_EQ(lex("a.cpp", src).stripped.find("getenv"), std::string::npos);

  // Old behavior: the backslash-newline escape loses its newline, shifting
  // every later line number by one.
  const std::string esc = "const char* s = \"a\\\nb\";\nint site;\n";
  const std::string old_stripped = naive_strip(esc);
  EXPECT_LT(std::count(old_stripped.begin(), old_stripped.end(), '\n'), 3);
  const std::string new_stripped = lex("a.cpp", esc).stripped;
  EXPECT_EQ(std::count(new_stripped.begin(), new_stripped.end(), '\n'), 3);
}

TEST(Lexer, MultiLineRawStringKeepsLineNumbers) {
  const std::string src = "auto u = R\"(line one\nline two\n)\";\nint getenv_site;\n";
  const LexedFile f = lex("a.cpp", src);
  EXPECT_EQ(std::count(f.stripped.begin(), f.stripped.end(), '\n'), 4);
  // A token after the raw string sits on the right line.
  bool found = false;
  for (const Token& t : f.tokens) {
    if (f.tok(t) == "getenv_site") {
      EXPECT_EQ(t.line, 4);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lexer, EscapedNewlineInLiteralKeepsLineCount) {
  // A backslash-newline inside a string spans lines; blanking both escape
  // characters must still keep the newline or every later line number
  // shifts (the old stripper dropped it).
  const std::string src = "const char* s = \"a\\\nb\";\nint site;\n";
  const LexedFile f = lex("a.cpp", src);
  EXPECT_EQ(std::count(f.stripped.begin(), f.stripped.end(), '\n'), 3);
}

TEST(Lexer, RawStringIsOneStringToken) {
  const LexedFile f = lex("a.cpp", "auto s = u8R\"(x(y)z)\";\n");
  int strs = 0;
  for (const Token& t : f.tokens)
    if (t.kind == Tok::Str) ++strs;
  EXPECT_EQ(strs, 1);
}

TEST(Lexer, PreprocessorContinuationIsOneToken) {
  const LexedFile f = lex("a.cpp", "#define M(x) \\\n  ((x) + 1)\nint a;\n");
  int preproc = 0;
  for (const Token& t : f.tokens)
    if (t.kind == Tok::Preproc) ++preproc;
  EXPECT_EQ(preproc, 1);
}

TEST(Lexer, TwoCharPunctuatorsAreSingleTokens) {
  const LexedFile f = lex("a.cpp", "a::b->c += d << e;\n");
  std::vector<std::string> puncts;
  for (const Token& t : f.tokens)
    if (t.kind == Tok::Punct) puncts.push_back(f.tok(t));
  EXPECT_EQ(puncts, (std::vector<std::string>{"::", "->", "+=", "<<", ";"}));
}

// ------------------------------------------------------------ corpus

struct CorpusFile {
  std::string disk_name;     // for diagnostics
  std::string virtual_path;  // from the analyzer-corpus-path marker
  std::string group;         // empty: analyzed alone
  std::string text;
  std::vector<std::string> expected;  // "path:line:rule"
};

std::vector<CorpusFile> load_corpus() {
  const fs::path dir = TAF_ANALYZER_CORPUS_DIR;
  std::vector<fs::path> paths;
  for (const auto& ent : fs::directory_iterator(dir))
    if (ent.path().extension() == ".cxx") paths.push_back(ent.path());
  std::sort(paths.begin(), paths.end());
  EXPECT_GE(paths.size(), 10u) << "corpus unexpectedly small";

  std::vector<CorpusFile> out;
  for (const fs::path& p : paths) {
    CorpusFile cf;
    cf.disk_name = p.filename().string();
    cf.text = slurp(p);
    std::istringstream in(cf.text);
    std::string line;
    const std::string path_marker = "// analyzer-corpus-path:";
    const std::string group_marker = "// analyzer-corpus-group:";
    if (std::getline(in, line) && line.rfind(path_marker, 0) == 0) {
      cf.virtual_path = line.substr(path_marker.size());
      cf.virtual_path.erase(0, cf.virtual_path.find_first_not_of(" \t"));
    }
    EXPECT_FALSE(cf.virtual_path.empty()) << cf.disk_name << ": missing path marker";
    if (std::getline(in, line) && line.rfind(group_marker, 0) == 0) {
      cf.group = line.substr(group_marker.size());
      cf.group.erase(0, cf.group.find_first_not_of(" \t"));
    }
    const fs::path sidecar = fs::path(p).replace_extension(".expected");
    EXPECT_TRUE(fs::exists(sidecar)) << cf.disk_name << ": missing .expected sidecar";
    std::istringstream ein(slurp(sidecar));
    while (std::getline(ein, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      cf.expected.push_back(line);
    }
    out.push_back(std::move(cf));
  }
  return out;
}

TEST(Corpus, EveryCaseMatchesItsExpectedFindings) {
  const std::vector<CorpusFile> corpus = load_corpus();
  // Group files analyzed together (cross-TU lock graph); singletons alone.
  std::map<std::string, std::vector<const CorpusFile*>> groups;
  for (const CorpusFile& cf : corpus)
    groups[cf.group.empty() ? "file:" + cf.disk_name : "group:" + cf.group].push_back(&cf);

  for (const auto& [key, members] : groups) {
    std::vector<SourceFile> sources;
    std::vector<std::string> expected;
    std::string names;
    for (const CorpusFile* cf : members) {
      sources.push_back({cf->virtual_path, cf->text});
      expected.insert(expected.end(), cf->expected.begin(), cf->expected.end());
      names += cf->disk_name + " ";
    }
    std::vector<std::string> actual;
    for (const Finding& f : analyze_sources(sources, {}))
      actual.push_back(f.path + ":" + std::to_string(f.line) + ":" + f.rule);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "corpus case " << names;
  }
}

TEST(Corpus, CoversBothNewRuleFamiliesWithPositivesAndNegatives) {
  const std::vector<CorpusFile> corpus = load_corpus();
  std::map<std::string, int> positives;
  int clean_files = 0;
  for (const CorpusFile& cf : corpus) {
    if (cf.expected.empty()) ++clean_files;
    for (const std::string& e : cf.expected)
      ++positives[e.substr(e.rfind(':') + 1)];
  }
  // Every registered rule — seam, lock-discipline and determinism — has
  // at least one positive the corpus pins.
  for (const std::string& rule : all_rules())
    EXPECT_GE(positives[rule], 1) << "no corpus positive for " << rule;
  // Pinned non-findings are as load-bearing as the positives.
  EXPECT_GE(clean_files, 3);
}

// --------------------------------------------------------------- CLI

TEST(Cli, OutputIsByteIdenticalAcrossRunsAndArgumentOrder) {
  CliOptions a;
  a.root = TAF_REPO_ROOT;
  a.paths = {"src", "bench", "tests", "examples"};
  CliOptions b = a;
  b.paths = {"tests", "examples", "src", "bench", "src"};  // shuffled + dup
  const CliResult r1 = run_cli(a);
  const CliResult r2 = run_cli(a);
  const CliResult r3 = run_cli(b);
  EXPECT_EQ(r1.out, r2.out);
  EXPECT_EQ(r1.err, r2.err);
  EXPECT_EQ(r1.exit_code, r2.exit_code);
  EXPECT_EQ(r1.out, r3.out);
  EXPECT_EQ(r1.err, r3.err);
  EXPECT_EQ(r1.exit_code, r3.exit_code);
}

TEST(Cli, SelfHostTreeIsClean) {
  CliOptions opts;
  opts.root = TAF_REPO_ROOT;
  opts.paths = {"src", "bench", "tests", "examples", "tools/analyzer"};
  const CliResult res = run_cli(opts);
  EXPECT_EQ(res.exit_code, 0) << res.out;
  EXPECT_TRUE(res.out.empty()) << res.out;
}

TEST(Cli, ExitCodeZeroOnCleanTree) {
  const fs::path root = fs::path(testing::TempDir()) / "taf_an_clean";
  fs::remove_all(root);
  spit(root / "src" / "ok.cpp", "int f() { return 1; }\n");
  CliOptions opts;
  opts.root = root.string();
  const CliResult res = run_cli(opts);
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_TRUE(res.out.empty());
  EXPECT_NE(res.err.find("clean"), std::string::npos);
}

TEST(Cli, ExitCodeOneOnFinding) {
  const fs::path root = fs::path(testing::TempDir()) / "taf_an_dirty";
  fs::remove_all(root);
  spit(root / "src" / "bad.cpp", "#include <cstdlib>\nint f() { return atoi(\"1\"); }\n");
  CliOptions opts;
  opts.root = root.string();
  const CliResult res = run_cli(opts);
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.out.find("src/bad.cpp:2: [banned-identifier]"), std::string::npos)
      << res.out;
}

TEST(Cli, ExitCodeTwoOnMissingExplicitPath) {
  CliOptions opts;
  opts.root = TAF_REPO_ROOT;
  opts.paths = {"no/such/dir"};
  const CliResult res = run_cli(opts);
  EXPECT_EQ(res.exit_code, 2);
  EXPECT_NE(res.err.find("cannot read no/such/dir"), std::string::npos);
}

TEST(Cli, SummaryTableCountsPerRule) {
  const fs::path root = fs::path(testing::TempDir()) / "taf_an_summary";
  fs::remove_all(root);
  spit(root / "src" / "bad.cpp",
       "#include <cstdlib>\nint f() { return atoi(\"1\") + (atof(\"2\") > 0); }\n");
  spit(root / "tools" / "taf-analyze.suppressions",
       "src/bad.cpp:banned-identifier:atof  # pinned\n");
  CliOptions opts;
  opts.root = root.string();
  const CliResult res = run_cli(opts);
  // Two banned calls: atoi stays visible, atof is suppressed by message
  // substring.
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.err.find("banned-identifier"), std::string::npos);
  EXPECT_NE(res.err.find("1 finding(s) (1 suppressed)"), std::string::npos) << res.err;
}

TEST(Cli, PruneReportsOnlyStaleSuppressions) {
  const fs::path root = fs::path(testing::TempDir()) / "taf_an_prune";
  fs::remove_all(root);
  spit(root / "src" / "bad.cpp", "#include <cstdlib>\nint f() { return atoi(\"1\"); }\n");
  spit(root / "tools" / "taf-analyze.suppressions",
       "# comment line\n"
       "src/bad.cpp:banned-identifier  # live\n"
       "src/gone.cpp:raw-serialization  # stale: file no longer exists\n");
  CliOptions opts;
  opts.root = root.string();
  opts.prune = true;
  const CliResult res = run_cli(opts);
  EXPECT_EQ(res.exit_code, 0);  // report-only, never fails the build
  EXPECT_EQ(res.out.find("src/bad.cpp"), std::string::npos) << res.out;
  EXPECT_NE(res.out.find("stale suppression (tools/taf-analyze.suppressions:3): "
                         "src/gone.cpp:raw-serialization"),
            std::string::npos)
      << res.out;
  EXPECT_NE(res.err.find("1 stale suppression entry(ies) of 2"), std::string::npos);
}

TEST(Cli, LiveSuppressionFileHasNoStaleEntries) {
  CliOptions opts;
  opts.root = TAF_REPO_ROOT;
  opts.paths = {"src", "bench", "tests", "examples"};
  opts.prune = true;
  const CliResult res = run_cli(opts);
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_TRUE(res.out.empty()) << "stale suppressions:\n" << res.out;
}

TEST(Cli, RuleFilterRunsOnlyRequestedRules) {
  const fs::path root = fs::path(testing::TempDir()) / "taf_an_filter";
  fs::remove_all(root);
  spit(root / "src" / "bad.cpp",
       "#include <cstdlib>\nint f() { return atoi(getenv(\"X\")[0]); }\n");
  CliOptions opts;
  opts.root = root.string();
  opts.rules = {"env-through-util"};
  opts.summary = false;
  const CliResult res = run_cli(opts);
  EXPECT_EQ(res.out,
            "src/bad.cpp:2: [env-through-util] read environment through "
            "util::env_cstr / env_set / env_positive_int (src/util/env.hpp)\n");
}

// ------------------------------------------------------ suppressions

TEST(Suppress, GlobMatchSemantics) {
  EXPECT_TRUE(glob_match("src/*.cpp", "src/pack/pack.cpp"));  // '*' crosses '/'
  EXPECT_TRUE(glob_match("tests/test_*.cpp", "tests/test_cad.cpp"));
  EXPECT_FALSE(glob_match("tests/test_*.cpp", "tests/helper.cpp"));
  EXPECT_TRUE(glob_match("*", "anything/at/all.hpp"));
  EXPECT_TRUE(glob_match("src/a?c.cpp", "src/abc.cpp"));
  EXPECT_FALSE(glob_match("src/a?c.cpp", "src/ac.cpp"));
  EXPECT_TRUE(glob_match("src/[ab]x.cpp", "src/ax.cpp"));
  EXPECT_FALSE(glob_match("src/[!ab]x.cpp", "src/ax.cpp"));
  EXPECT_TRUE(glob_match("src/[a-c]x.cpp", "src/bx.cpp"));
}

TEST(Suppress, ParseEntriesAndMatchFindings) {
  const std::vector<Suppression> sup = parse_suppressions(
      "# header comment\n"
      "src/thermal/*.hpp:unit-typed-api:power_scale  # why\n"
      "bench/bench_all.cpp:raw-serialization\n"
      "tests/flaky.cpp\n");
  ASSERT_EQ(sup.size(), 3u);
  EXPECT_EQ(sup[0].line, 2);
  EXPECT_EQ(sup[0].rule, "unit-typed-api");
  EXPECT_EQ(sup[0].substr, "power_scale");
  EXPECT_EQ(sup[2].rule, "*");

  Finding f{"src/thermal/flow.hpp", 10, "unit-typed-api", "raw `double power_scale`"};
  EXPECT_TRUE(suppression_matches(sup[0], f));
  f.message = "raw `double temp_c`";
  EXPECT_FALSE(suppression_matches(sup[0], f));  // substring mismatch
  f.rule = "banned-identifier";
  EXPECT_FALSE(suppression_matches(sup[0], f));
  Finding any{"tests/flaky.cpp", 1, "wall-clock", "m"};
  EXPECT_TRUE(suppression_matches(sup[2], any));  // rule wildcard
}

}  // namespace
