// taf-analyze CLI entry point. All behavior lives in run_cli()
// (analyzer.cpp) so tests can pin output bytes and exit codes in-process.

#include <cstdio>
#include <cstring>
#include <string>

#include "analyzer/analyzer.hpp"

namespace {

const char kUsage[] =
    "usage: taf-analyze [--root DIR] [--rules a,b,...] [--list-rules]\n"
    "                   [--no-suppress] [--prune-suppressions]\n"
    "                   [--no-summary] [paths...]\n"
    "\n"
    "Compiled static-analysis gate for the TAF tree (DESIGN.md section 14).\n"
    "With no paths, analyzes src/ bench/ tests/ examples/ under --root.\n"
    "Exit status: 0 clean, 1 unsuppressed findings, 2 I/O error.\n";

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t b = 0;
  while (b <= s.size()) {
    const std::size_t e = s.find(',', b);
    if (e == std::string::npos) {
      if (b < s.size()) out.push_back(s.substr(b));
      break;
    }
    if (e > b) out.push_back(s.substr(b, e - b));
    b = e + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  taf::analyze::CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--list-rules") {
      opts.list_rules = true;
    } else if (arg == "--no-suppress") {
      opts.use_suppressions = false;
    } else if (arg == "--prune-suppressions") {
      opts.prune = true;
    } else if (arg == "--no-summary") {
      opts.summary = false;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fputs("taf-analyze: --root needs an argument\n", stderr);
        return 2;
      }
      opts.root = argv[++i];
    } else if (arg == "--rules") {
      if (i + 1 >= argc) {
        std::fputs("taf-analyze: --rules needs an argument\n", stderr);
        return 2;
      }
      for (std::string& r : split_commas(argv[++i])) opts.rules.push_back(std::move(r));
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      std::fputs(("taf-analyze: unknown option " + arg + "\n").c_str(), stderr);
      std::fputs(kUsage, stderr);
      return 2;
    } else {
      opts.paths.push_back(arg);
    }
  }
  for (const std::string& r : opts.rules) {
    bool known = false;
    for (const std::string& k : taf::analyze::all_rules()) known = known || k == r;
    if (!known) {
      std::fputs(("taf-analyze: unknown rule " + r + "\n").c_str(), stderr);
      return 2;
    }
  }
  const taf::analyze::CliResult res = taf::analyze::run_cli(opts);
  if (!res.out.empty()) std::fputs(res.out.c_str(), stdout);
  if (!res.err.empty()) std::fputs(res.err.c_str(), stderr);
  return res.exit_code;
}
