// The ten seam rules, char-level scans over the shared lexer's stripped
// view (and the raw text where a rule must see literal contents). Each
// scan is specified by the regex quoted above it and keeps that regex's
// matching semantics exactly — non-overlapping match consumption,
// backtracking order of alternations, `[^,)]*` running across newlines,
// printf argument splitting on raw text. The findings corpus
// (tests/analyzer_corpus) pins every rule's positives and negatives; a
// change to a scan updates its corpus expectations in the same commit.

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"

namespace taf::analyze {

namespace {

bool word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_';
}
bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool digit(char c) { return c >= '0' && c <= '9'; }
bool space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

bool want(const std::vector<std::string>& rules, const char* name) {
  if (rules.empty()) return true;
  for (const std::string& r : rules)
    if (r == name) return true;
  return false;
}

// Word-bounded occurrence of `w` starting at `p` in `s`.
bool word_at(const std::string& s, std::size_t p, const char* w) {
  const std::size_t len = std::strlen(w);
  if (s.compare(p, len, w) != 0) return false;
  if (p > 0 && word_char(s[p - 1])) return false;
  if (p + len < s.size() && word_char(s[p + len])) return false;
  return true;
}

bool contains_word(const std::string& s, const char* w) {
  const std::size_t len = std::strlen(w);
  for (std::size_t p = s.find(w); p != std::string::npos; p = s.find(w, p + 1)) {
    if ((p == 0 || !word_char(s[p - 1])) &&
        (p + len >= s.size() || !word_char(s[p + len])))
      return true;
  }
  return false;
}

std::size_t skip_space(const std::string& s, std::size_t p) {
  while (p < s.size() && space(s[p])) ++p;
  return p;
}

// Optional `std \s* :: \s*` prefix directly before the function name at
// `name_pos`; returns the match start (position of `std`, or `name_pos`).
// Mirrors the `\b(?:std\s*::\s*)?name` pattern: the name itself must not
// be preceded by a word character unless the std:: prefix supplies the
// word boundary.
bool match_std_prefixed(const std::string& s, std::size_t name_pos, std::size_t* start) {
  std::size_t p = name_pos;
  while (p > 0 && space(s[p - 1])) --p;
  if (p >= 2 && s[p - 1] == ':' && s[p - 2] == ':') {
    p -= 2;
    while (p > 0 && space(s[p - 1])) --p;
    if (p >= 3 && s.compare(p - 3, 3, "std") == 0 &&
        (p == 3 || !word_char(s[p - 4]))) {
      *start = p - 3;
      return true;
    }
  }
  if (name_pos > 0 && word_char(s[name_pos - 1])) return false;
  *start = name_pos;
  return true;
}

// ------------------------------------------------------- unit-typed-api

const std::array<const char*, 4> kPublicApiDirs = {"src/thermal/", "src/power/",
                                                   "src/timing/", "src/core/"};

// UNIT_PARAM_NAME: parameter names that carry a physical dimension.
bool unit_param_name(const std::string& name) {
  static const std::array<const char*, 8> kTempStems = {
      "t", "temp", "tamb", "t_amb", "t_opt", "t_min", "t_max", "t_worst"};
  static const std::array<const char*, 8> kDimStems = {
      "delay", "delays", "power", "freq", "frequency", "fmax", "period", "epsilon_c"};
  static const std::array<const char*, 17> kUnitSuffixes = {
      "c", "k", "w", "uw", "mw", "ps", "ns", "us", "mhz",
      "ghz", "hz", "v", "ohm", "ohms", "farad", "f_hz", ""};
  for (std::size_t p = 0; p <= name.size(); ++p) {
    if (p != 0 && (p > name.size() || name[p - 1] != '_')) continue;
    for (const char* stem : kTempStems) {
      const std::size_t len = std::strlen(stem);
      if (name.compare(p, len, stem) != 0) continue;
      const std::string rest = name.substr(p + len);
      if (rest.empty() || rest == "_c" || rest == "_k") return true;
    }
    for (const char* stem : kDimStems) {
      const std::size_t len = std::strlen(stem);
      if (name.compare(p, len, stem) != 0) continue;
      if (p + len == name.size() || name[p + len] == '_') return true;
    }
  }
  for (const char* suf : kUnitSuffixes) {
    if (*suf == '\0') continue;
    const std::string want_suffix = std::string("_") + suf;
    if (ends_with(name, want_suffix.c_str())) return true;
  }
  return false;
}

// DOUBLE_PARAM match attempt at offset `i` of the stripped text:
//   (?<![<\w])(?:const\s+)?double\s+(IDENT)\s*(?:=[^,)]*)?[,)]
// Returns one past the match end (0 = no match) and fills `name`.
std::size_t match_double_param_from(const std::string& s, std::size_t j,
                                    std::string& name) {
  if (s.compare(j, 6, "double") != 0) return 0;
  j += 6;
  const std::size_t ws = j;
  j = skip_space(s, j);
  if (j == ws) return 0;
  if (j >= s.size() || !ident_start(s[j])) return 0;
  const std::size_t ns = j;
  while (j < s.size() && word_char(s[j])) ++j;
  name = s.substr(ns, j - ns);
  j = skip_space(s, j);
  if (j < s.size() && s[j] == '=') {
    ++j;
    while (j < s.size() && s[j] != ',' && s[j] != ')') ++j;
  }
  if (j < s.size() && (s[j] == ',' || s[j] == ')')) return j + 1;
  return 0;
}

std::size_t match_double_param(const std::string& s, std::size_t i, std::string& name) {
  if (i > 0 && (s[i - 1] == '<' || word_char(s[i - 1]))) return 0;
  if (s.compare(i, 5, "const") == 0) {
    std::size_t k = skip_space(s, i + 5);
    if (k > i + 5) {
      const std::size_t e = match_double_param_from(s, k, name);
      if (e) return e;
    }
  }
  return match_double_param_from(s, i, name);
}

void check_unit_typed_api(const LexedFile& f, std::vector<Finding>& out) {
  if (!ends_with(f.path, ".hpp")) return;
  bool in_api = false;
  for (const char* d : kPublicApiDirs) in_api = in_api || starts_with(f.path, d);
  if (!in_api) return;
  const std::string& clean = f.stripped;
  std::size_t i = 0;
  while (i < clean.size()) {
    std::string name;
    const std::size_t e = match_double_param(clean, i, name);
    if (!e) {
      ++i;
      continue;
    }
    if (unit_param_name(name)) {
      out.push_back({f.path, line_of(clean, i), "unit-typed-api",
                     "raw `double " + name +
                         "` in a public header; use the "
                         "strong typedef from util/units.hpp"});
    }
    i = e;  // finditer consumes the whole match
  }
}

// ----------------------------------------------------- printf-sized-int

const std::array<const char*, 7> kPrintfNames = {
    "printf", "fprintf", "sprintf", "snprintf", "vprintf", "vfprintf", "vsnprintf"};

std::vector<std::string> split_args(const std::string& s) {
  std::vector<std::string> args;
  std::string cur;
  int depth = 0;
  for (char ch : s) {
    if (ch == '(' || ch == '<' || ch == '[')
      ++depth;
    else if (ch == ')' || ch == '>' || ch == ']')
      --depth;
    if (ch == ',' && depth == 0) {
      args.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  if (!cur.empty()) args.push_back(cur);
  return args;
}

bool conv_char(char c) { return std::strchr("diuoxXfFeEgGcsp%", c) != nullptr; }

struct Spec {
  std::string length;
  char conv;
};

// FORMAT_SPEC: %[-+ #0]*\d*(\.\d+)?(hh|h|ll|l|j|z|t)?([diuoxXfFeEgGcsp%])
// with regex alternation/backtracking order, non-overlapping.
std::vector<Spec> parse_specs(const std::string& fmt) {
  static const std::array<const char*, 7> kLens = {"hh", "h", "ll", "l", "j", "z", "t"};
  std::vector<Spec> specs;
  std::size_t k = 0;
  while (k < fmt.size()) {
    if (fmt[k] != '%') {
      ++k;
      continue;
    }
    std::size_t j = k + 1;
    while (j < fmt.size() && (fmt[j] == '-' || fmt[j] == '+' || fmt[j] == ' ' ||
                              fmt[j] == '#' || fmt[j] == '0'))
      ++j;
    while (j < fmt.size() && digit(fmt[j])) ++j;
    if (j < fmt.size() && fmt[j] == '.') {
      std::size_t d = j + 1;
      while (d < fmt.size() && digit(fmt[d])) ++d;
      if (d > j + 1) j = d;  // \.\d+ needs at least one digit, else group is skipped
    }
    bool matched = false;
    std::size_t end = 0;
    Spec spec;
    for (const char* L : kLens) {
      const std::size_t len = std::strlen(L);
      if (fmt.compare(j, len, L) == 0 && j + len < fmt.size() && conv_char(fmt[j + len])) {
        spec = {L, fmt[j + len]};
        end = j + len + 1;
        matched = true;
        break;
      }
    }
    if (!matched && j < fmt.size() && conv_char(fmt[j])) {
      spec = {"", fmt[j]};
      end = j + 1;
      matched = true;
    }
    if (matched) {
      if (spec.conv != '%') specs.push_back(spec);
      k = end;
    } else {
      ++k;
    }
  }
  return specs;
}

// SIZED_INT_ARG: .size() | sizeof | size_t | u?int{16,32,64}_t | ptrdiff_t
bool sized_int_arg(const std::string& arg) {
  if (arg.find(".size()") != std::string::npos) return true;
  if (contains_word(arg, "sizeof") || contains_word(arg, "size_t") ||
      contains_word(arg, "ptrdiff_t"))
    return true;
  static const std::array<const char*, 6> kSized = {"int16_t",  "int32_t",  "int64_t",
                                                    "uint16_t", "uint32_t", "uint64_t"};
  for (const char* w : kSized)
    if (contains_word(arg, w)) return true;
  return false;
}

std::string strip_ws(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && space(s[b])) ++b;
  while (e > b && space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

void check_printf_sized_int(const LexedFile& f, std::vector<Finding>& out) {
  const std::string& text = f.text;  // scans the raw text: needs literal contents
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (!ident_start(text[i]) || (i > 0 && word_char(text[i - 1]))) continue;
    std::size_t name_len = 0;
    for (const char* nm : kPrintfNames) {
      const std::size_t len = std::strlen(nm);
      if (text.compare(i, len, nm) == 0 && !(i + len < text.size() && word_char(text[i + len]))) {
        name_len = len;
        break;
      }
    }
    if (!name_len) continue;
    std::size_t p = skip_space(text, i + name_len);
    if (p >= text.size() || text[p] != '(') continue;
    const std::size_t start = p + 1;
    std::size_t j = start;
    int depth = 1;
    while (j < text.size() && depth) {
      if (text[j] == '(')
        ++depth;
      else if (text[j] == ')')
        --depth;
      ++j;
    }
    const std::size_t call_end = j > 0 ? j - 1 : 0;  // text[start : j-1]
    const std::string call =
        call_end > start ? text.substr(start, call_end - start) : std::string();
    // fmt = concatenation of every "((?:[^"\\]|\\.)*)" span in the call
    std::string fmt;
    for (std::size_t k = 0; k < call.size(); ++k) {
      if (call[k] != '"') continue;
      std::string content;
      std::size_t q = k + 1;
      bool closed = false;
      while (q < call.size()) {
        if (call[q] == '\\' && q + 1 < call.size()) {
          content += call[q];
          content += call[q + 1];
          q += 2;
          continue;
        }
        if (call[q] == '"') {
          closed = true;
          break;
        }
        content += call[q];
        ++q;
      }
      if (!closed) break;
      fmt += content;
      k = q;
    }
    const std::vector<Spec> specs = parse_specs(fmt);
    const std::vector<std::string> args = split_args(call);
    std::vector<std::string> value_args;
    bool seen_fmt = false;
    for (const std::string& a : args) {
      if (seen_fmt)
        value_args.push_back(a);
      else if (a.find('"') != std::string::npos)
        seen_fmt = true;
    }
    const std::size_t npairs = std::min(specs.size(), value_args.size());
    for (std::size_t k = 0; k < npairs; ++k) {
      const Spec& spec = specs[k];
      const std::string& arg = value_args[k];
      if (!sized_int_arg(arg) || arg.find("static_cast") != std::string::npos) continue;
      if (spec.length == "z" || spec.length == "j" || spec.length == "ll" ||
          spec.length == "t")
        continue;
      out.push_back({f.path, line_of(text, i), "printf-sized-int",
                     "'%" + spec.length + std::string(1, spec.conv) +
                         "' paired with sized-integer argument `" + strip_ws(arg) +
                         "`; use %zu/%lld or a static_cast"});
    }
    i = i + name_len - 1;  // resume after the matched name
  }
}

// ------------------------------------------------------ header-using-ns

void check_header_using_ns(const LexedFile& f, std::vector<Finding>& out) {
  if (!ends_with(f.path, ".hpp") && !ends_with(f.path, ".h")) return;
  const std::string& clean = f.stripped;
  std::size_t resume = 0;
  for (std::size_t p = 0; p < clean.size(); ++p) {
    if (p != 0 && clean[p - 1] != '\n') continue;  // ^ in multiline mode
    if (p < resume) continue;
    std::size_t j = skip_space(clean, p);  // ^\s* may span blank lines
    if (clean.compare(j, 5, "using") != 0) continue;
    j += 5;
    std::size_t ws = j;
    j = skip_space(clean, j);
    if (j == ws) continue;
    if (clean.compare(j, 9, "namespace") != 0) continue;
    j += 9;
    ws = j;
    j = skip_space(clean, j);
    if (j == ws) continue;
    std::size_t name = j;
    while (j < clean.size() && (word_char(clean[j]) || clean[j] == ':')) ++j;
    if (j == name) continue;
    j = skip_space(clean, j);
    if (j >= clean.size() || clean[j] != ';') continue;
    out.push_back({f.path, line_of(clean, p), "header-using-ns",
                   "`using namespace` in a header leaks into every includer"});
    resume = j + 1;
  }
}

// ----------------------------------------------------- env-through-util

void check_env_through_util(const LexedFile& f, std::vector<Finding>& out) {
  if (f.path == "src/util/env.cpp") return;
  const std::string& clean = f.stripped;
  for (std::size_t p = clean.find("getenv"); p != std::string::npos;
       p = clean.find("getenv", p + 1)) {
    if (p + 6 < clean.size() && word_char(clean[p + 6])) continue;
    const std::size_t after = skip_space(clean, p + 6);
    if (after >= clean.size() || clean[after] != '(') continue;
    std::size_t start = 0;
    if (!match_std_prefixed(clean, p, &start)) continue;
    out.push_back({f.path, line_of(clean, start), "env-through-util",
                   "read environment through util::env_cstr / env_set / "
                   "env_positive_int (src/util/env.hpp)"});
  }
}

// ---------------------------------------------------- banned-identifier

struct Banned {
  const char* name;
  const char* why;
};
const std::array<Banned, 10> kBanned = {{
    {"tile_leakage_uw", "renamed: use power::tile_leakage() -> units::Microwatts"},
    {"rep_cp_delay_ps", "renamed: use DeviceModel::rep_cp_delay() -> units::Picoseconds"},
    {"expected_cp_delay_ps", "renamed: use DeviceModel::expected_cp_delay()"},
    {"tile_time_constant_s",
     "renamed: use ThermalGrid::tile_time_constant() -> units::Seconds"},
    {"peak_c", "renamed: use ThermalGrid::peak() -> units::Celsius"},
    {"atoi", "use util::env_positive_int or std::strtol with error handling"},
    {"atof", "use std::strtod with error handling"},
    {"gets", "unbounded read; use std::fgets"},
    {"strcpy", "unbounded copy; use std::snprintf or std::string"},
    {"tmpnam", "racy; use mkstemp-style APIs"},
}};

void check_banned_identifier(const LexedFile& f, std::vector<Finding>& out) {
  const std::string& clean = f.stripped;
  for (std::size_t p = 0; p < clean.size(); ++p) {
    if (!ident_start(clean[p]) || (p > 0 && word_char(clean[p - 1]))) continue;
    for (const Banned& b : kBanned) {
      if (!word_at(clean, p, b.name)) continue;
      const std::size_t after = skip_space(clean, p + std::strlen(b.name));
      if (after >= clean.size() || clean[after] != '(') continue;
      out.push_back({f.path, line_of(clean, p), "banned-identifier",
                     "`" + std::string(b.name) + "` is banned: " + b.why});
      break;
    }
  }
}

// ---------------------------------------------------- raw-serialization

void check_raw_serialization(const LexedFile& f, std::vector<Finding>& out) {
  if (f.path == "src/util/codec.hpp") return;
  const std::string& clean = f.stripped;
  for (const char* nm : {"fwrite", "fread"}) {
    for (std::size_t p = clean.find(nm); p != std::string::npos;
         p = clean.find(nm, p + 1)) {
      if (!word_at(clean, p, nm)) continue;
      const std::size_t after = skip_space(clean, p + std::strlen(nm));
      if (after >= clean.size() || clean[after] != '(') continue;
      std::size_t start = 0;
      if (!match_std_prefixed(clean, p, &start)) continue;
      out.push_back({f.path, line_of(clean, start), "raw-serialization",
                     "`" + std::string(nm) +
                         "` outside util/codec.hpp; serialize through "
                         "the versioned codec (util::codec::Encoder/Decoder)"});
    }
  }
  for (std::size_t p = clean.find("memcpy"); p != std::string::npos;
       p = clean.find("memcpy", p + 1)) {
    if (!word_at(clean, p, "memcpy")) continue;
    const std::size_t after = skip_space(clean, p + 6);
    if (after >= clean.size() || clean[after] != '(') continue;
    std::size_t start = 0;
    if (!match_std_prefixed(clean, p, &start)) continue;
    // [^;]*\bsizeof\b — sizeof as a word before the first ';' after the '('
    const std::size_t semi = clean.find(';', after + 1);
    const std::size_t limit = semi == std::string::npos ? clean.size() : semi;
    bool has_sizeof = false;
    for (std::size_t q = after + 1; q + 6 <= limit; ++q) {
      if (word_at(clean, q, "sizeof")) {
        has_sizeof = true;
        break;
      }
    }
    if (!has_sizeof) continue;
    out.push_back({f.path, line_of(clean, start), "raw-serialization",
                   "`memcpy` of a sizeof-ed object is a struct dump (host "
                   "padding/endianness); serialize through util/codec.hpp"});
  }
}

// ------------------------------------------------- thermal-backend-seam

const char* kThermalSeamMsg =
    "stencil solver internals reached around the ThermalGrid seam; "
    "use the ThermalGrid API";

// `#\s*include\s*` directly before offset `p`; sets the match start.
bool include_directive_before(const std::string& t, std::size_t p, std::size_t* start) {
  std::size_t q = p;
  while (q > 0 && space(t[q - 1])) --q;
  if (q < 7 || t.compare(q - 7, 7, "include") != 0) return false;
  q -= 7;
  while (q > 0 && space(t[q - 1])) --q;
  if (q == 0 || t[q - 1] != '#') return false;
  *start = q - 1;
  return true;
}

void check_thermal_backend_seam(const LexedFile& f, std::vector<Finding>& out) {
  if (starts_with(f.path, "src/thermal/")) return;
  const std::string& text = f.text;
  const char* inc = "\"thermal/stencil_solver.hpp\"";
  for (std::size_t p = text.find(inc); p != std::string::npos;
       p = text.find(inc, p + 1)) {
    std::size_t start = 0;
    if (!include_directive_before(text, p, &start)) continue;
    out.push_back({f.path, line_of(text, start), "thermal-backend-seam", kThermalSeamMsg});
  }
  const std::string& clean = f.stripped;
  static const std::array<const char*, 3> kSuffixes = {"Op", "Solver", "SolveInfo"};
  for (std::size_t p = clean.find("Stencil"); p != std::string::npos;
       p = clean.find("Stencil", p + 1)) {
    if (p > 0 && word_char(clean[p - 1])) continue;
    for (const char* suf : kSuffixes) {
      const std::size_t len = std::strlen(suf);
      if (clean.compare(p + 7, len, suf) != 0) continue;
      if (p + 7 + len < clean.size() && word_char(clean[p + 7 + len])) continue;
      out.push_back(
          {f.path, line_of(clean, p), "thermal-backend-seam", kThermalSeamMsg});
      p += 7 + len - 1;  // non-overlapping: resume after the matched identifier
      break;
    }
  }
}

// -------------------------------------------------- service-socket-seam

const char* kSocketSeamMsg =
    "raw socket handling outside src/service/; use "
    "service::SocketListener / service::FrameClient (or the in-process "
    "GuardbandServer API) so framing and connection handling stay in "
    "one place";

const std::array<const char*, 8> kSocketCalls = {"socket", "accept",      "listen",
                                                 "connect", "bind",       "setsockopt",
                                                 "getsockname", "shutdown"};

void check_service_socket_seam(const LexedFile& f, std::vector<Finding>& out) {
  if (starts_with(f.path, "src/service/")) return;
  const std::string& text = f.text;
  // #include <sys/socket.h | sys/un.h | netinet/... | arpa/inet.h>
  for (std::size_t p = text.find('<'); p != std::string::npos;
       p = text.find('<', p + 1)) {
    std::size_t start = 0;
    if (!include_directive_before(text, p, &start)) continue;
    const std::size_t close = text.find('>', p + 1);
    if (close == std::string::npos) continue;
    const std::string hdr = text.substr(p + 1, close - p - 1);
    bool hit = hdr == "sys/socket.h" || hdr == "sys/un.h" || hdr == "arpa/inet.h";
    if (!hit && starts_with(hdr, "netinet/") && hdr.size() > 8) {
      hit = true;
      for (std::size_t q = 8; q < hdr.size(); ++q)
        if (!word_char(hdr[q]) && hdr[q] != '.') hit = false;
    }
    if (hit)
      out.push_back(
          {f.path, line_of(text, start), "service-socket-seam", kSocketSeamMsg});
  }
  const std::string& clean = f.stripped;
  std::size_t i = 0;
  while (i < clean.size()) {
    // alt 1: (?<![\w>])::\s*(socket|...)\s*\(
    if (clean[i] == ':' && i + 1 < clean.size() && clean[i + 1] == ':' &&
        !(i > 0 && (word_char(clean[i - 1]) || clean[i - 1] == '>'))) {
      const std::size_t nm = skip_space(clean, i + 2);
      for (const char* call : kSocketCalls) {
        const std::size_t len = std::strlen(call);
        if (clean.compare(nm, len, call) != 0) continue;
        const std::size_t paren = skip_space(clean, nm + len);
        if (paren >= clean.size() || clean[paren] != '(') continue;
        out.push_back(
            {f.path, line_of(clean, i), "service-socket-seam", kSocketSeamMsg});
        i = paren;  // resume after the match
        break;
      }
      ++i;
      continue;
    }
    // alt 2: \b(recv|send)\s*\(\s*\w*fd
    if (ident_start(clean[i]) && !(i > 0 && word_char(clean[i - 1]))) {
      for (const char* call : {"recv", "send"}) {
        const std::size_t len = std::strlen(call);
        if (clean.compare(i, len, call) != 0) continue;
        const std::size_t paren = skip_space(clean, i + len);
        if (paren >= clean.size() || clean[paren] != '(') continue;
        std::size_t a = skip_space(clean, paren + 1);
        std::size_t run_end = a;
        while (run_end < clean.size() && word_char(clean[run_end])) ++run_end;
        if (clean.substr(a, run_end - a).find("fd") == std::string::npos) continue;
        out.push_back(
            {f.path, line_of(clean, i), "service-socket-seam", kSocketSeamMsg});
        break;
      }
    }
    ++i;
  }
}

// ----------------------------------------------------- trace-codec-seam

void check_trace_codec_seam(const LexedFile& f, std::vector<Finding>& out) {
  if (f.path == "src/core/dynamic.hpp" || f.path == "src/core/dynamic.cpp") return;
  const std::string& text = f.text;  // format markers live in literals: scan raw
  const std::string magic = std::string("taf-") + "trace";
  const std::string kind = std::string("activity-") + "trace";
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '"') {
      ++i;
      continue;
    }
    std::size_t k = i + 1;
    while (k < text.size() && text[k] != '"' && text[k] != '\n') ++k;
    if (k >= text.size() || text[k] != '"') {
      i = k;
      continue;
    }
    const std::string span = text.substr(i + 1, k - i - 1);
    if (span.find(magic) != std::string::npos || span.find(kind) != std::string::npos) {
      out.push_back({f.path, line_of(text, i), "trace-codec-seam",
                     "hand-built ActivityTrace format bytes outside "
                     "core/dynamic; round-trip through ActivityTrace::"
                     "to_text/parse_text/to_envelope/from_envelope"});
      i = k + 1;  // the match consumed both quotes
    } else {
      ++i;
    }
  }
}

// ------------------------------------------------------- place-cost-seam

const char* kPlaceCostSeamMsg =
    "placer cost-model internals reached around the src/place/ seam; "
    "drive placement through place() / refine_placement() "
    "instead of touching CostModel directly";

void check_place_cost_seam(const LexedFile& f, std::vector<Finding>& out) {
  if (starts_with(f.path, "src/place/")) return;
  const std::string& text = f.text;
  const char* inc = "\"place/cost_model.hpp\"";
  for (std::size_t p = text.find(inc); p != std::string::npos;
       p = text.find(inc, p + 1)) {
    std::size_t start = 0;
    if (!include_directive_before(text, p, &start)) continue;
    out.push_back({f.path, line_of(text, start), "place-cost-seam", kPlaceCostSeamMsg});
  }
  const std::string& clean = f.stripped;
  // \b(?:CostModel|NetBox|q_factor)\b — alternatives tried in order at each
  // position; the scan is non-overlapping, so resume after a match.
  static const std::array<const char*, 3> kIdents = {"CostModel", "NetBox",
                                                     "q_factor"};
  std::size_t i = 0;
  while (i < clean.size()) {
    if (!ident_start(clean[i]) || (i > 0 && word_char(clean[i - 1]))) {
      ++i;
      continue;
    }
    bool matched = false;
    for (const char* id : kIdents) {
      const std::size_t len = std::strlen(id);
      if (clean.compare(i, len, id) != 0) continue;
      if (i + len < clean.size() && word_char(clean[i + len])) continue;
      out.push_back({f.path, line_of(clean, i), "place-cost-seam", kPlaceCostSeamMsg});
      i += len;  // non-overlapping: resume after the matched identifier
      matched = true;
      break;
    }
    if (!matched) ++i;
  }
}

}  // namespace

void run_seam_rules(const LexedFile& f, const std::vector<std::string>& rules,
                    std::vector<Finding>& findings) {
  if (want(rules, "unit-typed-api")) check_unit_typed_api(f, findings);
  if (want(rules, "printf-sized-int")) check_printf_sized_int(f, findings);
  if (want(rules, "header-using-ns")) check_header_using_ns(f, findings);
  if (want(rules, "env-through-util")) check_env_through_util(f, findings);
  if (want(rules, "banned-identifier")) check_banned_identifier(f, findings);
  if (want(rules, "raw-serialization")) check_raw_serialization(f, findings);
  if (want(rules, "thermal-backend-seam")) check_thermal_backend_seam(f, findings);
  if (want(rules, "service-socket-seam")) check_service_socket_seam(f, findings);
  if (want(rules, "trace-codec-seam")) check_trace_codec_seam(f, findings);
  if (want(rules, "place-cost-seam")) check_place_cost_seam(f, findings);
}

}  // namespace taf::analyze
