#include "analyzer/lexer.hpp"

#include <algorithm>
#include <array>
#include <cstring>

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

// True when the maximal identifier run ending just before `quote` is one
// of the raw-string literal prefixes. `R"x"` is raw; `FOOR"x"` is an
// identifier followed by an ordinary string.
bool raw_prefix_before(const std::string& t, std::size_t quote, std::size_t* run_start) {
  std::size_t rs = quote;
  while (rs > 0 && word_char(t[rs - 1])) --rs;
  const std::size_t len = quote - rs;
  if (len == 0 || len > 3) return false;
  const char* p = t.data() + rs;
  const bool is_prefix = (len == 1 && p[0] == 'R') ||
                         (len == 2 && (p[0] == 'u' || p[0] == 'L' || p[0] == 'U') && p[1] == 'R') ||
                         (len == 3 && p[0] == 'u' && p[1] == '8' && p[2] == 'R');
  if (is_prefix && run_start) *run_start = rs;
  return is_prefix;
}

// `i` points at the opening quote of a raw string (after the prefix).
// Returns one past the closing quote (or text.size() when unterminated).
std::size_t raw_string_end(const std::string& t, std::size_t i) {
  const std::size_t n = t.size();
  ++i;  // opening quote
  std::string delim;
  while (i < n && t[i] != '(' && t[i] != '\n' && delim.size() < 16) delim += t[i++];
  if (i < n && t[i] == '(') ++i;
  const std::string term = ")" + delim + "\"";
  const std::size_t at = t.find(term, i);
  return at == std::string::npos ? n : at + term.size();
}

// The strip state machine: comments and literal contents become spaces;
// newlines, quote characters, and all code stay. Raw strings blank
// everything between the outer quotes; escape sequences blank both
// characters but keep an escaped newline as a newline.
std::string strip(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  const std::size_t n = text.size();
  char state = 0;  // 0 code, 1 line comment, 2 block comment, '"' or '\'' literal
  while (i < n) {
    const char ch = text[i];
    const char nxt = i + 1 < n ? text[i + 1] : '\0';
    if (state == 0) {
      if (ch == '/' && nxt == '/') {
        state = 1;
        out += "  ";
        i += 2;
        continue;
      }
      if (ch == '/' && nxt == '*') {
        state = 2;
        out += "  ";
        i += 2;
        continue;
      }
      if (ch == '"' && raw_prefix_before(text, i, nullptr)) {
        const std::size_t end = raw_string_end(text, i);
        out += '"';
        for (std::size_t j = i + 1; j + 1 < end; ++j) out += text[j] == '\n' ? '\n' : ' ';
        if (end > i + 1) out += '"';
        i = end;
        continue;
      }
      if (ch == '"' || ch == '\'') {
        state = ch;
        out += ch;
        ++i;
        continue;
      }
      out += ch;
      ++i;
      continue;
    }
    if (state == 1) {  // line comment
      if (ch == '\n') {
        state = 0;
        out += ch;
      } else {
        out += ' ';
      }
      ++i;
      continue;
    }
    if (state == 2) {  // block comment
      if (ch == '*' && nxt == '/') {
        state = 0;
        out += "  ";
        i += 2;
        continue;
      }
      out += ch == '\n' ? '\n' : ' ';
      ++i;
      continue;
    }
    // inside a string/char literal
    if (ch == '\\') {
      out += ' ';
      out += nxt == '\n' ? '\n' : ' ';
      i += 2;
      continue;
    }
    if (ch == state) state = 0;
    out += (ch == '\n' || ch == '"' || ch == '\'') ? ch : ' ';
    ++i;
  }
  return out;
}

const std::array<const char*, 20> kTwoCharOps = {
    "::", "->", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
};

}  // namespace

bool LexedFile::tok_is(std::size_t i, const char* s) const {
  if (i >= tokens.size()) return false;
  const Token& t = tokens[i];
  const std::size_t len = std::strlen(s);
  return t.end - t.begin == len && text.compare(t.begin, len, s) == 0;
}

bool LexedFile::tok_is(std::size_t i, Tok kind, const char* s) const {
  return i < tokens.size() && tokens[i].kind == kind && tok_is(i, s);
}

int line_of(const std::string& text, std::size_t off) {
  off = std::min(off, text.size());
  return static_cast<int>(std::count(text.begin(), text.begin() + static_cast<long>(off),
                                     '\n')) +
         1;
}

LexedFile lex(std::string path, std::string text) {
  LexedFile f;
  f.path = std::move(path);
  f.text = std::move(text);
  f.stripped = strip(f.text);
  const std::string& t = f.text;
  const std::size_t n = t.size();
  std::size_t i = 0;
  int line = 1;
  bool bol = true;  // only whitespace seen since the last newline

  auto push = [&](Tok kind, int ln, std::size_t b, std::size_t e) {
    f.tokens.push_back(Token{kind, ln, b, e});
    bol = false;
  };
  auto count_lines = [&](std::size_t b, std::size_t e) {
    for (std::size_t j = b; j < e; ++j)
      if (t[j] == '\n') ++line;
  };

  while (i < n) {
    const char c = t[i];
    const char nx = i + 1 < n ? t[i + 1] : '\0';
    if (c == '\n') {
      ++line;
      bol = true;
      ++i;
      continue;
    }
    if (space(c)) {
      ++i;
      continue;
    }
    if (c == '/' && nx == '/') {
      while (i < n && t[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && nx == '*') {
      i += 2;
      while (i < n && !(t[i] == '*' && i + 1 < n && t[i + 1] == '/')) {
        if (t[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    if (c == '#' && bol) {  // one logical preprocessor line
      const std::size_t b = i;
      const int ln = line;
      while (i < n) {
        if (t[i] == '\\' && i + 1 < n && t[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (t[i] == '\n') break;
        ++i;
      }
      push(Tok::Preproc, ln, b, i);
      continue;
    }
    if (c == '"' || c == '\'') {
      const std::size_t b = i;
      const int ln = line;
      const char q = c;
      ++i;
      while (i < n) {
        if (t[i] == '\\') {
          if (i + 1 < n && t[i + 1] == '\n') ++line;
          i = i + 2 <= n ? i + 2 : n;
          continue;
        }
        if (t[i] == q) {
          ++i;
          break;
        }
        if (t[i] == '\n') ++line;  // unterminated on this line; keep scanning
        ++i;
      }
      push(q == '"' ? Tok::Str : Tok::Chr, ln, b, i);
      continue;
    }
    if (digit(c) || (c == '.' && digit(nx))) {
      const std::size_t b = i;
      const int ln = line;
      ++i;
      while (i < n) {
        const char d = t[i];
        if (word_char(d) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') &&
                   (t[i - 1] == 'e' || t[i - 1] == 'E' || t[i - 1] == 'p' ||
                    t[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      push(Tok::Number, ln, b, i);
      continue;
    }
    if (ident_start(c)) {
      const std::size_t b = i;
      const int ln = line;
      while (i < n && word_char(t[i])) ++i;
      std::size_t rs = 0;
      if (i < n && t[i] == '"' && raw_prefix_before(t, i, &rs) && rs == b) {
        const std::size_t e = raw_string_end(t, i);
        count_lines(i, e);
        push(Tok::Str, ln, b, e);  // one Str token covering prefix + raw string
        i = e;
        continue;
      }
      push(Tok::Ident, ln, b, i);
      continue;
    }
    // punctuator: prefer joined two-char operators
    bool joined = false;
    for (const char* op : kTwoCharOps) {
      if (c == op[0] && nx == op[1]) {
        push(Tok::Punct, line, i, i + 2);
        i += 2;
        joined = true;
        break;
      }
    }
    if (!joined) {
      push(Tok::Punct, line, i, i + 1);
      ++i;
    }
  }
  return f;
}

}  // namespace taf::analyze
