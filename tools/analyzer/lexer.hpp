#pragma once
// taf-analyze lexer — a single tokenizer shared by every rule family.
//
// Lexes one C++ translation unit into a flat token stream (identifiers,
// numbers, string/char literals including raw strings, punctuators, and
// logical preprocessor lines) with byte offsets and 1-based line numbers.
// From the same pass it derives a "stripped" view of the text — comments
// and literal *contents* blanked to spaces, quotes and newlines kept —
// so the ten seam rules can run char-level scans that never match inside
// a comment or a literal. Token-level rules (lock discipline,
// determinism) walk `tokens` instead. DESIGN.md section 14.

#include <cstddef>
#include <string>
#include <vector>

namespace taf::analyze {

enum class Tok {
  Ident,    // identifiers and keywords
  Number,   // integer / floating literals (incl. digit separators)
  Str,      // string literal, incl. raw strings (span covers the quotes)
  Chr,      // character literal
  Punct,    // punctuator; multi-char operators are one token (::, ->, ...)
  Preproc,  // one logical preprocessor line (backslash continuations joined)
};

struct Token {
  Tok kind;
  int line;            // 1-based line of the token's first character
  std::size_t begin;   // byte offset into LexedFile::text
  std::size_t end;     // one past the last byte
};

struct LexedFile {
  std::string path;     // repo-relative, forward slashes
  std::string text;     // raw bytes as read
  std::string stripped; // same length as text; see file comment
  std::vector<Token> tokens;

  std::string tok(const Token& t) const { return text.substr(t.begin, t.end - t.begin); }
  bool tok_is(std::size_t i, const char* s) const;
  bool tok_is(std::size_t i, Tok kind, const char* s) const;
};

/// Lex `text` (and derive the stripped view). Never fails: unterminated
/// constructs lex to end of file.
LexedFile lex(std::string path, std::string text);

/// 1-based line number of byte offset `off` in `text`.
int line_of(const std::string& text, std::size_t off);

}  // namespace taf::analyze
