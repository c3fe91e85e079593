// darnet_analyze lexer: a dependency-free C++ tokenizer that is aware of
// comments, string/char literals (including raw strings and encoding
// prefixes), line continuations, and preprocessor directives.
//
// The lexer is deliberately simpler than a real C++ front end:
//  - Preprocessor directives and comments are recorded out-of-band
//    (Directive and Comment lists) and do not appear in the token stream.
//  - `#if 0` regions are skipped entirely; every other conditional branch is
//    included (an over-approximation: downstream passes must tolerate seeing
//    both sides of `#if DARNET_CHECKED` style blocks).
//  - Tokens carry no semantic classification beyond the five coarse kinds;
//    keyword/identifier distinctions are made by the consumer.
//
// Every darnet_analyze rule, per-file and cross-file, reads this one
// tokenizer's output, so "does this rule match inside a comment or string
// literal" has exactly one answer in the repo.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace darnet::analyze {

enum class Tok {
  kIdent,   // identifiers and keywords, including macro names
  kNumber,  // integer / floating literals (pp-number)
  kString,  // string literal; text holds the *contents* (no quotes/prefix)
  kChar,    // character literal; text holds the contents
  kPunct,   // operators and punctuation, maximal-munch (e.g. "::", "->")
};

struct Token {
  Tok kind;
  std::string text;
  int line;  // 1-based line of the first character
};

// A preprocessor directive, recorded out-of-band. `name` is the directive
// keyword ("include", "if", "define", ...); `rest` is the remainder of the
// logical line with line splices folded and trailing comments stripped.
struct Directive {
  std::string name;
  std::string rest;
  int line;
};

// A comment, recorded out-of-band. `text` excludes the `//` or `/* */`
// markers; `next_token` is the index of the first token after it, which is
// how a rule attaches a comment to the code that follows.
struct Comment {
  std::string text;
  int line;
  size_t next_token;
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Directive> directives;
  std::vector<Comment> comments;
  std::vector<std::string> includes;  // targets of #include, quotes/brackets stripped
};

// Lex `source` into tokens. Never throws on malformed input: unterminated
// literals/comments are closed at end-of-file.
LexedFile lex(std::string_view source, std::string path);

// True if `t` is an identifier token with exactly this text.
inline bool is_ident(const Token& t, std::string_view text) {
  return t.kind == Tok::kIdent && t.text == text;
}
// True if `t` is a punctuation token with exactly this text.
inline bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Tok::kPunct && t.text == text;
}

}  // namespace darnet::analyze
