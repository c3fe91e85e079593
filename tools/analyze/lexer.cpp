#include "tools/analyze/lexer.hpp"

#include <array>
#include <cctype>

namespace darnet::analyze {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_cont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Multi-character punctuators, longest first for maximal munch.
constexpr std::array<std::string_view, 24> kPunct3 = {
    "<<=", ">>=", "...", "->*", "<=>",
    // length-2 entries follow; scanning order within the array is by length
    // because we try 3-char matches before 2-char ones in punct().
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
};

// Encoding prefixes that may precede a string literal.
bool is_string_prefix(std::string_view id) {
  return id == "L" || id == "u" || id == "U" || id == "u8";
}
bool is_raw_prefix(std::string_view id) {
  return id == "R" || id == "LR" || id == "uR" || id == "UR" || id == "u8R";
}

struct Lexer {
  std::string_view s;
  size_t i = 0;
  int line = 1;
  LexedFile out;

  // Conditional-compilation stack. Each frame tracks whether we are currently
  // emitting tokens for this branch. `skip_active` counts frames in a
  // skipping state so the hot check is a single integer compare.
  struct CondFrame {
    bool skipping;
  };
  std::vector<CondFrame> cond;
  int skip_active = 0;

  bool at_line_start = true;  // no token emitted yet on this line

  char cur() const { return i < s.size() ? s[i] : '\0'; }
  char peek(size_t k = 1) const { return i + k < s.size() ? s[i + k] : '\0'; }
  bool emitting() const { return skip_active == 0; }

  void newline() {
    ++line;
    at_line_start = true;
  }

  // Consume a backslash-newline splice if present at `i`. Returns true if one
  // was consumed.
  bool splice() {
    if (cur() != '\\') return false;
    size_t j = i + 1;
    if (j < s.size() && s[j] == '\r') ++j;
    if (j < s.size() && s[j] == '\n') {
      i = j + 1;
      ++line;  // splices do not reset at_line_start: logical line continues
      return true;
    }
    return false;
  }

  void push(Tok kind, std::string text, int at_line) {
    if (emitting()) out.tokens.push_back(Token{kind, std::move(text), at_line});
  }

  void comment(size_t begin, size_t end, int at_line) {
    if (emitting()) {
      out.comments.push_back(Comment{std::string(s.substr(begin, end - begin)),
                                     at_line, out.tokens.size()});
    }
  }

  void line_comment() {
    const int at_line = line;
    i += 2;
    const size_t begin = i;
    while (i < s.size()) {
      if (splice()) continue;  // comment continues onto next physical line
      if (s[i] == '\n') break;  // leave the newline for the main loop
      ++i;
    }
    comment(begin, i, at_line);
  }

  void block_comment() {
    const int at_line = line;
    i += 2;
    const size_t begin = i;
    // Standard C++ block comments do not nest; pinned by a lexer unit test.
    while (i < s.size()) {
      if (s[i] == '*' && peek() == '/') {
        comment(begin, i, at_line);
        i += 2;
        return;
      }
      if (s[i] == '\n') ++line;
      ++i;
    }
    comment(begin, i, at_line);
  }

  // Ordinary string or char literal starting at the opening quote.
  void quoted(char quote, Tok kind) {
    int at_line = line;
    ++i;
    std::string text;
    while (i < s.size()) {
      char c = s[i];
      if (c == '\\') {
        if (splice()) continue;
        // Keep escapes verbatim in the token text.
        text += c;
        ++i;
        if (i < s.size()) {
          if (s[i] == '\n') ++line;
          text += s[i];
          ++i;
        }
        continue;
      }
      if (c == quote) {
        ++i;
        break;
      }
      if (c == '\n') ++line;  // malformed, but keep line numbers honest
      text += c;
      ++i;
    }
    push(kind, std::move(text), at_line);
  }

  // Raw string literal; `i` is at the opening quote, prefix already consumed.
  void raw_string() {
    int at_line = line;
    ++i;  // "
    std::string delim;
    while (i < s.size() && s[i] != '(' && delim.size() < 16) {
      delim += s[i];
      ++i;
    }
    if (i < s.size()) ++i;  // (
    std::string closer = ")" + delim + "\"";
    std::string text;
    while (i < s.size()) {
      if (s.compare(i, closer.size(), closer) == 0) {
        i += closer.size();
        push(Tok::kString, std::move(text), at_line);
        return;
      }
      if (s[i] == '\n') ++line;
      text += s[i];
      ++i;
    }
    push(Tok::kString, std::move(text), at_line);  // unterminated: close at EOF
  }

  std::string read_ident() {
    size_t start = i;
    while (i < s.size() && ident_cont(s[i])) ++i;
    return std::string(s.substr(start, i - start));
  }

  void number() {
    int at_line = line;
    std::string text;
    // pp-number: digits, idents chars, '.', exponent signs, digit separators.
    while (i < s.size()) {
      char c = s[i];
      if (ident_cont(c) || c == '.') {
        text += c;
        ++i;
        if ((c == 'e' || c == 'E' || c == 'p' || c == 'P') && i < s.size() &&
            (s[i] == '+' || s[i] == '-')) {
          text += s[i];
          ++i;
        }
        continue;
      }
      if (c == '\'' && i + 1 < s.size() && ident_cont(s[i + 1])) {
        text += c;  // digit separator as in 1'000'000
        ++i;
        continue;
      }
      break;
    }
    push(Tok::kNumber, std::move(text), at_line);
  }

  void punct() {
    int at_line = line;
    for (std::string_view p : kPunct3) {
      if (s.compare(i, p.size(), p) == 0) {
        i += p.size();
        push(Tok::kPunct, std::string(p), at_line);
        return;
      }
    }
    push(Tok::kPunct, std::string(1, s[i]), at_line);
    ++i;
  }

  // Reads the remainder of a directive's logical line (handling splices and
  // stripping comments) and returns it.
  std::string directive_rest() {
    std::string rest;
    while (i < s.size()) {
      if (splice()) {
        rest += ' ';
        continue;
      }
      char c = s[i];
      if (c == '\n') break;  // leave newline for the main loop
      if (c == '/' && peek() == '/') {
        line_comment();
        break;
      }
      if (c == '/' && peek() == '*') {
        block_comment();
        rest += ' ';
        continue;
      }
      rest += c;
      ++i;
    }
    // Trim.
    size_t b = rest.find_first_not_of(" \t");
    size_t e = rest.find_last_not_of(" \t");
    if (b == std::string::npos) return "";
    return rest.substr(b, e - b + 1);
  }

  void directive() {
    int at_line = line;
    ++i;  // '#'
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    while (splice()) {
      while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    }
    std::string name;
    if (i < s.size() && ident_start(s[i])) name = read_ident();
    std::string rest = directive_rest();

    // Conditional tracking. `#if 0` (exactly, after trimming) disables its
    // branch; all other conditions are treated as taken. An `#else`/`#elif`
    // re-enables a branch disabled by `#if 0` (over-approximation: we never
    // disable the else-branch of a taken `#if`).
    if (name == "if" || name == "ifdef" || name == "ifndef") {
      bool off = (name == "if" && rest == "0");
      cond.push_back(CondFrame{off});
      if (off) ++skip_active;
    } else if (name == "elif" || name == "else") {
      if (!cond.empty() && cond.back().skipping) {
        bool still_off = (name == "elif" && rest == "0");
        if (!still_off) {
          cond.back().skipping = false;
          --skip_active;
        }
      }
    } else if (name == "endif") {
      if (!cond.empty()) {
        if (cond.back().skipping) --skip_active;
        cond.pop_back();
      }
    }

    if (emitting() && !name.empty()) {
      out.directives.push_back(Directive{name, rest, at_line});
      if (name == "include" && rest.size() >= 2 &&
          (rest.front() == '"' || rest.front() == '<')) {
        char close = rest.front() == '"' ? '"' : '>';
        size_t end = rest.find(close, 1);
        if (end != std::string::npos) {
          out.includes.push_back(rest.substr(1, end - 1));
        }
      }
    }
  }

  void run() {
    while (i < s.size()) {
      char c = s[i];
      if (c == '\n') {
        ++i;
        newline();
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
        ++i;
        continue;
      }
      if (splice()) continue;
      if (c == '/' && peek() == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek() == '*') {
        block_comment();
        continue;
      }
      if (c == '#' && at_line_start) {
        directive();
        at_line_start = false;
        continue;
      }
      if (skip_active > 0) {
        // Inside a disabled region we still honour comments/strings (handled
        // above/below via normal scanning) but emit nothing. Scan literals so
        // a quote or '#' inside them cannot confuse directive detection.
        if (c == '"') {
          quoted('"', Tok::kString);
          at_line_start = false;
          continue;
        }
        if (c == '\'') {
          quoted('\'', Tok::kChar);
          at_line_start = false;
          continue;
        }
        ++i;
        at_line_start = false;
        continue;
      }
      if (ident_start(c)) {
        int at_line = line;
        std::string id = read_ident();
        if (i < s.size() && s[i] == '"') {
          if (is_raw_prefix(id)) {
            raw_string();
            at_line_start = false;
            continue;
          }
          if (is_string_prefix(id)) {
            quoted('"', Tok::kString);
            at_line_start = false;
            continue;
          }
        }
        if (i < s.size() && s[i] == '\'' &&
            (id == "L" || id == "u" || id == "U" || id == "u8")) {
          quoted('\'', Tok::kChar);
          at_line_start = false;
          continue;
        }
        push(Tok::kIdent, std::move(id), at_line);
        at_line_start = false;
        continue;
      }
      if (is_digit(c) || (c == '.' && is_digit(peek()))) {
        number();
        at_line_start = false;
        continue;
      }
      if (c == '"') {
        quoted('"', Tok::kString);
        at_line_start = false;
        continue;
      }
      if (c == '\'') {
        quoted('\'', Tok::kChar);
        at_line_start = false;
        continue;
      }
      punct();
      at_line_start = false;
    }
  }
};

}  // namespace

LexedFile lex(std::string_view source, std::string path) {
  Lexer lx;
  lx.s = source;
  lx.out.path = std::move(path);
  lx.run();
  return lx.out;
}

}  // namespace darnet::analyze
