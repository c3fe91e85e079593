// darnet_analyze per-file rules and doc-drift contracts.
//
// Each per-file rule is decided by one file's token stream and applies
// under a rule-specific directory scope (docs/STATIC_ANALYSIS.md has the
// table). The rules that ban a token also read the preprocessor directives
// (each directive's text lexed on its own), so a macro body or an #if
// condition cannot hide a banned construct. Comments and string literals
// never trigger a rule: they are distinct tokens, or out-of-band comments.
//
// None of these rules is baselinable: a finding is fixed at the source, or
// (hot-path-alloc only) its code is listed in kHotPathAllocExempt.
#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "tools/analyze/rules.hpp"

namespace darnet::analyze {
namespace {

namespace fs = std::filesystem;

/// `std :: <name>` starting at T[i].
bool std_name(const std::vector<Token>& T, size_t i, std::string_view name) {
  return i + 2 < T.size() && is_ident(T[i], "std") &&
         is_punct(T[i + 1], "::") && is_ident(T[i + 2], name);
}

/// `new`/`delete` at T[i] is applied to an operand (`new Foo`, `delete p`,
/// `delete[] p`, `new (buf) T`, `new ::T`), not named by a declaration.
bool has_operand(const std::vector<Token>& T, size_t i) {
  if (i > 0 && is_ident(T[i - 1], "operator")) return false;  // allocator fn
  if (i + 1 >= T.size()) return false;
  const Token& next = T[i + 1];
  return next.kind == Tok::kIdent || is_punct(next, "(") ||
         is_punct(next, "[") || is_punct(next, "::");
}

/// The '{' opening the definition that starts at or after token `from`, and
/// its matching '}'; both are T.size() when a ';' (a declaration) or the
/// end of the file comes first.
std::pair<size_t, size_t> body_after(const std::vector<Token>& T,
                                     size_t from) {
  size_t open = from;
  while (open < T.size() && !is_punct(T[open], "{") &&
         !is_punct(T[open], ";")) {
    ++open;
  }
  if (open >= T.size() || is_punct(T[open], ";")) return {T.size(), T.size()};
  return {open, match_forward(T, open, "{", "}")};
}

/// Matches the registry's metric-name grammar: lowercase [a-z0-9_]
/// segments joined by '/', at least two segments (`subsystem/verb_noun`).
bool valid_obs_name(std::string_view name) {
  if (name.empty() || name.front() == '/' || name.back() == '/') return false;
  bool slash = false;
  char prev = '\0';
  for (const char c : name) {
    if (c == '/') {
      if (prev == '/') return false;
      slash = true;
    } else if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_') {
      return false;
    }
    prev = c;
  }
  return slash;
}

/// The DARNET_* observability macros whose first argument is the
/// registered name.
const std::set<std::string, std::less<>> kObsMacros = {
    "DARNET_COUNTER_ADD", "DARNET_GAUGE_SET",   "DARNET_HISTOGRAM_NS",
    "DARNET_TIMER",       "DARNET_SPAN_DETAIL", "DARNET_SPAN"};

/// The raw std locking vocabulary that only src/sync/ may name.
const std::set<std::string, std::less<>> kRawPrimitives = {
    "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "condition_variable",
    "condition_variable_any", "lock_guard", "unique_lock", "scoped_lock",
    "shared_lock"};

struct FileChecker {
  const LexedFile& f;
  const std::vector<FunctionInfo>& functions;
  DocUses& uses;
  std::vector<Finding>& out;
  const std::string& rel = f.path;

  void report(int line, const char* rule, std::string message) {
    out.push_back(Finding{rule, rel, line, "", std::move(message)});
  }

  /// The indexed function whose body holds token `i` of the main stream.
  const FunctionInfo* enclosing(size_t i) const {
    for (const FunctionInfo& fn : functions) {
      if (fn.body_begin < i && i < fn.body_end) return &fn;
    }
    return nullptr;
  }

  /// Token-ban rules. `main` is false for a directive's tokens, which have
  /// no enclosing function.
  void banned_tokens(const std::vector<Token>& T, bool main) {
    const bool in_sync = rel.starts_with("src/sync/");
    const bool hot_path =
        rel.starts_with("src/tensor/") || rel.starts_with("src/nn/");
    const bool hot_alloc = hot_path || rel.starts_with("src/engine/") ||
                           rel.starts_with("src/serve/");
    for (size_t i = 0; i < T.size(); ++i) {
      const Token& t = T[i];
      if (t.kind != Tok::kIdent) continue;
      // src/sync/ is exempt from raw-new: the lock-order checker
      // immortalises its graph state on purpose (see sync.cpp) so locks
      // taken during static/TLS destruction never touch destroyed objects.
      if (t.text == "new" && !in_sync && has_operand(T, i)) {
        report(t.line, "raw-new",
               "raw new expression; use value types, containers or "
               "std::make_unique");
      }
      if (t.text == "delete" && !(i > 0 && is_punct(T[i - 1], "=")) &&
          has_operand(T, i)) {
        report(t.line, "raw-delete",
               "raw delete expression; ownership must be RAII-managed");
      }
      if (!rel.starts_with("src/parallel/")) {
        for (const char* name : {"thread", "jthread", "async"}) {
          if (std_name(T, i, name)) {
            report(t.line, "thread-outside-parallel",
                   "std::" + std::string(name) +
                       " outside src/parallel/; build on parallel_for");
          }
        }
      }
      for (const char* name :
           {"rand", "random_device", "mt19937", "default_random_engine"}) {
        if (std_name(T, i, name)) {
          report(t.line, "unseeded-rng",
                 "std::" + std::string(name) +
                     "; all randomness must flow through util::Rng with an "
                     "explicit seed");
        }
      }
      if (t.text == "srand") {
        report(t.line, "unseeded-rng",
               "srand; all randomness must flow through util::Rng with an "
               "explicit seed");
      }
      // Bare C rand(): `rand` applied as a call, not spelled std::rand.
      if (t.text == "rand" && i + 1 < T.size() && is_punct(T[i + 1], "(") &&
          !(i >= 2 && is_punct(T[i - 1], "::") && is_ident(T[i - 2], "std"))) {
        report(t.line, "unseeded-rng",
               "C rand(); all randomness must flow through util::Rng");
      }
      if (hot_path) {
        std::string io;
        if (t.text == "printf" || t.text == "fprintf" || t.text == "sprintf" ||
            t.text == "puts") {
          io = t.text;
        }
        for (const char* name : {"cout", "cerr", "clog"}) {
          if (std_name(T, i, name)) io = "std::" + std::string(name);
        }
        if (!io.empty()) {
          report(t.line, "hot-path-io",
                 io + " in a tensor/nn hot path; route diagnostics through "
                      "darnet::check or util::logging");
        }
      }
      // Zero-alloc hot path: float/double vectors are banned where the
      // steady-state inference path runs. tensor::Storage and
      // tensor::ArenaAlloc<T> recycle through the per-worker arena, which
      // is what lets test_hotpath_alloc assert zero heap allocations per
      // classify_batch after warm-up.
      if (hot_alloc && std_name(T, i, "vector") && i + 5 < T.size() &&
          is_punct(T[i + 3], "<") &&
          (is_ident(T[i + 4], "float") || is_ident(T[i + 4], "double")) &&
          is_punct(T[i + 5], ">") &&
          !hot_path_alloc_exempt(rel, main ? enclosing(i) : nullptr)) {
        report(t.line, "hot-path-alloc",
               "std::vector<" + T[i + 4].text +
                   "> in an inference hot-path directory; use "
                   "tensor::Storage or tensor::ArenaAlloc so the "
                   "steady-state path stays zero-alloc (or add a "
                   "kHotPathAllocExempt entry with a reason)");
      }
      // src/sync/ wraps the raw std primitives; everywhere else locking
      // goes through sync:: so checked builds can track it.
      if (!in_sync && i + 2 < T.size() && t.text == "std" &&
          is_punct(T[i + 1], "::") && T[i + 2].kind == Tok::kIdent &&
          kRawPrimitives.contains(T[i + 2].text)) {
        report(t.line, "sync-raw-primitive",
               "std::" + T[i + 2].text +
                   " outside src/sync/; use sync::Mutex / sync::Lock / "
                   "sync::UniqueLock / sync::CondVar so checked builds "
                   "can track held locks and lock order");
      }
      // The deprecated engine shim API was deleted, so any gate token of
      // that family -- including renamed suffixes -- resurrects it.
      if (t.text.starts_with("DARNET_ALLOW_DEPRECATED")) {
        report(t.line, "engine-deprecated-shim",
               "DARNET_ALLOW_DEPRECATED* gate token; the deprecated "
               "engine shim API is gone -- use ClassifyRequest / "
               "classify_batch and engine::borrow instead of "
               "re-enabling removed shims");
      }
    }
  }

  void directive_rules() {
    const bool header = rel.ends_with(".hpp");
    bool pragma_once = false;
    for (const Directive& d : f.directives) {
      if (d.name == "pragma" && d.rest == "once") pragma_once = true;
      if (d.name == "include" && d.rest == "<iostream>" &&
          (rel.starts_with("src/tensor/") || rel.starts_with("src/nn/"))) {
        report(d.line, "hot-path-io",
               "<iostream> include in a tensor/nn hot path");
      }
      LexedFile body = lex(d.rest, rel);
      for (Token& t : body.tokens) t.line = d.line;
      banned_tokens(body.tokens, /*main=*/false);
    }
    if (header && !pragma_once) {
      report(1, "pragma-once", "header is missing #pragma once");
    }
  }

  /// serve-bounded-queue: inside src/serve/, a member push/emplace into an
  /// identifier containing "queue" needs "capacity" in an identifier on
  /// that line or the 7 before it, ahead of the receiver.
  void bounded_queue() {
    if (!rel.starts_with("src/serve/")) return;
    static const std::set<std::string, std::less<>> kPush = {
        "push", "push_back", "push_front",
        "emplace", "emplace_back", "emplace_front"};
    const auto& T = f.tokens;
    for (size_t i = 2; i < T.size(); ++i) {
      if (T[i].kind != Tok::kIdent || !kPush.contains(T[i].text) ||
          !is_punct(T[i - 1], ".") || T[i - 2].kind != Tok::kIdent ||
          T[i - 2].text.find("queue") == std::string::npos) {
        continue;
      }
      const int first_line = T[i - 2].line - 7;
      bool guarded = false;
      for (size_t j = i - 2; j-- > 0 && T[j].line >= first_line;) {
        if (T[j].kind == Tok::kIdent &&
            T[j].text.find("capacity") != std::string::npos) {
          guarded = true;
          break;
        }
      }
      if (!guarded) {
        report(T[i].line, "serve-bounded-queue",
               "push into '" + T[i - 2].text +
                   "' with no capacity guard in the preceding 8 lines; "
                   "the serve admission queue must stay bounded (check "
                   "against queue_capacity before pushing)");
      }
    }
  }

  /// sync-guarded-by: in every class/struct that owns a sync::Mutex or
  /// sync::CondVar, each data member declares its synchronisation
  /// discipline -- DARNET_GUARDED_BY / DARNET_ATOMIC / DARNET_THREAD_LOCAL,
  /// or is a sync primitive / std::atomic itself. const/static members,
  /// nested types and member functions are exempt.
  void guarded_by() {
    const auto& T = f.tokens;
    for (size_t k = 0; k < T.size(); ++k) {
      if (!is_ident(T[k], "class") && !is_ident(T[k], "struct")) continue;
      // Skip `enum class` and template parameters (`<class T, class U>`).
      if (k > 0 && (is_punct(T[k - 1], "<") || is_punct(T[k - 1], ",") ||
                    is_ident(T[k - 1], "enum"))) {
        continue;
      }
      const auto [open, close] = body_after(T, k + 1);
      if (close < T.size()) class_body(open + 1, close);
    }
  }

  /// One class body [begin, end): split it into member statements
  /// (function bodies and brace groups are skipped as units) and apply the
  /// contract when the class owns a lock.
  void class_body(size_t begin, size_t end) {
    const auto& T = f.tokens;
    using Stmt = std::vector<const Token*>;
    std::vector<Stmt> stmts;
    Stmt cur;
    for (size_t j = begin; j < end; ++j) {
      if (is_punct(T[j], "{")) {
        const size_t close = match_forward(T, j, "{", "}");
        if (close >= end) break;
        j = close;
        // A brace initializer or nested type ends at the following ';'; a
        // function body means the pending tokens were its header.
        if (!(j + 1 < end && is_punct(T[j + 1], ";"))) cur.clear();
        continue;
      }
      if (is_punct(T[j], ";")) {
        if (!cur.empty()) stmts.push_back(std::move(cur));
        cur.clear();
        continue;
      }
      // Access labels belong to no member.
      if (cur.empty() && (is_ident(T[j], "public") ||
                          is_ident(T[j], "private") ||
                          is_ident(T[j], "protected"))) {
        if (j + 1 < end && is_punct(T[j + 1], ":")) ++j;
        continue;
      }
      cur.push_back(&T[j]);
    }

    const auto sync_primitive = [](const Stmt& s) {
      for (size_t i = 0; i + 2 < s.size(); ++i) {
        if (is_ident(*s[i], "sync") && is_punct(*s[i + 1], "::") &&
            (is_ident(*s[i + 2], "Mutex") || is_ident(*s[i + 2], "CondVar"))) {
          return true;
        }
      }
      return false;
    };
    if (std::none_of(stmts.begin(), stmts.end(), sync_primitive)) return;

    static const std::set<std::string, std::less<>> kNotData = {
        "const",  "static", "constexpr", "using",    "typedef", "friend",
        "enum",   "class",  "struct",    "template", "inline"};
    for (const Stmt& s : stmts) {
      bool declared = sync_primitive(s);
      bool function = false;
      const Token* first = nullptr;
      for (size_t i = 0; i < s.size(); ++i) {
        const Token& t = *s[i];
        if (!first && t.kind == Tok::kIdent) first = &t;
        declared = declared || is_ident(t, "DARNET_GUARDED_BY") ||
                   is_ident(t, "DARNET_ATOMIC") ||
                   is_ident(t, "DARNET_THREAD_LOCAL") ||
                   (i + 2 < s.size() && is_ident(t, "std") &&
                    is_punct(*s[i + 1], "::") &&
                    s[i + 2]->text.starts_with("atomic"));
        function = function || is_punct(t, "(");
      }
      if (declared || function || !first || kNotData.contains(first->text)) {
        continue;
      }
      std::string shown;
      for (const Token* t : s) {
        const bool glue = !shown.empty() &&
                          (is_punct(*t, "::") || shown.ends_with("::"));
        if (!shown.empty() && !glue) shown += ' ';
        if (t->kind == Tok::kString) {
          shown += '"' + t->text + '"';
        } else if (t->kind == Tok::kChar) {
          shown += '\'' + t->text + '\'';
        } else {
          shown += t->text;
        }
      }
      if (shown.size() > 48) shown = shown.substr(0, 48) + "...";
      report(s.front()->line, "sync-guarded-by",
             "member `" + shown +
                 "` of a lock-owning class declares no synchronisation "
                 "discipline; annotate it with DARNET_GUARDED_BY(mu) / "
                 "DARNET_ATOMIC / DARNET_THREAD_LOCAL (or make it const)");
    }
  }

  /// sync-assert-held: a `REQUIRES: <mu> held|free` comment on a function
  /// definition needs DARNET_ASSERT_HELD(<mu>) (resp. _NOT_HELD) in the
  /// body. Markers on declarations document the contract for callers and
  /// are enforced at the definition.
  void assert_held() {
    const auto& T = f.tokens;
    const auto word = [](const std::string& s, size_t& i) {
      while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
      const size_t b = i;
      while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                              s[i] == '_')) {
        ++i;
      }
      return s.substr(b, i - b);
    };
    for (const Comment& c : f.comments) {
      const std::string& s = c.text;
      for (size_t pos = s.find("REQUIRES:"); pos != std::string::npos;
           pos = s.find("REQUIRES:", pos + 1)) {
        size_t i = pos + 9;
        const std::string name = word(s, i);
        const std::string mode = word(s, i);
        if (name.empty() || (mode != "held" && mode != "free")) continue;
        const auto [open, close] = body_after(T, c.next_token);
        if (close >= T.size()) continue;
        const char* macro =
            mode == "held" ? "DARNET_ASSERT_HELD" : "DARNET_ASSERT_NOT_HELD";
        bool backed = false;
        for (size_t k = open; k + 2 < close && !backed; ++k) {
          backed = is_ident(T[k], macro) && is_punct(T[k + 1], "(") &&
                   is_ident(T[k + 2], name);
        }
        if (backed) continue;
        const auto newlines =
            std::count(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(pos),
                       '\n');
        report(c.line + static_cast<int>(newlines), "sync-assert-held",
               "`REQUIRES: " + name + " " + mode +
                   "` on a function definition without a matching " + macro +
                   "(" + name +
                   ") in the body; lock preconditions are executable, not "
                   "prose");
      }
    }
  }

  /// Collects the names the doc-drift contracts check: metric/span names
  /// registered in src/ (outside src/obs/, which defines the macros) and
  /// scenarios registered in src/sim/. A macro call whose name is not a
  /// string literal is an obs-name-literal finding.
  void doc_uses() {
    const auto& T = f.tokens;
    if (rel.starts_with("src/sim/")) {
      for (size_t i = 0; i + 2 < T.size(); ++i) {
        if (is_ident(T[i], "register_scenario") && is_punct(T[i + 1], "(") &&
            T[i + 2].kind == Tok::kString) {
          uses.scenarios.push_back(NameUse{T[i + 2].text, rel, T[i].line});
        }
      }
    }
    if (!rel.starts_with("src/") || rel.starts_with("src/obs/")) return;
    for (size_t i = 0; i + 1 < T.size(); ++i) {
      if (T[i].kind == Tok::kIdent && kObsMacros.contains(T[i].text) &&
          is_punct(T[i + 1], "(")) {
        if (i + 2 < T.size() && T[i + 2].kind == Tok::kString) {
          uses.metrics.push_back(NameUse{T[i + 2].text, rel, T[i].line});
        } else {
          report(T[i].line, "obs-name-literal",
                 T[i].text +
                     ": metric/span name must be a string literal so the "
                     "documented contract is statically checkable");
        }
        continue;
      }
      // Direct registrations: `registry().counter("name")` et al.
      if (is_ident(T[i], "registry") && i + 6 < T.size() &&
          is_punct(T[i + 1], "(") && is_punct(T[i + 2], ")") &&
          is_punct(T[i + 3], ".") &&
          (is_ident(T[i + 4], "counter") || is_ident(T[i + 4], "gauge") ||
           is_ident(T[i + 4], "histogram")) &&
          is_punct(T[i + 5], "(") && T[i + 6].kind == Tok::kString) {
        uses.metrics.push_back(NameUse{T[i + 6].text, rel, T[i].line});
      }
    }
  }
};

/// Backticked names on the table rows (lines starting with '|') of a doc,
/// mapped to their first line. `catalogue` limits the rows to those between
/// the scenarios:begin/end markers and takes only each row's first name.
std::map<std::string, int> doc_rows(std::ifstream& in, bool catalogue) {
  std::map<std::string, int> rows;
  std::string text;
  int line = 0;
  bool inside = !catalogue;
  while (std::getline(in, text)) {
    ++line;
    const bool opens = text.find("<!-- scenarios:begin -->") != text.npos;
    const bool closes = text.find("<!-- scenarios:end -->") != text.npos;
    if (catalogue && (opens || closes)) {
      inside = opens;
      continue;
    }
    const size_t first = text.find_first_not_of(" \t");
    if (!inside || first == std::string::npos || text[first] != '|') continue;
    for (size_t tick = text.find('`'); tick != std::string::npos;
         tick = text.find('`', tick + 1)) {
      const size_t end = text.find('`', tick + 1);
      if (end == std::string::npos) break;
      const std::string name = text.substr(tick + 1, end - tick - 1);
      // File paths never match the metric grammar (no '.').
      if (catalogue ? !name.empty() : valid_obs_name(name)) {
        rows.emplace(name, line);
      }
      if (catalogue) break;
      tick = end;
    }
  }
  return rows;
}

}  // namespace

void check_file(const LexedFile& file,
                const std::vector<FunctionInfo>& functions, DocUses& uses,
                std::vector<Finding>& findings) {
  FileChecker c{file, functions, uses, findings};
  c.banned_tokens(file.tokens, /*main=*/true);
  c.directive_rules();
  c.bounded_queue();
  if (!file.path.starts_with("src/sync/")) {
    // src/sync/'s own classes are the annotation vocabulary.
    c.guarded_by();
    c.assert_held();
  }
  c.doc_uses();
}

void check_doc_contracts(const fs::path& root, const DocUses& uses,
                         std::vector<Finding>& findings) {
  for (const bool obs : {true, false}) {
    const std::vector<NameUse>& used = obs ? uses.metrics : uses.scenarios;
    const std::string doc =
        obs ? "docs/OBSERVABILITY.md" : "docs/SIMULATION.md";
    const std::string what = obs ? "metric/span" : "scenario";
    const std::string where = obs ? "src/" : "src/sim/";
    const char* missing = obs ? "obs-doc-missing" : "sim-doc-missing";
    std::ifstream in(root / doc, std::ios::binary);
    if (!in) {
      if (!used.empty()) {
        findings.push_back(Finding{
            missing, doc, 0, "",
            doc + " does not exist but " + std::to_string(used.size()) + " " +
                what + " registration(s) were found in " + where});
      }
      continue;
    }
    const std::map<std::string, int> documented = doc_rows(in, !obs);
    std::set<std::string> registered;
    for (const NameUse& use : used) {
      registered.insert(use.name);
      if (obs && !valid_obs_name(use.name)) {
        findings.push_back(Finding{
            "obs-name-literal", use.file, use.line, "",
            "metric/span name '" + use.name +
                "' violates the subsystem/verb_noun grammar "
                "([a-z0-9_]+, >= 2 '/'-separated segments)"});
        continue;
      }
      if (!documented.contains(use.name)) {
        findings.push_back(Finding{
            missing, use.file, use.line, "",
            what + " '" + use.name + "' is registered here but has no " +
                (obs ? "table row in docs/OBSERVABILITY.md"
                     : "catalogue row between the scenarios:begin/end "
                       "markers in docs/SIMULATION.md")});
      }
    }
    for (const auto& [name, line] : documented) {
      if (!registered.contains(name)) {
        findings.push_back(Finding{
            obs ? "obs-doc-stale" : "sim-doc-stale", doc, line, "",
            "documented " + what + " '" + name +
                "' is not registered anywhere in " + where});
      }
    }
  }
}

}  // namespace darnet::analyze
