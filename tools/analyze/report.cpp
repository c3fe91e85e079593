#include "tools/analyze/report.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace darnet::analyze {
namespace {

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// Minimal JSON reader for the baseline file: objects, arrays, strings,
// numbers, bools. Only the shapes parse_baseline needs.
struct JsonReader {
  const std::string& s;
  size_t i = 0;
  std::string err;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool fail(const std::string& what) {
    if (err.empty()) err = what + " at offset " + std::to_string(i);
    return false;
  }
  bool expect(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }
  bool string(std::string& out) {
    ws();
    if (i >= s.size() || s[i] != '"') return fail("expected string");
    ++i;
    out.clear();
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) {
        ++i;
        switch (s[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: out += s[i];
        }
      } else {
        out += s[i];
      }
      ++i;
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;
    return true;
  }
  bool skip_value() {
    ws();
    if (i >= s.size()) return fail("expected value");
    char c = s[i];
    if (c == '"') {
      std::string dummy;
      return string(dummy);
    }
    if (c == '{' || c == '[') {
      char open = c, close = (c == '{') ? '}' : ']';
      int depth = 0;
      bool in_str = false;
      for (; i < s.size(); ++i) {
        if (in_str) {
          if (s[i] == '\\') ++i;
          else if (s[i] == '"') in_str = false;
          continue;
        }
        if (s[i] == '"') in_str = true;
        if (s[i] == open) ++depth;
        if (s[i] == close && --depth == 0) {
          ++i;
          return true;
        }
      }
      return fail("unterminated value");
    }
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])) &&
           s[i] != ',' && s[i] != '}' && s[i] != ']')
      ++i;
    return true;
  }
};

}  // namespace

bool parse_baseline(const std::string& text, std::vector<Suppression>& out,
                    std::string& error) {
  JsonReader r{text, 0, {}};
  if (!r.expect('{')) {
    error = r.err;
    return false;
  }
  r.ws();
  if (r.i < text.size() && text[r.i] == '}') return true;  // empty object
  while (true) {
    std::string key;
    if (!r.string(key)) break;
    if (!r.expect(':')) break;
    if (key != "suppressions") {
      if (!r.skip_value()) break;
    } else {
      if (!r.expect('[')) break;
      r.ws();
      if (r.i < text.size() && text[r.i] == ']') {
        ++r.i;
      } else {
        while (true) {
          if (!r.expect('{')) break;
          Suppression sup;
          r.ws();
          bool first = true;
          while (r.i < text.size() && text[r.i] != '}') {
            if (!first && !r.expect(',')) break;
            first = false;
            std::string k, v;
            if (!r.string(k) || !r.expect(':')) break;
            r.ws();
            if (r.i < text.size() && text[r.i] == '"') {
              if (!r.string(v)) break;
            } else if (!r.skip_value()) {
              break;
            }
            if (k == "rule") sup.rule = v;
            else if (k == "file") sup.file = v;
            else if (k == "symbol") sup.symbol = v;
            else if (k == "reason") sup.reason = v;
            r.ws();
          }
          if (!r.expect('}')) break;
          out.push_back(std::move(sup));
          r.ws();
          if (r.i < text.size() && text[r.i] == ',') {
            ++r.i;
            continue;
          }
          break;
        }
        if (r.err.empty()) r.expect(']');
      }
    }
    r.ws();
    if (r.i < text.size() && text[r.i] == ',') {
      ++r.i;
      continue;
    }
    break;
  }
  if (!r.err.empty()) {
    error = r.err;
    return false;
  }
  return true;
}

bool baselinable(std::string_view rule) {
  for (const RuleInfo& r : kRuleCatalogue) {
    if (r.name == rule) return r.kind == RuleKind::kSemantic;
  }
  return false;
}

void apply_baseline(std::vector<Finding>& findings,
                    const std::vector<Suppression>& baseline,
                    const std::string& baseline_path, bool stale_check) {
  std::vector<bool> used(baseline.size(), false);
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (auto& f : findings) {
    bool suppressed = false;
    for (size_t b = 0; b < baseline.size() && baselinable(f.rule); ++b) {
      if (baseline[b].rule == f.rule && baseline[b].file == f.file &&
          baseline[b].symbol == f.symbol) {
        used[b] = true;
        suppressed = true;
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }
  findings = std::move(kept);
  if (!stale_check) return;
  for (size_t b = 0; b < baseline.size(); ++b) {
    if (used[b]) continue;
    Finding f;
    f.rule = "stale-baseline";
    f.file = baseline_path;
    f.line = 0;
    f.symbol = baseline[b].symbol;
    // Print the entry exactly as it appears in the baseline file so deleting
    // it after a fix is a copy-paste search, not a reconstruction.
    f.message = std::string(baselinable(baseline[b].rule)
                                ? "suppression no longer matches any finding"
                                : "rule cannot be baselined; fix the source") +
                "; delete this entry from " + baseline_path +
                ": {\"rule\": \"" + baseline[b].rule +
                "\", \"file\": \"" + baseline[b].file + "\", \"symbol\": \"" +
                baseline[b].symbol + "\"}";
    findings.push_back(std::move(f));
  }
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

std::string format_text(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const auto& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  }
  return os.str();
}

std::string format_json(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "{\"findings\":[";
  bool first = true;
  for (const auto& f : findings) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"rule\":";
    json_escape(os, f.rule);
    os << ",\"file\":";
    json_escape(os, f.file);
    os << ",\"line\":" << f.line << ",\"symbol\":";
    json_escape(os, f.symbol);
    os << ",\"message\":";
    json_escape(os, f.message);
    os << "}";
  }
  os << (findings.empty() ? "" : "\n") << "]}\n";
  return os.str();
}

}  // namespace darnet::analyze
