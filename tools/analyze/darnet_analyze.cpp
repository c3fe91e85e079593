// darnet_analyze — the repo's static checker: per-file rules, doc-drift
// contracts, and cross-file semantic rules for concurrency, the hot path
// and API contracts (catalogue: kRuleCatalogue in report.hpp; rule docs:
// docs/STATIC_ANALYSIS.md).
//
// Usage (flags and the 0/1/2 exit-code contract follow
// tools/common/cli.hpp):
//   darnet_analyze <repo_root> [--format=text|json] [--out=PATH]
//                  [--baseline=<path>] [--no-stale-check]
//                  [--dump-lock-graph=<path>] [--dump-effects=<path>] [--list]
//
// Text findings go to stderr in the `file:line: [rule] message` shape that
// tests/analyze_fixtures/run_fixtures.sh keys on; JSON goes to stdout, and
// --out writes the selected rendering to a file. --list prints the rule
// catalogue. The default baseline is
// <root>/tools/analyze/analyze_baseline.json when that file exists.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "tools/analyze/rules.hpp"
#include "tools/common/cli.hpp"

int main(int argc, char** argv) {
  using namespace darnet::analyze;
  darnet::cli::Parser parser(
      "darnet_analyze",
      "usage: darnet_analyze <repo_root> [--format=text|json] [--out=PATH]\n"
      "                      [--baseline=<path>] [--no-stale-check]\n"
      "                      [--dump-lock-graph=<path>] [--dump-effects=<path>]\n"
      "                      [--list]");
  parser.flag("format").flag("out").flag("baseline").flag("dump-lock-graph");
  parser.flag("dump-effects");
  parser.toggle("no-stale-check").toggle("list");
  bool json = false;
  if (!parser.parse(argc, argv, 1) || !parser.format(json)) return 2;
  if (parser.help()) return 0;
  if (parser.on("list")) {
    static constexpr const char* kKinds[] = {"per-file", "doc", "semantic",
                                             "report"};
    for (const RuleInfo& rule : kRuleCatalogue) {
      std::printf("%-26.*s %-9s %.*s\n", static_cast<int>(rule.name.size()),
                  rule.name.data(), kKinds[static_cast<int>(rule.kind)],
                  static_cast<int>(rule.what.size()), rule.what.data());
    }
    return 0;
  }
  const std::string format = json ? "json" : "text";
  const std::string baseline_arg = parser.get("baseline", "");
  const std::string dump_lock_graph = parser.get("dump-lock-graph", "");
  const std::string dump_effects = parser.get("dump-effects", "");
  const std::string out_path = parser.get("out", "");
  const bool stale_check = !parser.on("no-stale-check");
  if (parser.positionals().empty()) {
    std::fprintf(stderr, "darnet_analyze: missing <repo_root> operand\n");
    return 2;
  }
  const std::string root = parser.positionals().front();
  std::filesystem::path rp(root);
  if (!std::filesystem::exists(rp / "src")) {
    std::fprintf(stderr, "darnet_analyze: '%s' does not look like the repo root (no src/)\n",
                 root.c_str());
    return 2;
  }

  AnalysisResult res = analyze_tree(rp);

  // Baseline: explicit path wins; otherwise the checked-in default (if any).
  std::string baseline_path = baseline_arg;
  if (baseline_path.empty()) {
    auto def = rp / "tools" / "analyze" / "analyze_baseline.json";
    if (std::filesystem::exists(def)) baseline_path = def.generic_string();
  }
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "darnet_analyze: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::vector<Suppression> baseline;
    std::string err;
    if (!parse_baseline(ss.str(), baseline, err)) {
      std::fprintf(stderr, "darnet_analyze: malformed baseline '%s': %s\n",
                   baseline_path.c_str(), err.c_str());
      return 2;
    }
    apply_baseline(res.findings, baseline, "tools/analyze/analyze_baseline.json",
                   stale_check);
  }
  sort_findings(res.findings);

  if (!dump_lock_graph.empty()) {
    std::ofstream out(dump_lock_graph, std::ios::binary);
    out << "{\"edges\":[";
    for (size_t i = 0; i < res.lock_edges.size(); ++i) {
      const auto& e = res.lock_edges[i];
      out << (i ? "," : "") << "\n  {\"from\":\"" << e.from << "\",\"to\":\""
          << e.to << "\",\"file\":\"" << e.file << "\",\"line\":" << e.line
          << "}";
    }
    out << (res.lock_edges.empty() ? "" : "\n") << "]}\n";
  }

  // --dump-effects: one entry per function with a non-empty effect, sorted by
  // (file, line), so a refactor can diff which functions gained or lost a
  // may-block / reads-clock effect.
  if (!dump_effects.empty()) {
    std::ofstream out(dump_effects, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "darnet_analyze: cannot write '%s'\n",
                   dump_effects.c_str());
      return 2;
    }
    auto path_array = [&out](const std::vector<std::string>& path) {
      out << "[";
      for (size_t i = 0; i < path.size(); ++i)
        out << (i ? "," : "") << "\"" << path[i] << "\"";
      out << "]";
    };
    out << "{\"effects\":[";
    for (size_t i = 0; i < res.effects.size(); ++i) {
      const auto& e = res.effects[i];
      out << (i ? "," : "") << "\n  {\"symbol\":\"" << e.symbol
          << "\",\"file\":\"" << e.file << "\",\"line\":" << e.line
          << ",\"may_block\":" << (e.may_block ? "true" : "false")
          << ",\"reads_clock\":" << (e.reads_clock ? "true" : "false")
          << ",\"block_path\":";
      path_array(e.block_path);
      out << ",\"clock_path\":";
      path_array(e.clock_path);
      out << "}";
    }
    out << (res.effects.empty() ? "" : "\n") << "]}\n";
  }

  if (format == "json") {
    std::cout << format_json(res.findings);
  }
  std::cerr << format_text(res.findings);
  if (!out_path.empty() && out_path != "-") {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "darnet_analyze: cannot write '%s'\n",
                   out_path.c_str());
      return 2;
    }
    out << (json ? format_json(res.findings) : format_text(res.findings));
  }
  if (res.findings.empty()) {
    std::fprintf(stderr,
                 "darnet_analyze: clean (%d files checked, %d indexed, %d "
                 "functions, %zu lock edges)\n",
                 res.files_checked, res.files_indexed, res.functions_indexed,
                 res.lock_edges.size());
    return 0;
  }
  std::fprintf(stderr, "darnet_analyze: %zu finding(s)\n", res.findings.size());
  return 1;
}
