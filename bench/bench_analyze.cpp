// Analyzer wall-time benchmark: evidence behind the < 10s budget the
// `analyze` CI leg enforces (tools/ci/check.sh, docs/STATIC_ANALYSIS.md
// "Performance").
//
// Runs `analyze::analyze_tree` over the repo several times and records
// min/mean/max wall seconds plus what the run saw: files checked by the
// per-file rules, files/functions indexed, static lock edges, effect-table
// sizes (may-block / reads-clock function counts) and finding counts for
// every rule in the catalogue *before* baseline suppression (the baseline
// is a reporting concern; the rules' raw output is what costs time). The
// JSON blob is checked in as BENCH_analyze.json.
//
// Acceptance gates (exit non-zero on miss):
//  1. Budget: every run completes inside the 10s wall-time budget.
//  2. Determinism: per-rule finding counts are identical across runs.
//  3. Shape: the tree actually indexed (> 50 files, > 200 functions) --
//     a path typo must not pass as an instant "benchmark".
//
// Usage: bench_analyze [repo_root] [out_path]
//   repo_root  tree to analyze (default "."); the CI bench-smoke leg
//              passes the checkout root explicitly
//   out_path   where to write the JSON ("-" = stdout only;
//              default BENCH_analyze.json in the current directory)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "tools/analyze/rules.hpp"

namespace {

constexpr int kRuns = 5;
constexpr double kBudgetSeconds = 10.0;

}  // namespace

int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : ".";
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_analyze.json";

  std::vector<double> wall_s;
  std::map<std::string, int> counts;
  darnet::analyze::AnalysisResult last;
  for (int run = 0; run < kRuns; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    darnet::analyze::AnalysisResult res = darnet::analyze::analyze_tree(root);
    const auto t1 = std::chrono::steady_clock::now();
    wall_s.push_back(std::chrono::duration<double>(t1 - t0).count());

    // Every catalogue rule gets a key, so zero counts still appear in the
    // JSON and a rule rename shows up as a count moving between keys.
    std::map<std::string, int> run_counts;
    for (const auto& rule : darnet::analyze::kRuleCatalogue) {
      run_counts[std::string(rule.name)] = 0;
    }
    for (const auto& f : res.findings) ++run_counts[f.rule];
    if (run == 0) {
      counts = run_counts;
    } else if (run_counts != counts) {
      std::cerr << "bench_analyze: GATE MISS -- per-rule finding counts "
                   "differ between runs (analyzer is nondeterministic)\n";
      return 1;
    }
    last = std::move(res);
  }

  double min_s = wall_s[0], max_s = wall_s[0], sum_s = 0.0;
  for (double s : wall_s) {
    if (s < min_s) min_s = s;
    if (s > max_s) max_s = s;
    sum_s += s;
  }
  const double mean_s = sum_s / static_cast<double>(wall_s.size());

  int may_block = 0, reads_clock = 0;
  for (const auto& e : last.effects) {
    if (e.may_block) ++may_block;
    if (e.reads_clock) ++reads_clock;
  }

  std::string json;
  char buf[256];
  json += "{\n  \"bench\": \"analyze\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"runs\": %d,\n  \"files_checked\": %d,\n"
                "  \"files_indexed\": %d,\n"
                "  \"functions_indexed\": %d,\n  \"lock_edges\": %d,\n",
                kRuns, last.files_checked, last.files_indexed,
                last.functions_indexed,
                static_cast<int>(last.lock_edges.size()));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"wall_seconds\": {\"min\": %.6f, \"mean\": %.6f, "
                "\"max\": %.6f},\n  \"budget_seconds\": %.1f,\n",
                min_s, mean_s, max_s, kBudgetSeconds);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"effects\": {\"may_block\": %d, \"reads_clock\": %d},\n",
                may_block, reads_clock);
  json += buf;
  json += "  \"findings_per_rule\": {\n";
  const auto& rules = darnet::analyze::kRuleCatalogue;
  for (std::size_t i = 0; i < std::size(rules); ++i) {
    const std::string name(rules[i].name);
    std::snprintf(buf, sizeof(buf), "    \"%s\": %d%s\n", name.c_str(),
                  counts[name], i + 1 < std::size(rules) ? "," : "");
    json += buf;
  }
  json += "  }\n}\n";

  std::printf("bench_analyze: %d files, %d functions, %d effect rows; "
              "wall %.3fs min / %.3fs mean / %.3fs max (budget %.1fs)\n",
              last.files_indexed, last.functions_indexed,
              static_cast<int>(last.effects.size()), min_s, mean_s, max_s,
              kBudgetSeconds);

  if (out_path != "-") {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_analyze: cannot write " << out_path << "\n";
      return 2;
    }
    out << json;
  } else {
    std::cout << json;
  }

  if (max_s > kBudgetSeconds) {
    std::cerr << "bench_analyze: GATE MISS -- slowest run " << max_s
              << "s exceeds the " << kBudgetSeconds << "s budget\n";
    return 1;
  }
  if (last.files_indexed <= 50 || last.functions_indexed <= 200) {
    std::cerr << "bench_analyze: GATE MISS -- indexed only "
              << last.files_indexed << " files / " << last.functions_indexed
              << " functions; wrong root?\n";
    return 1;
  }
  return 0;
}
