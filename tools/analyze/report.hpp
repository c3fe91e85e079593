// darnet_analyze findings, the rule catalogue, reporting, and the
// baseline/suppression file.
//
// Output contract: one finding per line on stderr,
//     <file>:<line>: [<rule>] <message>
// exit 1 when findings remain, 0 when clean, 2 on usage/IO errors.
//
// --format=json writes a deterministic (sorted) JSON document to stdout:
//     {"findings":[{"rule":...,"file":...,"line":N,"symbol":...,
//                   "message":...},...]}
//
// The baseline file (tools/analyze/analyze_baseline.json) suppresses known,
// reviewed findings of the semantic rules only; per-file and doc-drift
// findings are fixed at the source, never baselined. Matching is on (rule,
// file, symbol) — deliberately not on line numbers, so unrelated edits don't
// invalidate entries. Every entry must keep matching something: a
// suppression that no longer fires becomes a `stale-baseline` finding so the
// file cannot rot.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace darnet::analyze {

enum class RuleKind {
  kFile,      // decided by one file's tokens (rule-specific directory scope)
  kDoc,       // code against a checked table in docs/
  kSemantic,  // cross-file, over the symbol index; the only baselinable kind
  kReport,    // about the run itself
};

struct RuleInfo {
  std::string_view name;
  RuleKind kind;
  std::string_view what;  // one-line purpose, printed by --list
};

// The one rule catalogue: --list, bench_analyze's per-rule counts and the
// docs/STATIC_ANALYSIS.md tables all follow it. Names are stable: fixture
// directories (tests/analyze_fixtures/<rule>/) and baseline entries key on
// them.
inline constexpr RuleInfo kRuleCatalogue[] = {
    {"pragma-once", RuleKind::kFile, "every header opens with #pragma once"},
    {"raw-new", RuleKind::kFile,
     "manual new outside the make_unique/make_shared idiom"},
    {"raw-delete", RuleKind::kFile, "manual delete (ownership must be scoped)"},
    {"thread-outside-parallel", RuleKind::kFile,
     "std::thread anywhere but src/parallel/"},
    {"unseeded-rng", RuleKind::kFile, "default-seeded random engine"},
    {"hot-path-io", RuleKind::kFile,
     "iostream inside the numeric hot-path dirs"},
    {"hot-path-alloc", RuleKind::kFile,
     "per-call float/double vector on the hot path"},
    {"serve-bounded-queue", RuleKind::kFile,
     "queue push with no capacity check nearby"},
    {"sync-raw-primitive", RuleKind::kFile,
     "raw std primitives outside src/sync/"},
    {"sync-guarded-by", RuleKind::kFile,
     "lock-owning member without DARNET_GUARDED_BY"},
    {"sync-assert-held", RuleKind::kFile,
     "REQUIRES comment without DARNET_ASSERT_HELD"},
    {"engine-deprecated-shim", RuleKind::kFile,
     "any DARNET_ALLOW_DEPRECATED* gate token"},
    {"obs-name-literal", RuleKind::kFile,
     "metric name off the segment/charset grammar"},
    {"obs-doc-missing", RuleKind::kDoc,
     "metric with no docs/OBSERVABILITY.md row"},
    {"obs-doc-stale", RuleKind::kDoc,
     "documented metric no longer in the code"},
    {"sim-doc-missing", RuleKind::kDoc,
     "scenario with no docs/SIMULATION.md row"},
    {"sim-doc-stale", RuleKind::kDoc,
     "documented scenario no longer registered"},
    {"lock-order", RuleKind::kSemantic,
     "mutex acquisition-order cycles / hierarchy breaks"},
    {"guarded-by", RuleKind::kSemantic,
     "guarded member touched without its lock held"},
    {"hot-path-alloc-transitive", RuleKind::kSemantic,
     "allocation reachable from hot roots"},
    {"unchecked-status", RuleKind::kSemantic,
     "Admit/Status result discarded as a statement"},
    {"blocking-under-lock", RuleKind::kSemantic,
     "may-block call reachable under a sync::Lock"},
    {"time-source-purity", RuleKind::kSemantic,
     "wall-clock read outside whitelisted seams"},
    {"unchecked-posix-io", RuleKind::kSemantic,
     "::send/recv/accept/close status discarded"},
    {"io-error", RuleKind::kReport,
     "a walked file the analyzer could not read"},
    {"stale-baseline", RuleKind::kReport,
     "baseline suppression matching nothing"},
};

// True only for the semantic rules: the baseline may suppress nothing else.
bool baselinable(std::string_view rule);

struct Finding {
  std::string rule;
  std::string file;  // repo-relative path
  int line = 0;
  std::string symbol;  // function/member/mutex the finding is about
  std::string message;
};

struct Suppression {
  std::string rule;
  std::string file;
  std::string symbol;
  std::string reason;
};

// Parse the baseline JSON. Returns false (with `error` set) on malformed
// input. The expected shape is
//   {"suppressions":[{"rule":"...","file":"...","symbol":"...",
//                     "reason":"..."},...]}
bool parse_baseline(const std::string& text, std::vector<Suppression>& out,
                    std::string& error);

// Apply the baseline: removes suppressed findings of baselinable rules from
// `findings`; appends a `stale-baseline` finding for every suppression that
// matched nothing (which includes every entry naming a rule that is not
// baselinable).
void apply_baseline(std::vector<Finding>& findings,
                    const std::vector<Suppression>& baseline,
                    const std::string& baseline_path, bool stale_check);

// Sort findings (file, line, rule, message) for deterministic output.
void sort_findings(std::vector<Finding>& findings);

// Render to the human format (one line per finding).
std::string format_text(const std::vector<Finding>& findings);

// Render the deterministic JSON document.
std::string format_json(const std::vector<Finding>& findings);

}  // namespace darnet::analyze
