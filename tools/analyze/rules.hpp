// darnet_analyze rules: the per-file rules (file_rules.cpp), the doc-drift
// contracts, and the semantic rules over the symbol index (rules.cpp).
//
// Names, kinds and one-line purposes live in kRuleCatalogue (report.hpp);
// docs/STATIC_ANALYSIS.md documents each rule. The semantic rules:
//   lock-order                static mutex acquisition-order extraction;
//                             flags cycles, edges against the documented
//                             hierarchy, and edges out of declared leaves.
//   guarded-by                access to a DARNET_GUARDED_BY(mu) member with
//                             no live sync::Lock on mu and no dominating
//                             DARNET_ASSERT_HELD(mu).
//   hot-path-alloc-transitive call-graph reachability from the inference hot
//                             path roots to an allocating construct not in
//                             the exemption registry.
//   unchecked-status          a call to an in-tree Admit/Status-returning
//                             function used as a bare discarded statement.
//   blocking-under-lock       interprocedural: a call that may block (CondVar
//                             wait, socket send/recv/accept, future::get,
//                             sleep, thread join) is reachable while a
//                             sync::Lock/UniqueLock scope is live. route/*
//                             mutexes are block-free tier (no exemptions).
//   time-source-purity        a direct std::chrono::{steady,system}_clock
//                             ::now() read outside the whitelisted seams
//                             (serve::TimeSource impls, obs epoch, Stopwatch,
//                             checked-build sync watchdogs).
//   unchecked-posix-io        ssize_t/fd return of ::send/::recv/::accept/
//                             ::close discarded as a bare statement in
//                             src/http.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tools/analyze/index.hpp"
#include "tools/analyze/report.hpp"

namespace darnet::analyze {

// (file_id, function index) — identifies a FunctionInfo in an Index.
using FnId = std::pair<int, int>;

// Interprocedural effects of one function, computed as a fixpoint over the
// strictly-resolved call graph: a function has an effect if it performs the
// primitive directly or any strictly-resolved callee has the effect.
struct Effects {
  bool may_block = false;    // may wait on a CV/socket/future/sleep/join
  bool reads_clock = false;  // reads std::chrono::{steady,system}_clock::now()
  // Witness chains from this function down to the primitive. The last element
  // describes the primitive itself ("::recv at src/http/http.cpp:204"); the
  // preceding elements are the callee symbols on the path.
  std::vector<std::string> block_path;
  std::vector<std::string> clock_path;
};

// Compute effects for every indexed function (exposed for unit tests and the
// --dump-effects debug artefact).
std::map<FnId, Effects> compute_effects(const Index& idx);

// One edge of the static lock-order graph: while holding `from`, `to` was
// (possibly transitively, through calls) acquired.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;  // site of the inner acquisition or the mediating call
  int line = 0;
  std::string via;   // function whose body holds the outer lock
};

struct AnalysisOptions {
  // Walked directories (src tests bench examples tools) whose files are also
  // indexed for the semantic rules. Tests stay out: gtest code would confuse
  // call resolution.
  std::vector<std::string> index_dirs = {"src", "tools", "examples"};
  // Path prefixes to skip entirely (deliberately-broken fixture trees).
  std::vector<std::string> skip_prefixes = {"tests/analyze_fixtures/"};
  // Semantic rules run only on files under these prefixes. Tests and bench
  // stay out of scope: test_sync contains deliberate lock inversions (death
  // tests) and gtest macros defeat the approximate parser.
  std::vector<std::string> rule_prefixes = {"src/"};
  // unchecked-status additionally covers examples/ (the public API surface).
  std::vector<std::string> status_rule_prefixes = {"src/", "examples/"};
  // unchecked-posix-io runs only where raw POSIX sockets/fds live.
  std::vector<std::string> posix_io_prefixes = {"src/http/"};
};

// One function's computed effects, flattened for --dump-effects and tests.
struct EffectEntry {
  std::string symbol;  // "Class::function" or "function"
  std::string file;
  int line = 0;
  bool may_block = false;
  bool reads_clock = false;
  std::vector<std::string> block_path;
  std::vector<std::string> clock_path;
};

struct AnalysisResult {
  std::vector<Finding> findings;
  std::vector<LockEdge> lock_edges;  // full static lock-order graph
  std::vector<EffectEntry> effects;  // every function with a non-empty effect
  int files_checked = 0;  // walked and run through the per-file rules
  int files_indexed = 0;
  int functions_indexed = 0;
};

// Walk, lex, index and run every rule over the repo at `root`.
AnalysisResult analyze_tree(const std::filesystem::path& root,
                            const AnalysisOptions& opts = {});

// One registration site of a name a checked doc table must list.
struct NameUse {
  std::string name;
  std::string file;
  int line = 0;
};

// What the per-file rules collect for the doc-drift contracts.
struct DocUses {
  std::vector<NameUse> metrics;    // metric/span names registered in src/
  std::vector<NameUse> scenarios;  // register_scenario("name", ...) in src/sim/
};

// Runs the per-file rules over one lexed file. `functions` are the file's
// indexed function bodies (empty outside the index); hot-path-alloc matches
// them against symbol entries of the exemption registry.
void check_file(const LexedFile& file,
                const std::vector<FunctionInfo>& functions, DocUses& uses,
                std::vector<Finding>& findings);

// The doc-drift contracts: every name in `uses` has a row in its doc table
// (docs/OBSERVABILITY.md, docs/SIMULATION.md) and every row is still used.
void check_doc_contracts(const std::filesystem::path& root,
                         const DocUses& uses, std::vector<Finding>& findings);

// The hot-path allocation exemption registry, shared by hot-path-alloc and
// hot-path-alloc-transitive. `fn` is the enclosing function, or nullptr.
bool hot_path_alloc_exempt(const std::string& file, const FunctionInfo* fn);

// Individual rule entry points (exposed for tests).
void rule_lock_order(const Index& idx, const AnalysisOptions& opts,
                     std::vector<LockEdge>& edges,
                     std::vector<Finding>& findings);
void rule_guarded_by(const Index& idx, const AnalysisOptions& opts,
                     std::vector<Finding>& findings);
void rule_hot_path_alloc(const Index& idx, const AnalysisOptions& opts,
                         std::vector<Finding>& findings);
void rule_unchecked_status(const Index& idx, const AnalysisOptions& opts,
                           std::vector<Finding>& findings);
void rule_blocking_under_lock(const Index& idx, const AnalysisOptions& opts,
                              const std::map<FnId, Effects>& effects,
                              std::vector<Finding>& findings);
void rule_time_source_purity(const Index& idx, const AnalysisOptions& opts,
                             std::vector<Finding>& findings);
void rule_unchecked_posix_io(const Index& idx, const AnalysisOptions& opts,
                             std::vector<Finding>& findings);

}  // namespace darnet::analyze
