// test_analyze: unit tests for the darnet_analyze lexer, symbol index,
// per-file rules, rule catalogue and baseline, plus the runtime-vs-static
// lock-order consistency check: every edge the checked sync runtime records
// while this suite's workload runs must be compatible with the graph
// darnet_analyze extracts statically (no inverted pair, and the union of
// both graphs stays acyclic).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/pool.hpp"
#include "sync/sync.hpp"
#include "tools/analyze/index.hpp"
#include "tools/analyze/lexer.hpp"
#include "tools/analyze/rules.hpp"

namespace {

namespace analyze = darnet::analyze;
using analyze::Tok;

std::vector<std::string> idents(const analyze::LexedFile& lexed) {
  std::vector<std::string> out;
  for (const analyze::Token& t : lexed.tokens) {
    if (t.kind == Tok::kIdent) out.push_back(t.text);
  }
  return out;
}

bool has_ident(const analyze::LexedFile& lexed, std::string_view text) {
  for (const analyze::Token& t : lexed.tokens) {
    if (t.kind == Tok::kIdent && t.text == text) return true;
  }
  return false;
}

TEST(AnalyzeLexer, RawStringsAreOpaque) {
  const auto lexed = analyze::lex(
      "auto s = R\"x(std::mutex m; /* not a comment */ \"inner\")x\";",
      "t.cpp");
  ASSERT_EQ(lexed.tokens.size(), 5u);  // auto s = <string> ;
  EXPECT_EQ(lexed.tokens[3].kind, Tok::kString);
  EXPECT_EQ(lexed.tokens[3].text,
            "std::mutex m; /* not a comment */ \"inner\"");
  EXPECT_FALSE(has_ident(lexed, "mutex"));
}

TEST(AnalyzeLexer, EncodingPrefixesAreNotIdentifiers) {
  const auto lexed = analyze::lex(
      "auto a = u8R\"(raw)\"; auto b = L\"wide\"; auto c = u'x';", "t.cpp");
  EXPECT_FALSE(has_ident(lexed, "u8R"));
  EXPECT_FALSE(has_ident(lexed, "L"));
  EXPECT_FALSE(has_ident(lexed, "u"));
  int strings = 0;
  int chars = 0;
  for (const analyze::Token& t : lexed.tokens) {
    if (t.kind == Tok::kString) ++strings;
    if (t.kind == Tok::kChar) ++chars;
  }
  EXPECT_EQ(strings, 2);
  EXPECT_EQ(chars, 1);
}

TEST(AnalyzeLexer, LineContinuations) {
  // A spliced line comment swallows the next physical line; a spliced
  // string folds into one token; line numbers keep counting physical lines.
  const auto lexed = analyze::lex(
      "// comment \\\nstill_comment\nint x = \"ab\\\ncd\";\n", "t.cpp");
  EXPECT_FALSE(has_ident(lexed, "still_comment"));
  ASSERT_GE(lexed.tokens.size(), 4u);
  EXPECT_EQ(lexed.tokens[0].text, "int");
  EXPECT_EQ(lexed.tokens[0].line, 3);
  EXPECT_EQ(lexed.tokens[3].kind, Tok::kString);
  EXPECT_EQ(lexed.tokens[3].text, "abcd");
}

TEST(AnalyzeLexer, BlockCommentsDoNotNest) {
  const auto lexed =
      analyze::lex("/* outer /* inner */ tail(); /* x */ int y;", "t.cpp");
  const std::vector<std::string> ids = idents(lexed);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], "tail");  // "*/" closes at the first terminator
  EXPECT_EQ(ids[1], "int");
  EXPECT_EQ(ids[2], "y");
}

TEST(AnalyzeLexer, IfZeroRegionsAreSkipped) {
  const auto lexed = analyze::lex(
      "#if 0\n"
      "std::mutex hidden; // \" unbalanced quote in a comment\n"
      "#else\n"
      "int visible;\n"
      "#endif\n"
      "int after;\n",
      "t.cpp");
  EXPECT_FALSE(has_ident(lexed, "hidden"));
  EXPECT_FALSE(has_ident(lexed, "mutex"));
  EXPECT_TRUE(has_ident(lexed, "visible"));
  EXPECT_TRUE(has_ident(lexed, "after"));
}

TEST(AnalyzeLexer, ConditionalsOtherThanIfZeroEmitBothSides) {
  const auto lexed = analyze::lex(
      "#ifdef DARNET_CHECKED\nint checked_side;\n#else\n"
      "int unchecked_side;\n#endif\n",
      "t.cpp");
  EXPECT_TRUE(has_ident(lexed, "checked_side"));
  EXPECT_TRUE(has_ident(lexed, "unchecked_side"));
}

TEST(AnalyzeLexer, DirectivesAndIncludesRecordedOutOfBand) {
  const auto lexed = analyze::lex(
      "#include <vector>\n#include \"sync/sync.hpp\"\n#define FOO 1\n",
      "t.cpp");
  EXPECT_TRUE(lexed.tokens.empty());
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0], "vector");
  EXPECT_EQ(lexed.includes[1], "sync/sync.hpp");
  ASSERT_EQ(lexed.directives.size(), 3u);
  EXPECT_EQ(lexed.directives[2].name, "define");
  EXPECT_EQ(lexed.directives[2].rest, "FOO 1");
}

TEST(AnalyzeLexer, CommentsRecordedOutOfBandWithTheNextToken) {
  const auto lexed = analyze::lex(
      "int a; // REQUIRES: mu held\n/* two\nlines */ void f() {}\n", "t.cpp");
  EXPECT_FALSE(has_ident(lexed, "REQUIRES"));
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].text, " REQUIRES: mu held");
  EXPECT_EQ(lexed.comments[0].line, 1);
  EXPECT_EQ(lexed.comments[0].next_token, 3u);  // `void`
  EXPECT_EQ(lexed.comments[1].text, " two\nlines ");
  EXPECT_EQ(lexed.comments[1].line, 2);
  EXPECT_EQ(lexed.comments[1].next_token, 3u);
}

// Per-file findings for one snippet lexed (and indexed) as `path`, each
// rendered "rule:line".
std::vector<std::string> file_findings(const char* src, const char* path) {
  analyze::Index idx;
  analyze::index_file(idx, analyze::lex(src, path));
  analyze::DocUses uses;
  std::vector<analyze::Finding> findings;
  analyze::check_file(idx.files[0].lex, idx.files[0].functions, uses,
                      findings);
  std::vector<std::string> out;
  for (const analyze::Finding& f : findings) {
    out.push_back(f.rule + ":" + std::to_string(f.line));
  }
  return out;
}

TEST(AnalyzeFileRules, DirectivesCannotHideABannedToken) {
  EXPECT_EQ(file_findings("#include <new>\n#define SPAWN std::thread\n",
                          "src/fix/spawn.cpp"),
            std::vector<std::string>{"thread-outside-parallel:2"});
}

TEST(AnalyzeFileRules, RequiresMarkerReportsItsOwnLine) {
  EXPECT_EQ(file_findings("/* Bumps the count.\n   REQUIRES: mu held */\n"
                          "void bump() { ++n; }\n"
                          "// REQUIRES: mu held\n"
                          "void peek();\n",
                          "src/fix/count.cpp"),
            std::vector<std::string>{"sync-assert-held:2"});
}

// The exemption registry names step_sharded, not its whole file: a float
// vector anywhere else in src/nn/trainer.cpp is still a finding.
TEST(AnalyzeFileRules, HotPathAllocExemptionIsPerFunction) {
  EXPECT_EQ(file_findings("double step_sharded() {\n"
                          "  std::vector<double> shard_loss(4, 0.0);\n"
                          "  return shard_loss[0];\n"
                          "}\n"
                          "float predict_logits() {\n"
                          "  std::vector<float> logits(4);\n"
                          "  return logits[0];\n"
                          "}\n",
                          "src/nn/trainer.cpp"),
            std::vector<std::string>{"hot-path-alloc:6"});
}

// Only semantic findings are baselinable: an entry naming a per-file,
// doc or report rule suppresses nothing and is itself reported.
TEST(AnalyzeBaseline, OnlySemanticRulesCanBeSuppressed) {
  for (const analyze::RuleInfo& rule : analyze::kRuleCatalogue) {
    const std::string name(rule.name);
    std::vector<analyze::Finding> findings = {
        {name, "src/fix.cpp", 3, "sym", "message"}};
    analyze::apply_baseline(findings,
                            {{name, "src/fix.cpp", "sym", "reviewed"}},
                            "baseline.json", /*stale_check=*/true);
    if (rule.kind == analyze::RuleKind::kSemantic) {
      EXPECT_TRUE(findings.empty()) << name;
      continue;
    }
    ASSERT_EQ(findings.size(), 2u) << name;
    EXPECT_EQ(findings[0].rule, name);
    EXPECT_EQ(findings[1].rule, "stale-baseline");
    EXPECT_NE(findings[1].message.find("rule cannot be baselined"),
              std::string::npos);
  }
}

// One catalogue: every rule has a fixture tree (io-error aside: git cannot
// hold an unreadable file) and a row in docs/STATIC_ANALYSIS.md, and every
// fixture tree is named after a catalogue rule.
TEST(AnalyzeCatalogue, RulesFixturesAndDocsAgree) {
  const std::filesystem::path root(DARNET_REPO_ROOT);
  std::ifstream in(root / "docs" / "STATIC_ANALYSIS.md");
  std::stringstream doc;
  doc << in.rdbuf();
  std::set<std::string> names;
  for (const analyze::RuleInfo& rule : analyze::kRuleCatalogue) {
    const std::string name(rule.name);
    names.insert(name);
    EXPECT_NE(doc.str().find("| `" + name + "` |"), std::string::npos)
        << name << " has no docs/STATIC_ANALYSIS.md row";
    if (name == "io-error") continue;
    EXPECT_TRUE(std::filesystem::is_directory(
        root / "tests" / "analyze_fixtures" / name / "fail"))
        << name << " has no fail fixture";
  }
  for (const auto& entry : std::filesystem::directory_iterator(
           root / "tests" / "analyze_fixtures")) {
    if (!entry.is_directory()) continue;
    EXPECT_TRUE(names.contains(entry.path().filename().string()))
        << entry.path() << " names no catalogue rule";
  }
}

TEST(AnalyzeIndex, ClassMembersLocksAndCalls) {
  const char* src = R"cpp(
namespace fix {
class Counter {
 public:
  int get();
 private:
  sync::Mutex mu_{"fix/counter"};
  int count_ DARNET_GUARDED_BY(mu_) = 0;
};
int Counter::get() {
  sync::Lock lock(mu_);
  return count_;
}
int free_helper(int n) {
  std::vector<float> scratch(static_cast<std::size_t>(n), 0.0F);
  return other_helper(n) + static_cast<int>(scratch.size());
}
}  // namespace fix
)cpp";
  analyze::Index idx;
  analyze::index_file(idx, analyze::lex(src, "src/fix.cpp"));

  ASSERT_TRUE(idx.classes.count("Counter"));
  const analyze::ClassInfo& cls = idx.classes.at("Counter");
  ASSERT_TRUE(cls.mutex_names.count("mu_"));
  EXPECT_EQ(cls.mutex_names.at("mu_"), "fix/counter");
  ASSERT_TRUE(cls.guards.count("count_"));
  EXPECT_EQ(cls.guards.at("count_"), "mu_");

  ASSERT_TRUE(idx.by_name.count("get"));
  const analyze::FunctionInfo& get = idx.fn(idx.by_name.at("get").front());
  EXPECT_EQ(get.klass, "Counter");
  ASSERT_EQ(get.locks.size(), 1u);
  EXPECT_EQ(get.locks[0].mutex_expr_last, "mu_");

  ASSERT_TRUE(idx.by_name.count("free_helper"));
  const analyze::FunctionInfo& helper =
      idx.fn(idx.by_name.at("free_helper").front());
  EXPECT_TRUE(helper.klass.empty());
  EXPECT_FALSE(helper.allocs.empty());
  bool calls_other = false;
  for (const analyze::CallSite& c : helper.calls) {
    if (c.callee == "other_helper") calls_other = true;
  }
  EXPECT_TRUE(calls_other);
}

// Depth-first cycle check over a name -> successors adjacency map.
bool has_cycle(const std::map<std::string, std::set<std::string>>& adj) {
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  struct Walker {
    const std::map<std::string, std::set<std::string>>& adj;
    std::map<std::string, int>& color;
    bool visit(const std::string& n) {
      color[n] = 1;
      auto it = adj.find(n);
      if (it != adj.end()) {
        for (const std::string& next : it->second) {
          const int c = color.count(next) ? color.at(next) : 0;
          if (c == 1) return true;
          if (c == 0 && visit(next)) return true;
        }
      }
      color[n] = 2;
      return false;
    }
  } walker{adj, color};
  for (const auto& [n, succs] : adj) {
    (void)succs;
    if ((color.count(n) ? color.at(n) : 0) == 0 && walker.visit(n)) {
      return true;
    }
  }
  return false;
}

// The acceptance check for the static lock-order extraction: run a real
// workload, snapshot the runtime lock-order graph recorded by src/sync
// (checked builds; empty otherwise), and require that the statically
// extracted graph never disagrees -- no pair of mutexes ordered one way at
// runtime and the other way statically, and no cycle in the union.
TEST(AnalyzeConsistency, RuntimeLockOrderAgreesWithStaticGraph) {
  namespace dsync = darnet::sync;

  // Manufacture one nested acquisition in the documented direction so the
  // runtime graph is non-empty in checked builds even on 1-core hosts
  // (where parallel_for degenerates to the serial path).
  {
    static dsync::Mutex admission{"serve/admission"};
    static dsync::Mutex exec{"serve/exec"};
    dsync::Lock a(admission);
    dsync::Lock e(exec);
  }
  // Real workload: drives the pool's submit -> pool / region-error edges
  // when workers are available.
  std::atomic<std::int64_t> sum{0};
  darnet::parallel::parallel_for(
      0, 4096, 16, [&](std::int64_t b, std::int64_t e) {
        std::int64_t local = 0;
        for (std::int64_t i = b; i < e; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(4096) * 4095 / 2);

  const std::vector<dsync::OrderEdge> runtime = dsync::order_graph_snapshot();
#if defined(DARNET_CHECKED)
  EXPECT_FALSE(runtime.empty());  // at least the manufactured edge
#else
  EXPECT_TRUE(runtime.empty());  // unchecked builds keep no graph
#endif

  const analyze::AnalysisResult res = analyze::analyze_tree(DARNET_REPO_ROOT);
  EXPECT_GT(res.files_indexed, 0);
  EXPECT_GT(res.functions_indexed, 0);

  std::set<std::pair<std::string, std::string>> static_edges;
  for (const analyze::LockEdge& e : res.lock_edges) {
    static_edges.insert({e.from, e.to});
  }
  for (const dsync::OrderEdge& e : runtime) {
    EXPECT_FALSE(static_edges.count({e.to, e.from}))
        << "runtime edge " << e.from << " -> " << e.to << " (first seen at "
        << e.acquire_file << ":" << e.acquire_line
        << ") inverts a statically extracted edge";
  }

  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [from, to] : static_edges) adj[from].insert(to);
  for (const dsync::OrderEdge& e : runtime) adj[e.from].insert(e.to);
  EXPECT_FALSE(has_cycle(adj))
      << "union of runtime and static lock-order graphs has a cycle";
}

// Index a snippet and return its computed effects keyed by symbol.
std::map<std::string, analyze::Effects> effects_of(const char* src) {
  analyze::Index idx;
  analyze::index_file(idx, analyze::lex(src, "src/fix.cpp"));
  std::map<std::string, analyze::Effects> out;
  for (const auto& [id, e] : analyze::compute_effects(idx)) {
    const analyze::FunctionInfo& F = idx.fn(id);
    out[F.klass.empty() ? F.name : F.klass + "::" + F.name] = e;
  }
  return out;
}

TEST(AnalyzeEffects, DirectPrimitives) {
  auto eff = effects_of(R"cpp(
namespace fix {
struct Queue {
  sync::CondVar cv;
};
int read_fd(int fd) {
  char buf[8];
  return static_cast<int>(::recv(fd, buf, sizeof(buf), 0));
}
long read_clock() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
int wait_on(Queue& q, sync::UniqueLock& lock) {
  q.cv.wait(lock);
  return 0;
}
void pause_briefly() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
int pure(int x) { return x * 2; }
}  // namespace fix
)cpp");
  EXPECT_TRUE(eff.at("read_fd").may_block);
  EXPECT_FALSE(eff.at("read_fd").reads_clock);
  EXPECT_TRUE(eff.at("read_clock").reads_clock);
  EXPECT_FALSE(eff.at("read_clock").may_block);
  EXPECT_TRUE(eff.at("wait_on").may_block);
  EXPECT_TRUE(eff.at("pause_briefly").may_block);
  EXPECT_FALSE(eff.at("pure").may_block);
  EXPECT_FALSE(eff.at("pure").reads_clock);
}

TEST(AnalyzeEffects, OneHopPropagationWithWitnessPath) {
  auto eff = effects_of(R"cpp(
namespace fix {
int leaf(int fd) {
  char buf[8];
  return static_cast<int>(::recv(fd, buf, sizeof(buf), 0));
}
int caller(int fd) { return leaf(fd); }
}  // namespace fix
)cpp");
  ASSERT_TRUE(eff.at("leaf").may_block);
  ASSERT_TRUE(eff.at("caller").may_block);
  ASSERT_FALSE(eff.at("caller").block_path.empty());
  EXPECT_EQ(eff.at("caller").block_path.front(), "leaf");
  EXPECT_NE(eff.at("caller").block_path.back().find("::recv"),
            std::string::npos);
}

// A call-graph cycle must converge with both members marked: this is the
// case memoized recursion (acquires()-style) gets wrong when the blocking
// member is visited second.
TEST(AnalyzeEffects, CyclePropagationConverges) {
  auto eff = effects_of(R"cpp(
namespace fix {
int pong(int n);
int ping(int n) {
  if (n <= 0) return 0;
  return pong(n - 1);
}
int pong(int n) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return ping(n - 1);
}
}  // namespace fix
)cpp");
  EXPECT_TRUE(eff.at("ping").may_block);
  EXPECT_TRUE(eff.at("pong").may_block);
}

TEST(AnalyzeEffects, ReceiverTypeDispatch) {
  auto eff = effects_of(R"cpp(
namespace fix {
struct Blocking {
  int poll(int fd) {
    char buf[8];
    return static_cast<int>(::recv(fd, buf, sizeof(buf), 0));
  }
};
struct Counting {
  int poll(int fd) { return fd; }
};
int uses_blocking(int fd) {
  Blocking b;
  return b.poll(fd);
}
int uses_counting(int fd) {
  Counting c;
  return c.poll(fd);
}
}  // namespace fix
)cpp");
  EXPECT_TRUE(eff.at("Blocking::poll").may_block);
  EXPECT_FALSE(eff.at("Counting::poll").may_block);
  EXPECT_TRUE(eff.at("uses_blocking").may_block);
  EXPECT_FALSE(eff.at("uses_counting").may_block);
}

// Ground truth for the may-block effect: every in-tree function the runtime
// CV watchdog has observed waiting must be marked may-block statically.
TEST(AnalyzeConsistency, RuntimeCvWaitersAreStaticallyMayBlock) {
  // Drive a workload whose threads wait on in-tree CondVars (pool workers
  // idle-wait; for_range waits for region completion when workers exist).
  std::atomic<std::int64_t> sum{0};
  darnet::parallel::parallel_for(
      0, 8192, 16, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
          sum.fetch_add(i, std::memory_order_relaxed);
      });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(8192) * 8191 / 2);

  const std::vector<std::string> waiters =
      darnet::sync::cv_wait_sites_snapshot();
#if !defined(DARNET_CHECKED)
  EXPECT_TRUE(waiters.empty());  // unchecked builds keep no wait bookkeeping
#endif

  const analyze::AnalysisResult res = analyze::analyze_tree(DARNET_REPO_ROOT);
  std::vector<std::string> may_block;
  for (const analyze::EffectEntry& e : res.effects) {
    if (e.may_block) may_block.push_back(e.symbol);
  }
  for (const std::string& pretty : waiters) {
    // Only in-tree waiters participate: the test binary itself is not under
    // an indexed directory, and its pretty names lack a darnet:: scope.
    if (pretty.find("darnet::") == std::string::npos) continue;
    bool matched = false;
    for (const std::string& sym : may_block) {
      if (pretty.find(sym) != std::string::npos) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "runtime CV waiter not statically may-block: "
                         << pretty;
  }
}

}  // namespace
