#include "tools/analyze/rules.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

namespace darnet::analyze {
namespace {

namespace fs = std::filesystem;

// Indexed for the semantic rules. Tests stay out (gtest code would confuse
// call resolution), and so do bench and tools: no rule's scope covers
// them, and indexed, they only let loose call resolution invent effect
// paths through their functions.
const std::vector<std::string> kIndexPrefixes = {"src/", "examples/"};
// Skipped entirely (deliberately-broken fixture trees).
const std::vector<std::string> kSkipPrefixes = {"tests/analyze_fixtures/"};
// Semantic rules run only on files under these prefixes. Tests and bench
// stay out of scope: test_sync contains deliberate lock inversions (death
// tests) and gtest macros defeat the approximate parser.
const std::vector<std::string> kRulePrefixes = {"src/"};
// unchecked-status additionally covers examples/ (the public API surface).
const std::vector<std::string> kStatusRulePrefixes = {"src/", "examples/"};
// unchecked-posix-io runs only where raw POSIX sockets/fds live.
const std::vector<std::string> kPosixIoPrefixes = {"src/http/"};

bool under_any(const std::string& file, const std::vector<std::string>& prefixes) {
  for (const auto& p : prefixes) {
    if (file.rfind(p, 0) == 0) return true;
  }
  return false;
}

// The documented lock hierarchy (DESIGN.md §10): acquisition must follow
// ascending rank. Names are the compile-time mutex name literals.
const std::map<std::string, int>& hierarchy_ranks() {
  static const std::map<std::string, int> ranks = {
      {"route/state", -1},  // held across per-shard snapshot flips
      {"serve/admission", 0}, {"serve/apply", 1},
      {"parallel/pool_submit", 10}, {"parallel/pool", 11},
  };
  return ranks;
}

// Mutexes documented as leaves: no lock may be acquired while holding them.
const std::set<std::string>& declared_leaves() {
  static const std::set<std::string> leaves = {"obs/registry", "obs/trace"};
  return leaves;
}

// The hot-path allocation exemption registry, read by both hot-path-alloc
// (float/double vectors in the hot-path directories) and
// hot-path-alloc-transitive (allocations reachable from the hot roots), so
// every entry's reason must hold for both. Entries match a directory prefix
// (trailing '/'), one file (any other path), or a "Class::function" /
// "function" symbol. It is hot-path-alloc's only escape hatch (per-file
// rules are never baselined); adding an entry is a reviewed change.
struct HotPathExempt {
  std::string_view match;
  std::string_view reason;
};
constexpr HotPathExempt kHotPathAllocExempt[] = {
    {"src/sync/",
     "checked-build instrumentation only; release builds alias bare std "
     "primitives with no graph bookkeeping"},
    {"src/check/",
     "DARNET_CHECKED diagnostics; compiled to unevaluated no-ops when off"},
    {"Sequential::verify_boundary",
     "entire function is #ifdef DARNET_CHECKED contract diagnostics; absent "
     "from release builds"},
    {"src/nn/metrics.hpp",
     "offline eval API: topk_accuracy takes caller-owned score vectors; only "
     "tests and the training loop call it"},
    {"src/nn/metrics.cpp", "offline eval API; see src/nn/metrics.hpp"},
};

struct Resolver {
  const Index& idx;

  const ClassInfo* klass(const std::string& name) const {
    auto it = idx.classes.find(name);
    return it == idx.classes.end() ? nullptr : &it->second;
  }

  // Declared type idents of `recv` inside F: a local/param, a member of F's
  // class, or — when `owner` is set (chained access r.x.f()) — a member `x`
  // of owner `r`'s class. nullptr when the declaration isn't visible to us.
  const std::vector<std::string>* receiver_types(
      const FunctionInfo& F, const std::string& recv,
      const std::string& owner) const {
    if (!owner.empty()) {
      for (const auto& cl : receiver_classes(F, owner, "")) {
        const ClassInfo* c = klass(cl);
        if (!c) continue;
        auto mt = c->member_types.find(recv);
        if (mt != c->member_types.end()) return &mt->second;
      }
      return nullptr;
    }
    auto lt = F.local_types.find(recv);
    if (lt != F.local_types.end()) return &lt->second;
    if (const ClassInfo* c = klass(F.klass)) {
      auto mt = c->member_types.find(recv);
      if (mt != c->member_types.end()) return &mt->second;
    }
    auto gt = idx.global_types.find(recv);
    if (gt != idx.global_types.end()) return &gt->second;
    return nullptr;
  }

  // Resolve a receiver identifier inside F to a set of candidate class names.
  std::vector<std::string> receiver_classes(const FunctionInfo& F,
                                            const std::string& recv,
                                            const std::string& owner = "") const {
    std::vector<std::string> out;
    if (recv.empty()) return out;
    if (recv == "this") {
      if (!F.klass.empty()) out.push_back(F.klass);
      return out;
    }
    const std::vector<std::string>* types = receiver_types(F, recv, owner);
    if (!types) return out;
    // Any identifier in the declared type that names an indexed class counts:
    // this is what strips smart-pointer wrappers (unique_ptr<Impl> -> Impl).
    for (const auto& t : *types) {
      if (idx.classes.count(t)) out.push_back(t);
    }
    return out;
  }

  // Strictly resolve a call site to in-tree function candidates. Receiver'd
  // calls resolve only through a known receiver class; unqualified calls see
  // same-class methods and free functions.
  std::vector<FnId> strict(const FunctionInfo& F, const CallSite& c) const {
    std::vector<FnId> out;
    auto it = idx.by_name.find(c.callee);
    if (it == idx.by_name.end()) return out;
    if (!c.receiver.empty()) {
      auto classes = receiver_classes(F, c.receiver, c.receiver_owner);
      for (FnId id : it->second) {
        const FunctionInfo& g = idx.fn(id);
        for (const auto& cl : classes) {
          if (g.klass == cl) {
            out.push_back(id);
            break;
          }
        }
      }
      return out;
    }
    if (!c.qual.empty()) {
      for (FnId id : it->second) {
        const FunctionInfo& g = idx.fn(id);
        if (g.klass == c.qual || g.klass.empty()) out.push_back(id);
      }
      return out;
    }
    for (FnId id : it->second) {
      const FunctionInfo& g = idx.fn(id);
      if (g.klass.empty() || g.klass == F.klass) out.push_back(id);
    }
    return out;
  }

  // True if we know the receiver's declared type but it names no indexed
  // class — i.e. a std/foreign type whose methods are never in-tree.
  bool receiver_is_foreign(const FunctionInfo& F, const std::string& recv,
                           const std::string& owner) const {
    if (recv.empty() || recv == "this") return false;
    const std::vector<std::string>* types = receiver_types(F, recv, owner);
    if (!types) return false;  // unknown: can't rule anything out
    for (const auto& t : *types) {
      if (idx.classes.count(t)) return false;
    }
    return true;
  }

  // Loose resolution for reachability: strict first, falling back to every
  // in-tree function with the name (over-approximation for virtual dispatch
  // through receivers whose static type we can't resolve). No fallback when
  // the receiver is known to be a foreign type (`stop_.load()` on a
  // std::atomic must not resolve to an in-tree `load`).
  std::vector<FnId> loose(const FunctionInfo& F, const CallSite& c) const {
    std::vector<FnId> out = strict(F, c);
    if (!out.empty()) return out;
    if (receiver_is_foreign(F, c.receiver, c.receiver_owner)) return out;
    auto it = idx.by_name.find(c.callee);
    if (it == idx.by_name.end()) return out;
    return it->second;
  }

  // Resolve a lock/assert site's mutex expression to the compile-time mutex
  // name literal. Empty when unresolvable.
  std::string mutex_name(const FunctionInfo& F, const std::string& last,
                         const std::string& recv, bool via_call) const {
    // Receiver-qualified member mutex: region.error_mu, impl_->mu.
    if (!recv.empty()) {
      for (const auto& cl : receiver_classes(F, recv)) {
        const ClassInfo* c = klass(cl);
        if (!c) continue;
        auto it = c->mutex_names.find(last);
        if (it != c->mutex_names.end())
          return it->second.empty() ? cl + "::" + last : it->second;
      }
    }
    // Member of the enclosing class.
    if (const ClassInfo* c = klass(F.klass)) {
      auto it = c->mutex_names.find(last);
      if (it != c->mutex_names.end())
        return it->second.empty() ? F.klass + "::" + last : it->second;
    }
    // Namespace-scope / local-static mutex by variable name.
    for (const auto& fm : idx.free_mutexes) {
      if (fm.var == last && fm.enclosing_function.empty())
        return fm.name_literal.empty() ? last : fm.name_literal;
    }
    // Mutex-factory call: sync::Lock lock(trace_mu());
    if (via_call) {
      for (const auto& fm : idx.free_mutexes) {
        if (fm.enclosing_function == last)
          return fm.name_literal.empty() ? last : fm.name_literal;
      }
    }
    // Local mutex declared in this function.
    for (const auto& fm : idx.free_mutexes) {
      if (fm.var == last && fm.enclosing_function == F.name)
        return fm.name_literal.empty() ? last : fm.name_literal;
    }
    return "";
  }
};

std::string symbol_of(const FunctionInfo& F) {
  return F.klass.empty() ? F.name : F.klass + "::" + F.name;
}

// --- effect primitives ------------------------------------------------------

// If call site `c` inside F is a blocking primitive, return a short
// description ("CondVar::wait", "::recv", ...); empty string otherwise.
std::string blocking_primitive(const Resolver& R, const FunctionInfo& F,
                               const CallSite& c) {
  static const std::set<std::string> kWaits = {"wait", "wait_for",
                                               "wait_until"};
  static const std::set<std::string> kSleeps = {"sleep_for", "sleep_until"};
  static const std::set<std::string> kSockets = {"send", "recv", "accept"};
  auto type_mentions = [&](std::string_view needle) {
    const std::vector<std::string>* types =
        R.receiver_types(F, c.receiver, c.receiver_owner);
    if (!types) return false;
    for (const auto& t : *types) {
      if (t.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  if (kWaits.count(c.callee) && !c.receiver.empty() &&
      (type_mentions("CondVar") || type_mentions("condition_variable")))
    return "CondVar::" + c.callee;
  if (kSockets.count(c.callee) && c.global_qual) return "::" + c.callee;
  if (c.callee == "get" && !c.receiver.empty() && type_mentions("future"))
    return "std::future::get";
  if (kSleeps.count(c.callee)) return "std::this_thread::" + c.callee;
  // A join with no in-tree strict resolution is a raw std::thread join;
  // in-tree joins (e.g. ServiceThread::join) propagate through the fixpoint.
  if (c.callee == "join" && !c.receiver.empty() && R.strict(F, c).empty())
    return "thread join";
  return "";
}

// Direct wall-clock read: `steady_clock::now()` and friends, including the
// tree-wide `using Clock = std::chrono::steady_clock` alias.
bool clock_read(const CallSite& c) {
  static const std::set<std::string> kClockQuals = {
      "steady_clock", "system_clock", "high_resolution_clock", "Clock"};
  return c.callee == "now" && kClockQuals.count(c.qual) > 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Interprocedural effect analysis.
// ---------------------------------------------------------------------------

std::map<FnId, Effects> compute_effects(const Index& idx) {
  Resolver R{idx};
  // 0 = no effect, 1 = direct primitive, 2 = via a strictly-resolved callee.
  struct Node {
    int block = 0;
    int clock = 0;
    std::string block_prim, clock_prim;  // direct primitive descriptions
    FnId block_via{-1, -1}, clock_via{-1, -1};
  };
  std::map<FnId, Node> nodes;
  std::map<FnId, std::vector<FnId>> callees;

  for (size_t fi = 0; fi < idx.files.size(); ++fi) {
    const FileIndex& fx = idx.files[fi];
    for (size_t gi = 0; gi < fx.functions.size(); ++gi) {
      FnId id{static_cast<int>(fi), static_cast<int>(gi)};
      const FunctionInfo& F = fx.functions[gi];
      Node& n = nodes[id];
      std::set<FnId> outs;
      for (const auto& c : F.calls) {
        // A method call on an expression receiver (`a.b().f()`) is
        // unresolvable; treating it as an unqualified call would bind it to
        // unrelated same-name free functions, so skip it entirely.
        if (c.method_like && c.receiver.empty()) continue;
        std::string prim = blocking_primitive(R, F, c);
        if (!prim.empty() && n.block == 0) {
          n.block = 1;
          n.block_prim = prim + " at " + F.file + ":" + std::to_string(c.line);
        }
        if (clock_read(c) && n.clock == 0) {
          n.clock = 1;
          n.clock_prim = c.qual + "::now() at " + F.file + ":" +
                         std::to_string(c.line);
        }
        for (FnId g : R.strict(F, c)) {
          if (g != id) outs.insert(g);
        }
      }
      callees[id].assign(outs.begin(), outs.end());
    }
  }

  // Fixpoint: effects flow from callees to callers until stable. Cycles in
  // the call graph converge because the state is monotone (an effect, once
  // set, never clears); memoized recursion à la acquires() would be
  // order-dependent on cycles, so it is deliberately not used here.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [id, n] : nodes) {
      for (FnId g : callees[id]) {
        const Node& m = nodes[g];
        if (n.block == 0 && m.block != 0) {
          n.block = 2;
          n.block_via = g;
          changed = true;
        }
        if (n.clock == 0 && m.clock != 0) {
          n.clock = 2;
          n.clock_via = g;
          changed = true;
        }
      }
    }
  }

  // Materialize witness chains. A via-link always points at a node whose own
  // chain was complete when the link was created, so the walk terminates.
  std::map<FnId, Effects> out;
  for (const auto& [id, n] : nodes) {
    Effects e;
    e.may_block = n.block != 0;
    e.reads_clock = n.clock != 0;
    if (e.may_block) {
      FnId cur = id;
      while (nodes.at(cur).block == 2) {
        cur = nodes.at(cur).block_via;
        e.block_path.push_back(symbol_of(idx.fn(cur)));
      }
      e.block_path.push_back(nodes.at(cur).block_prim);
    }
    if (e.reads_clock) {
      FnId cur = id;
      while (nodes.at(cur).clock == 2) {
        cur = nodes.at(cur).clock_via;
        e.clock_path.push_back(symbol_of(idx.fn(cur)));
      }
      e.clock_path.push_back(nodes.at(cur).clock_prim);
    }
    out[id] = std::move(e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule 1: static lock-order extraction.
// ---------------------------------------------------------------------------

void rule_lock_order(const Index& idx, std::vector<LockEdge>& edges,
                     std::vector<Finding>& findings) {
  Resolver R{idx};

  // acquires*(f): every mutex name f may acquire, directly or via (strictly
  // resolved) callees. Memoized; cycles in the call graph terminate because
  // in-progress nodes return their partial (possibly empty) set.
  std::map<FnId, std::set<std::string>> memo;
  std::set<FnId> in_progress;
  std::function<const std::set<std::string>&(FnId)> acquires =
      [&](FnId id) -> const std::set<std::string>& {
    auto it = memo.find(id);
    if (it != memo.end()) return it->second;
    auto& slot = memo[id];
    if (!in_progress.insert(id).second) return slot;
    const FunctionInfo& F = idx.fn(id);
    for (const auto& l : F.locks) {
      std::string name = R.mutex_name(F, l.mutex_expr_last, l.receiver, l.via_call);
      if (!name.empty()) slot.insert(name);
    }
    for (const auto& c : F.calls) {
      for (FnId g : R.strict(F, c)) {
        if (g == id) continue;
        const auto& sub = acquires(g);
        slot.insert(sub.begin(), sub.end());
      }
    }
    in_progress.erase(id);
    return slot;
  };

  std::map<std::pair<std::string, std::string>, size_t> seen;  // -> edge idx
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const std::string& file, int line, const std::string& via) {
    auto key = std::make_pair(from, to);
    if (seen.count(key)) return;
    seen[key] = edges.size();
    edges.push_back(LockEdge{from, to, file, line, via});
  };

  for (size_t fi = 0; fi < idx.files.size(); ++fi) {
    const FileIndex& fx = idx.files[fi];
    if (!under_any(fx.lex.path, kRulePrefixes)) continue;
    for (size_t gi = 0; gi < fx.functions.size(); ++gi) {
      const FunctionInfo& F = fx.functions[gi];
      for (const auto& outer : F.locks) {
        std::string from =
            R.mutex_name(F, outer.mutex_expr_last, outer.receiver, outer.via_call);
        if (from.empty()) continue;
        // Directly nested acquisitions.
        for (const auto& inner : F.locks) {
          if (inner.tok <= outer.tok || inner.tok >= outer.scope_end) continue;
          std::string to =
              R.mutex_name(F, inner.mutex_expr_last, inner.receiver, inner.via_call);
          if (!to.empty()) add_edge(from, to, F.file, inner.line, symbol_of(F));
        }
        // Acquisitions reached through calls made under the lock.
        for (const auto& c : F.calls) {
          if (c.tok <= outer.tok || c.tok >= outer.scope_end) continue;
          for (FnId g : R.strict(F, c)) {
            for (const auto& to : acquires(g)) {
              add_edge(from, to, F.file, c.line,
                       symbol_of(F) + " -> " + symbol_of(idx.fn(g)));
            }
          }
        }
      }
    }
  }

  // (a) Self edges (same mutex re-acquired under itself).
  for (const auto& e : edges) {
    if (e.from == e.to) {
      findings.push_back(Finding{
          "lock-order", e.file, e.line, e.from,
          "mutex '" + e.from + "' may be acquired while already held (via " +
              e.via + ")"});
    }
  }

  // (b) Documented-hierarchy violations.
  const auto& ranks = hierarchy_ranks();
  for (const auto& e : edges) {
    auto rf = ranks.find(e.from);
    auto rt = ranks.find(e.to);
    if (rf != ranks.end() && rt != ranks.end() && rf->second > rt->second &&
        rf->second / 10 == rt->second / 10) {
      findings.push_back(Finding{
          "lock-order", e.file, e.line, e.from + " -> " + e.to,
          "acquiring '" + e.to + "' while holding '" + e.from +
              "' contradicts the documented hierarchy (DESIGN.md §10: " +
              e.to + " must be taken before " + e.from + "); via " + e.via});
    }
  }

  // (c) Declared leaves must have no outgoing edges.
  for (const auto& e : edges) {
    if (e.from == e.to) continue;
    if (declared_leaves().count(e.from)) {
      findings.push_back(Finding{
          "lock-order", e.file, e.line, e.from + " -> " + e.to,
          "'" + e.from + "' is documented as a leaf lock but '" + e.to +
              "' is acquired while it is held; via " + e.via});
    }
  }

  // (d) Cycles (beyond self edges) in the full static graph.
  std::map<std::string, std::vector<size_t>> adj;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].from != edges[i].to) adj[edges[i].from].push_back(i);
  }
  std::set<std::string> done;
  std::vector<std::string> path;
  std::set<std::string> on_path;
  bool reported = false;
  std::function<void(const std::string&)> dfs = [&](const std::string& n) {
    if (reported || done.count(n)) return;
    on_path.insert(n);
    path.push_back(n);
    for (size_t ei : adj[n]) {
      const auto& e = edges[ei];
      if (on_path.count(e.to)) {
        std::ostringstream cyc;
        for (auto it = std::find(path.begin(), path.end(), e.to);
             it != path.end(); ++it)
          cyc << *it << " -> ";
        cyc << e.to;
        findings.push_back(Finding{
            "lock-order", e.file, e.line, "cycle",
            "static lock-order cycle: " + cyc.str() + " (closing edge via " +
                e.via + ")"});
        reported = true;
        break;
      }
      dfs(e.to);
    }
    path.pop_back();
    on_path.erase(n);
    done.insert(n);
  };
  for (const auto& [n, _] : adj) dfs(n);
}

// ---------------------------------------------------------------------------
// Rule 2: guarded-by access checking.
// ---------------------------------------------------------------------------

void rule_guarded_by(const Index& idx, std::vector<Finding>& findings) {
  Resolver R{idx};
  // guarded member name -> owning classes (name collisions across classes are
  // disambiguated through the receiver / enclosing class below).
  std::map<std::string, std::vector<const ClassInfo*>> guarded;
  for (const auto& [name, c] : idx.classes) {
    for (const auto& [member, guard] : c.guards) {
      (void)guard;
      guarded[member].push_back(&c);
    }
  }
  if (guarded.empty()) return;

  for (const auto& fx : idx.files) {
    if (!under_any(fx.lex.path, kRulePrefixes)) continue;
    const auto& T = fx.lex.tokens;
    for (const auto& F : fx.functions) {
      if (F.ctor_dtor) continue;  // exclusive access during construction
      for (size_t j = F.body_begin + 1; j < F.body_end; ++j) {
        if (T[j].kind != Tok::kIdent) continue;
        auto git = guarded.find(T[j].text);
        if (git == guarded.end()) continue;
        if (j + 1 < T.size() && is_punct(T[j + 1], "(")) continue;  // a call
        if (j > 0 && is_punct(T[j - 1], "::")) continue;  // qualified name
        bool via_receiver =
            j >= 2 && (is_punct(T[j - 1], ".") || is_punct(T[j - 1], "->")) &&
            T[j - 2].kind == Tok::kIdent;
        std::string recv = via_receiver ? T[j - 2].text : "";
        if (!via_receiver && (is_punct(T[j - 1], ".") || is_punct(T[j - 1], "->")))
          continue;  // receiver is an expression we can't resolve
        // Which owning class does this access refer to?
        const ClassInfo* owner = nullptr;
        if (via_receiver && recv != "this") {
          for (const auto& cl : R.receiver_classes(F, recv)) {
            for (const ClassInfo* c : git->second) {
              if (c->name == cl) owner = c;
            }
          }
        } else {
          // Bare member (or this->member) of the enclosing class — unless a
          // local declaration shadows the name.
          if (!via_receiver && F.local_types.count(T[j].text)) continue;
          for (const ClassInfo* c : git->second) {
            if (c->name == F.klass) owner = c;
          }
        }
        if (!owner) continue;  // unresolvable or different class: skip
        const std::string& guard = owner->guards.at(T[j].text);
        bool held = false;
        for (const auto& l : F.locks) {
          if (l.mutex_expr_last == guard && l.tok < j && j < l.scope_end) {
            held = true;
            break;
          }
        }
        if (!held) {
          for (const auto& a : F.asserts) {
            if (!a.not_held && a.mutex_expr_last == guard && a.tok < j) {
              held = true;
              break;
            }
          }
        }
        if (!held) {
          findings.push_back(Finding{
              "guarded-by", F.file, T[j].line,
              owner->name + "::" + T[j].text,
              "access to '" + owner->name + "::" + T[j].text +
                  "' (DARNET_GUARDED_BY(" + guard + ")) in " + symbol_of(F) +
                  " with no live sync::Lock on '" + guard +
                  "' and no dominating DARNET_ASSERT_HELD"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: transitive hot-path allocation.
// ---------------------------------------------------------------------------

bool hot_path_alloc_exempt(const std::string& file, const FunctionInfo* fn) {
  for (const auto& e : kHotPathAllocExempt) {
    const std::string_view m = e.match;
    if (m.find('/') != std::string_view::npos) {
      if (m.back() == '/' ? file.starts_with(m) : file == m) return true;
    } else if (fn && (symbol_of(*fn) == m || fn->name == m)) {
      return true;
    }
  }
  return false;
}

namespace {

const std::set<std::string>& growth_calls() {
  static const std::set<std::string> g = {"push_back", "emplace_back",
                                          "resize", "insert", "emplace",
                                          "append"};
  return g;
}

}  // namespace

void rule_hot_path_alloc(const Index& idx, std::vector<Finding>& findings) {
  Resolver R{idx};
  static const std::set<std::string> kRoots = {
      "classify_batch", "classify_batch_degraded", "worker_loop",
      "execute_batch"};

  // BFS from the roots over the loosely-resolved call graph, restricted to
  // src/ and stopping at exempt functions/subsystems.
  std::map<FnId, std::pair<FnId, std::string>> parent;  // node -> (pred, root)
  std::deque<FnId> queue;
  for (const auto& [name, ids] : idx.by_name) {
    if (!kRoots.count(name)) continue;
    for (FnId id : ids) {
      const FunctionInfo& F = idx.fn(id);
      if (!under_any(F.file, kRulePrefixes)) continue;
      if (!parent.count(id)) {
        parent[id] = {id, symbol_of(F)};
        queue.push_back(id);
      }
    }
  }
  while (!queue.empty()) {
    FnId id = queue.front();
    queue.pop_front();
    const FunctionInfo& F = idx.fn(id);
    if (hot_path_alloc_exempt(F.file, &F)) continue;  // don't look inside
    for (const auto& c : F.calls) {
      for (FnId g : R.loose(F, c)) {
        const FunctionInfo& G = idx.fn(g);
        if (!under_any(G.file, kRulePrefixes)) continue;
        if (parent.count(g)) continue;
        parent[g] = {id, parent[id].second};
        queue.push_back(g);
      }
    }
  }

  auto path_to = [&](FnId id) {
    std::vector<std::string> rev;
    FnId cur = id;
    while (true) {
      rev.push_back(symbol_of(idx.fn(cur)));
      FnId p = parent[cur].first;
      if (p == cur) break;
      cur = p;
    }
    std::ostringstream os;
    for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
      if (it != rev.rbegin()) os << " -> ";
      os << *it;
    }
    return os.str();
  };

  for (const auto& [id, link] : parent) {
    const FunctionInfo& F = idx.fn(id);
    if (hot_path_alloc_exempt(F.file, &F)) continue;
    for (const auto& a : F.allocs) {
      findings.push_back(Finding{
          "hot-path-alloc-transitive", F.file, a.line, symbol_of(F),
          a.what + " reachable from the inference hot path: " + path_to(id)});
    }
    for (const auto& c : F.calls) {
      if (!growth_calls().count(c.callee)) continue;
      // In-tree functions with these names (e.g. a ring buffer's own
      // emplace) are traversed by the BFS instead of flagged here.
      if (!R.loose(F, c).empty()) continue;
      findings.push_back(Finding{
          "hot-path-alloc-transitive", F.file, c.line, symbol_of(F),
          "container growth ('" + c.callee +
              "') reachable from the inference hot path: " + path_to(id)});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 4: unchecked Admit/Status return values.
// ---------------------------------------------------------------------------

void rule_unchecked_status(const Index& idx, std::vector<Finding>& findings) {
  Resolver R{idx};
  // In-tree functions whose return type mentions Admit or Status.
  std::set<std::string> status_names;
  for (const auto& fx : idx.files) {
    for (const auto& F : fx.functions) {
      for (const auto& t : F.return_type) {
        if (t == "Admit" || t == "Status") {
          status_names.insert(F.name);
          break;
        }
      }
    }
  }
  if (status_names.empty()) return;

  for (const auto& fx : idx.files) {
    if (!under_any(fx.lex.path, kStatusRulePrefixes)) continue;
    const auto& T = fx.lex.tokens;
    for (const auto& F : fx.functions) {
      for (const auto& c : F.calls) {
        if (!status_names.count(c.callee)) continue;
        bool returns_status = false;
        for (FnId g : R.loose(F, c)) {
          for (const auto& t : idx.fn(g).return_type) {
            if (t == "Admit" || t == "Status") returns_status = true;
          }
        }
        if (!returns_status) continue;
        // Walk back over the call chain (receiver/qualifier) to its head.
        size_t head = c.tok;
        while (head >= 2 &&
               (is_punct(T[head - 1], ".") || is_punct(T[head - 1], "->") ||
                is_punct(T[head - 1], "::")) &&
               T[head - 2].kind == Tok::kIdent) {
          head -= 2;
        }
        if (head == 0) continue;
        const Token& before = T[head - 1];
        bool statement_start =
            before.kind == Tok::kPunct &&
            (before.text == ";" || before.text == "{" || before.text == "}");
        if (!statement_start) continue;
        size_t close = match_forward(T, c.tok + 1, "(", ")");
        if (close + 1 >= T.size() || !is_punct(T[close + 1], ";")) continue;
        findings.push_back(Finding{
            "unchecked-status", F.file, T[c.tok].line, c.callee,
            "return value of '" + c.callee +
                "' (Admit/Status) is discarded; check it or cast to void "
                "explicitly"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 5: blocking-under-lock (interprocedural).
// ---------------------------------------------------------------------------

namespace {

// blocking-under-lock exemption registry: same shape and shrink-only
// semantics as kHotPathAllocExempt. Entries match a "Class::function" symbol
// or a file-path prefix (trailing '/'); each carries the reviewed reason the
// may-block call under the lock is intended. Block-free-tier mutexes
// (route/*) can NOT be exempted here — only the baseline can suppress those,
// and shrinking it back is the expected direction.
struct BlockingExempt {
  std::string_view match;
  std::string_view reason;
};
constexpr BlockingExempt kBlockingExempt[] = {
    {"ThreadPool::for_range",
     "parallel/pool_submit exists to serialize entire regions; waiting for "
     "region completion while holding it IS the guarded work (DESIGN.md §10)"},
};

bool blocking_exempt(const FunctionInfo& F) {
  std::string sym = symbol_of(F);
  for (const auto& e : kBlockingExempt) {
    std::string m(e.match);
    bool hit = (!m.empty() && m.back() == '/') ? F.file.rfind(m, 0) == 0
                                               : (sym == m || F.name == m);
    if (hit) return true;
  }
  return false;
}

// route/* mutexes guard RCU-style reader sections: entirely block-free tier.
bool block_free_tier(const std::string& mutex_name) {
  return mutex_name.rfind("route/", 0) == 0;
}

std::string tier_suffix(bool tier0) {
  return tier0 ? " — 'route/*' is block-free tier: RCU reader sections must "
                 "never block (DESIGN.md §10)"
               : "";
}

}  // namespace

void rule_blocking_under_lock(const Index& idx,
                              const std::map<FnId, Effects>& effects,
                              std::vector<Finding>& findings) {
  Resolver R{idx};
  static const std::set<std::string> kWaits = {"wait", "wait_for",
                                               "wait_until"};
  for (const auto& fx : idx.files) {
    if (!under_any(fx.lex.path, kRulePrefixes)) continue;
    const auto& T = fx.lex.tokens;
    for (const auto& F : fx.functions) {
      const bool exempt_fn = blocking_exempt(F);
      for (const auto& L : F.locks) {
        std::string name =
            R.mutex_name(F, L.mutex_expr_last, L.receiver, L.via_call);
        const std::string shown = name.empty() ? L.mutex_expr_last : name;
        const bool tier0 = block_free_tier(name);
        if (exempt_fn && !tier0) continue;
        for (const auto& c : F.calls) {
          if (c.tok <= L.tok || c.tok >= L.scope_end) continue;
          if (c.method_like && c.receiver.empty()) continue;  // see
          // compute_effects: expression receivers are unresolvable
          std::string prim = blocking_primitive(R, F, c);
          if (!prim.empty()) {
            // A CV wait whose first argument is this guard variable releases
            // the lock for the duration of the wait — that is the one blessed
            // way to block "under" a lock.
            if (kWaits.count(c.callee) && c.tok + 2 < T.size() &&
                is_ident(T[c.tok + 2], L.var))
              continue;
            findings.push_back(Finding{
                "blocking-under-lock", F.file, c.line, symbol_of(F),
                "'" + prim + "' may block while '" + shown + "' is held in " +
                    symbol_of(F) + tier_suffix(tier0)});
            continue;  // the direct site is the report; don't re-report the
                       // same wait through the callee's own effect
          }
          for (FnId g : R.strict(F, c)) {
            auto it = effects.find(g);
            if (it == effects.end() || !it->second.may_block) continue;
            std::ostringstream path;
            path << symbol_of(F) << " -> " << symbol_of(idx.fn(g));
            for (const auto& hop : it->second.block_path) path << " -> " << hop;
            findings.push_back(Finding{
                "blocking-under-lock", F.file, c.line, symbol_of(F),
                "call to '" + symbol_of(idx.fn(g)) +
                    "' may block while '" + shown + "' is held in " +
                    symbol_of(F) + "; path: " + path.str() +
                    tier_suffix(tier0)});
            break;  // one witness per call site is enough
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 6: time-source purity.
// ---------------------------------------------------------------------------

namespace {

// Whitelisted wall-clock seams. Entries match a file-path prefix (trailing
// '/'), a class prefix (trailing "::"), or an exact "Class::function" /
// "function" symbol. Everything else must route through serve::TimeSource
// (or sim::VirtualTimeSource) so the tree stays virtual-time-drivable.
struct TimeSeam {
  std::string_view match;
  std::string_view reason;
};
constexpr TimeSeam kTimeSourceSeams[] = {
    {"src/obs/",
     "observability epoch and trace timestamps; never feed scheduling"},
    {"src/sync/",
     "checked-build watchdog deadlines; compiled out of release builds"},
    {"Stopwatch::", "util::Stopwatch is itself a measurement seam"},
    {"Server::clock_now", "the serve::TimeSource injection seam"},
    {"Router::clock_now", "the serve::TimeSource injection seam"},
    {"HttpServer::clock_now", "the serve::TimeSource injection seam"},
};

bool time_seam(const FunctionInfo& F) {
  const std::string sym = symbol_of(F);
  for (const auto& e : kTimeSourceSeams) {
    const std::string m(e.match);
    bool hit = false;
    if (!m.empty() && m.back() == '/') {
      hit = F.file.rfind(m, 0) == 0;
    } else if (m.size() >= 2 && m.compare(m.size() - 2, 2, "::") == 0) {
      hit = sym.rfind(m, 0) == 0;
    } else {
      hit = sym == m || F.name == m;
    }
    if (hit) return true;
  }
  return false;
}

}  // namespace

void rule_time_source_purity(const Index& idx,
                             std::vector<Finding>& findings) {
  for (const auto& fx : idx.files) {
    if (!under_any(fx.lex.path, kRulePrefixes)) continue;
    for (const auto& F : fx.functions) {
      if (time_seam(F)) continue;
      for (const auto& c : F.calls) {
        if (!clock_read(c)) continue;
        findings.push_back(Finding{
            "time-source-purity", F.file, c.line, symbol_of(F),
            "direct wall-clock read ('" + c.qual + "::now()') in " +
                symbol_of(F) +
                "; route through serve::TimeSource or a whitelisted seam "
                "(docs/STATIC_ANALYSIS.md)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 7: unchecked POSIX I/O status.
// ---------------------------------------------------------------------------

void rule_unchecked_posix_io(const Index& idx,
                             std::vector<Finding>& findings) {
  static const std::set<std::string> kPosix = {"send", "recv", "accept",
                                               "close"};
  for (const auto& fx : idx.files) {
    if (!under_any(fx.lex.path, kPosixIoPrefixes)) continue;
    const auto& T = fx.lex.tokens;
    for (const auto& F : fx.functions) {
      for (const auto& c : F.calls) {
        if (!c.global_qual || !kPosix.count(c.callee)) continue;
        // Statement head is the leading '::' (same shape as unchecked-status:
        // the call must be a bare discarded statement).
        const size_t head = c.tok - 1;
        if (head == 0) continue;
        const Token& before = T[head - 1];
        const bool statement_start =
            before.kind == Tok::kPunct &&
            (before.text == ";" || before.text == "{" || before.text == "}");
        if (!statement_start) continue;
        size_t close = match_forward(T, c.tok + 1, "(", ")");
        if (close + 1 >= T.size() || !is_punct(T[close + 1], ";")) continue;
        findings.push_back(Finding{
            "unchecked-posix-io", F.file, T[c.tok].line, c.callee,
            "return value of '::" + c.callee +
                "' (ssize_t/fd status) is discarded; check it or cast to "
                "void explicitly"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

AnalysisResult analyze_tree(const fs::path& root) {
  AnalysisResult res;
  Index idx;
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
    fs::path d = root / dir;
    if (!fs::exists(d)) continue;
    for (const auto& ent : fs::recursive_directory_iterator(d)) {
      if (!ent.is_regular_file()) continue;
      auto ext = ent.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc")
        continue;
      files.push_back(ent.path());
    }
  }
  std::sort(files.begin(), files.end());
  DocUses uses;
  for (const auto& p : files) {
    std::string rel = fs::relative(p, root).generic_string();
    if (under_any(rel, kSkipPrefixes)) continue;
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      res.findings.push_back(
          Finding{"io-error", rel, 0, "", "cannot open file"});
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    ++res.files_checked;
    LexedFile lexed = lex(ss.str(), rel);
    if (!under_any(rel, kIndexPrefixes)) {
      check_file(lexed, {}, uses, res.findings);
      continue;
    }
    index_file(idx, std::move(lexed));
    check_file(idx.files.back().lex, idx.files.back().functions, uses,
               res.findings);
  }
  check_doc_contracts(root, uses, res.findings);
  res.files_indexed = static_cast<int>(idx.files.size());
  for (const auto& fx : idx.files)
    res.functions_indexed += static_cast<int>(fx.functions.size());

  rule_lock_order(idx, res.lock_edges, res.findings);
  rule_guarded_by(idx, res.findings);
  rule_hot_path_alloc(idx, res.findings);
  rule_unchecked_status(idx, res.findings);

  const std::map<FnId, Effects> effects = compute_effects(idx);
  rule_blocking_under_lock(idx, effects, res.findings);
  rule_time_source_purity(idx, res.findings);
  rule_unchecked_posix_io(idx, res.findings);

  for (const auto& [id, e] : effects) {
    if (!e.may_block && !e.reads_clock) continue;
    const FunctionInfo& F = idx.fn(id);
    res.effects.push_back(EffectEntry{symbol_of(F), F.file, F.line,
                                      e.may_block, e.reads_clock,
                                      e.block_path, e.clock_path});
  }
  std::sort(res.effects.begin(), res.effects.end(),
            [](const EffectEntry& a, const EffectEntry& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.symbol < b.symbol;
            });

  // Dedupe (e.g. two accesses of the same guarded member in one statement).
  sort_findings(res.findings);
  res.findings.erase(
      std::unique(res.findings.begin(), res.findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return a.rule == b.rule && a.file == b.file &&
                           a.line == b.line && a.symbol == b.symbol &&
                           a.message == b.message;
                  }),
      res.findings.end());
  return res;
}

}  // namespace darnet::analyze
