// darnet::sync checked-build machinery: per-thread held-lock stack, global
// lock-order graph with cycle detection, and the CondVar wait watchdog.
//
// Design notes (why this file looks the way it does):
//
//   * The held-lock stack is plain-old-data thread_local storage (fixed
//     array + count, no destructor), so locks taken or released during
//     static/thread-local destruction never touch a dead vector.
//   * The lock-order graph and its mutex are immortalised (allocated once,
//     never destroyed) for the same reason. g_graph-guarding uses a *raw*
//     std::mutex deliberately: the checker must not recurse into itself.
//   * Metric emission (sync/lock_wait_us, sync/order_edges_total) caches
//     registry handles in atomics. Registration takes the obs registry
//     mutex -- which is itself a sync::Mutex after the PR-5 migration -- so
//     emission (a) only registers when the thread is not already inside an
//     emission and holds no obs/* lock, and (b) always happens after the
//     graph mutex is released. Once cached, Counter::add and
//     Histogram::record are lock-free and unconditionally safe.

#include "sync/sync.hpp"

#if defined(DARNET_CHECKED)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace darnet::sync {
namespace {

// -- failure -----------------------------------------------------------------

[[noreturn]] void fail_msg(const std::string& message) {
  const std::string line = "darnet::sync failure: " + message + "\n";
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
  std::abort();
}

[[nodiscard]] std::string site(const char* file, unsigned line) {
  return std::string(file ? file : "?") + ":" + std::to_string(line);
}

// -- per-thread held-lock stack (POD storage: survives TLS destruction) ------

struct HeldEntry {
  const Mutex* mu;
  const char* name;
  const char* file;
  unsigned line;
};

constexpr int kMaxHeld = 64;
thread_local HeldEntry t_held[kMaxHeld];
thread_local int t_held_count = 0;
thread_local bool t_in_emit = false;

void push_held(const Mutex& mu, const char* file, unsigned line) {
  if (t_held_count >= kMaxHeld) {
    fail_msg("held-lock stack overflow (more than 64 locks held) acquiring "
             "\"" +
             std::string(mu.name()) + "\" at " + site(file, line));
  }
  t_held[t_held_count++] = HeldEntry{&mu, mu.name(), file, line};
}

[[nodiscard]] int find_held(const Mutex& mu) {
  for (int i = t_held_count - 1; i >= 0; --i) {
    if (t_held[i].mu == &mu) return i;
  }
  return -1;
}

// -- global lock-order graph (immortal; name-keyed) --------------------------

struct EdgeSite {
  // Where the holder (edge source) was locked, and where the acquisition
  // (edge target) happened, the first time this edge was observed.
  const char* holder_file;
  unsigned holder_line;
  const char* acquire_file;
  unsigned acquire_line;
};

using EdgeMap = std::map<std::string, std::map<std::string, EdgeSite,
                                               std::less<>>,
                         std::less<>>;

std::mutex& graph_mu() {
  static std::mutex* mu = new std::mutex;  // immortal: see header comment
  return *mu;
}

EdgeMap& edges() {
  static EdgeMap* m = new EdgeMap;  // immortal
  return *m;
}

std::atomic<std::uint64_t> g_edge_count{0};

// Depth-first reachability over edges(); requires graph_mu() held. When
// `to` is reachable from `from`, returns the first edge out of `from` on
// the discovered path (for abort-message attribution).
[[nodiscard]] const EdgeSite* find_path(std::string_view from,
                                        std::string_view to,
                                        std::string* via) {
  const EdgeMap& graph = edges();
  const auto from_it = graph.find(from);
  if (from_it == graph.end()) return nullptr;
  // Direct edge first: the common AB/BA inversion reports exactly the
  // prior conflicting acquisition.
  const auto direct = from_it->second.find(to);
  if (direct != from_it->second.end()) {
    *via = std::string(to);
    return &direct->second;
  }
  for (const auto& [next, edge_site] : from_it->second) {
    // Bounded DFS through intermediates (graphs here are tiny).
    std::string ignored;
    if (next == from) continue;
    if (find_path(next, to, &ignored) != nullptr) {
      *via = next;
      return &edge_site;
    }
  }
  return nullptr;
}

// -- metric emission (checked builds only; cached lock-free handles) ---------

std::atomic<obs::Histogram*> g_lock_wait_hist{nullptr};
std::atomic<obs::Counter*> g_order_edges{nullptr};

[[nodiscard]] bool safe_to_register() {
  if (t_in_emit) return false;
  for (int i = 0; i < t_held_count; ++i) {
    // Registering takes the obs registry lock; never attempt it while any
    // obs/* lock is already held by this thread.
    if (std::strncmp(t_held[i].name, "obs/", 4) == 0) return false;
  }
  return true;
}

void emit_lock_wait_us(std::int64_t us) {
#ifdef DARNET_OBS
  obs::Histogram* hist = g_lock_wait_hist.load(std::memory_order_acquire);
  if (hist == nullptr) {
    if (!safe_to_register()) return;
    t_in_emit = true;
    hist = &obs::registry().histogram("sync/lock_wait_us");
    t_in_emit = false;
    g_lock_wait_hist.store(hist, std::memory_order_release);
  }
  hist->record(static_cast<std::uint64_t>(us < 0 ? 0 : us));
#else
  static_cast<void>(us);
#endif
}

void emit_order_edges(int count) {
#ifdef DARNET_OBS
  obs::Counter* counter = g_order_edges.load(std::memory_order_acquire);
  if (counter == nullptr) {
    if (!safe_to_register()) return;
    t_in_emit = true;
    counter = &obs::registry().counter("sync/order_edges_total");
    t_in_emit = false;
    g_order_edges.store(counter, std::memory_order_release);
  }
  counter->add(static_cast<std::uint64_t>(count));
#else
  static_cast<void>(count);
#endif
}

// -- watchdog configuration --------------------------------------------------

std::atomic<std::int64_t> g_watch_bound_us{0};
std::atomic<bool> g_watch_fatal{false};
std::atomic<std::uint64_t> g_watch_trips{0};
std::once_flag g_watch_env_once;

void watchdog_env_init() {
  std::call_once(g_watch_env_once, [] {
    if (const char* bound = std::getenv("DARNET_SYNC_WAIT_BOUND_US")) {
      g_watch_bound_us.store(std::atoll(bound), std::memory_order_relaxed);
    }
    if (const char* fatal = std::getenv("DARNET_SYNC_WAIT_FATAL")) {
      g_watch_fatal.store(fatal[0] != '\0' && fatal[0] != '0',
                          std::memory_order_relaxed);
    }
  });
}

}  // namespace

// -- public checked API ------------------------------------------------------

void set_wait_watchdog(WatchdogConfig config) noexcept {
  watchdog_env_init();  // later set_wait_watchdog overrides the env
  g_watch_bound_us.store(config.bound_us, std::memory_order_relaxed);
  g_watch_fatal.store(config.fatal, std::memory_order_relaxed);
}

WatchdogConfig wait_watchdog() noexcept {
  watchdog_env_init();
  return WatchdogConfig{g_watch_bound_us.load(std::memory_order_relaxed),
                        g_watch_fatal.load(std::memory_order_relaxed)};
}

std::uint64_t watchdog_trips() noexcept {
  return g_watch_trips.load(std::memory_order_relaxed);
}

bool held_by_current_thread(const Mutex& mu) noexcept {
  return find_held(mu) >= 0;
}

int held_count() noexcept { return t_held_count; }

std::uint64_t order_edge_count() noexcept {
  return g_edge_count.load(std::memory_order_relaxed);
}

std::vector<OrderEdge> order_graph_snapshot() {
  std::vector<OrderEdge> out;
  std::lock_guard<std::mutex> lock(graph_mu());
  for (const auto& [from, row] : edges()) {
    for (const auto& [to, site] : row) {
      out.push_back(OrderEdge{from, to, site.acquire_file, site.acquire_line});
    }
  }
  return out;  // EdgeMap iteration is already (from, to)-sorted
}

void reset_order_graph_for_test() noexcept {
  std::lock_guard<std::mutex> lock(graph_mu());
  edges().clear();
  g_edge_count.store(0, std::memory_order_relaxed);
}

namespace {

// CV-wait site registry (immortal, like the order graph): every function the
// watchdog has seen enter a CondVar wait, by pretty name.
std::mutex& wait_sites_mu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::set<std::string>& wait_sites() {
  static auto* sites = new std::set<std::string>;
  return *sites;
}

void record_wait_site(const std::source_location& loc) {
  std::lock_guard<std::mutex> lock(wait_sites_mu());
  wait_sites().emplace(loc.function_name());
}

}  // namespace

std::vector<std::string> cv_wait_sites_snapshot() {
  std::lock_guard<std::mutex> lock(wait_sites_mu());
  return {wait_sites().begin(), wait_sites().end()};
}

namespace detail {

[[noreturn]] void fail(const char* what, const char* detail_a,
                       const char* detail_b) {
  std::string message(what ? what : "unknown");
  if (detail_a != nullptr) message += std::string(": \"") + detail_a + "\"";
  if (detail_b != nullptr) message += std::string(" (") + detail_b + ")";
  fail_msg(message);
}

void assert_held(const Mutex& mu, const char* expr, const char* file,
                 unsigned line) {
  if (find_held(mu) >= 0) return;
  fail_msg("DARNET_ASSERT_HELD(" + std::string(expr) + ") failed: mutex \"" +
           mu.name() + "\" is not held by this thread at " +
           site(file, line));
}

void assert_not_held(const Mutex& mu, const char* expr, const char* file,
                     unsigned line) {
  const int idx = find_held(mu);
  if (idx < 0) return;
  fail_msg("DARNET_ASSERT_NOT_HELD(" + std::string(expr) +
           ") failed: mutex \"" + mu.name() +
           "\" is held by this thread (locked at " +
           site(t_held[idx].file, t_held[idx].line) + ") at " +
           site(file, line));
}

void pre_lock_order_check(Mutex& mu, const std::source_location& loc) {
  // 1. Recursive acquisition of the same instance: std::mutex would be UB.
  for (int i = 0; i < t_held_count; ++i) {
    if (t_held[i].mu == &mu) {
      fail_msg("recursive lock of mutex \"" + std::string(mu.name()) +
               "\" (first locked at " +
               site(t_held[i].file, t_held[i].line) + ", relocked at " +
               site(loc.file_name(), loc.line()) + ")");
    }
    // 2. Same-name nesting: names define lock ranks, so two locks sharing
    //    a name may never nest (a self-edge in the order graph).
    if (std::strcmp(t_held[i].name, mu.name()) == 0) {
      fail_msg("lock-order violation: acquiring \"" +
               std::string(mu.name()) + "\" at " +
               site(loc.file_name(), loc.line()) +
               " while already holding a lock of the same name (locked at " +
               site(t_held[i].file, t_held[i].line) +
               "); same-name locks share a rank and may not nest");
    }
  }
  if (t_held_count == 0) return;

  // 3. Order-graph edges: held-name -> acquired-name. Inserting an edge
  //    whose reverse direction is already reachable closes a cycle; abort
  //    with both acquisition sites the first time the inversion is *seen*,
  //    whether or not this run would have deadlocked.
  int new_edges = 0;
  {
    std::lock_guard<std::mutex> graph_lock(graph_mu());
    for (int i = 0; i < t_held_count; ++i) {
      const HeldEntry& held = t_held[i];
      auto& row = edges()[held.name];
      if (row.find(std::string_view(mu.name())) != row.end()) continue;
      std::string via;
      const EdgeSite* conflict = find_path(mu.name(), held.name, &via);
      if (conflict != nullptr) {
        fail_msg(
            "lock-order cycle: acquiring \"" + std::string(mu.name()) +
            "\" at " + site(loc.file_name(), loc.line()) +
            " while holding \"" + held.name + "\" (locked at " +
            site(held.file, held.line) + ") inverts the established order \"" +
            mu.name() + "\" -> \"" + via + "\" (\"" + mu.name() +
            "\" held at " + site(conflict->holder_file, conflict->holder_line) +
            ", \"" + via + "\" acquired at " +
            site(conflict->acquire_file, conflict->acquire_line) + ")");
      }
      row.emplace(std::string(mu.name()),
                  EdgeSite{held.file, held.line, loc.file_name(),
                           loc.line()});
      ++new_edges;
    }
  }
  if (new_edges > 0) {
    g_edge_count.fetch_add(static_cast<std::uint64_t>(new_edges),
                           std::memory_order_relaxed);
    emit_order_edges(new_edges);  // after graph_mu() is released
  }
}

void on_lock(Mutex& mu, const std::source_location& loc, bool contended,
             std::int64_t wait_us) {
  push_held(mu, loc.file_name(), loc.line());
  if (contended) emit_lock_wait_us(wait_us);
}

void on_try_lock_success(Mutex& mu, const std::source_location& loc) {
  push_held(mu, loc.file_name(), loc.line());
}

void on_unlock(Mutex& mu) {
  const int idx = find_held(mu);
  if (idx < 0) {
    fail_msg("unlock of mutex \"" + std::string(mu.name()) +
             "\" which is not held by this thread");
  }
  // Out-of-order release is legal (UniqueLock::unlock before another lock's
  // destructor); erase in place.
  for (int i = idx; i + 1 < t_held_count; ++i) t_held[i] = t_held[i + 1];
  --t_held_count;
}

void on_cv_release(Mutex& mu, const std::source_location& loc) {
  if (t_held_count == 0 || t_held[t_held_count - 1].mu != &mu) {
    const int idx = find_held(mu);
    if (idx < 0) {
      fail_msg("CondVar wait on mutex \"" + std::string(mu.name()) +
               "\" which is not held by this thread (wait at " +
               site(loc.file_name(), loc.line()) + ")");
    }
    fail_msg("CondVar wait on mutex \"" + std::string(mu.name()) +
             "\" which is not the most recently acquired lock (wait at " +
             site(loc.file_name(), loc.line()) + "; \"" +
             t_held[t_held_count - 1].name +
             "\" was acquired after it at " +
             site(t_held[t_held_count - 1].file,
                  t_held[t_held_count - 1].line) +
             "); waiting would sleep while holding a later-ranked lock");
  }
  --t_held_count;  // popped for the duration of the native wait
}

void on_cv_reacquire(Mutex& mu, const std::source_location& loc) {
  push_held(mu, loc.file_name(), loc.line());
}

void on_watchdog_trip(Mutex& mu, const std::source_location& loc,
                      std::int64_t waited_us, std::int64_t bound_us) {
  g_watch_trips.fetch_add(1, std::memory_order_relaxed);
  const bool fatal = g_watch_fatal.load(std::memory_order_relaxed);
  const std::string message =
      "wait watchdog: CondVar wait on \"" + std::string(mu.name()) +
      "\" at " + site(loc.file_name(), loc.line()) + " has lasted " +
      std::to_string(waited_us) + " us (bound " + std::to_string(bound_us) +
      " us) -- possible lost wakeup";
  if (fatal) fail_msg(message);
  const std::string line = "darnet::sync warning: " + message + "\n";
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

WaitWatch::WaitWatch(UniqueLock& lock, const std::source_location& loc)
    : mu_(lock.mutex()),
      loc_(loc),
      start_(std::chrono::steady_clock::now()) {
  if (!lock.owns_lock()) {
    fail("CondVar wait requires an owned lock", mu_.name(), nullptr);
  }
  record_wait_site(loc);
  const WatchdogConfig config = wait_watchdog();
  bound_us_ = config.bound_us;
  fatal_ = config.fatal;
}

void WaitWatch::wait_slice(std::condition_variable& cv) {
  on_cv_release(mu_, loc_);
  {
    std::unique_lock<std::mutex> native(mu_.native(), std::adopt_lock);
    if (bound_us_ > 0 && !tripped_) {
      cv.wait_until(native, start_ + std::chrono::microseconds(bound_us_));
    } else {
      cv.wait(native);
    }
    native.release();
  }
  on_cv_reacquire(mu_, loc_);
  if (bound_us_ > 0 && !tripped_) {
    const auto waited_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (waited_us >= bound_us_) {
      tripped_ = true;
      on_watchdog_trip(mu_, loc_, waited_us, bound_us_);
    }
  }
}

}  // namespace detail
}  // namespace darnet::sync

#endif  // DARNET_CHECKED
