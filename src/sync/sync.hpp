#pragma once
// darnet::sync -- annotated synchronisation primitives with structural
// concurrency checking.
//
// Drop-in wrappers over std::mutex / std::condition_variable that compile to
// bare passthroughs when DARNET_CHECKED is OFF (the same zero-cost idiom as
// src/check and src/obs: every checked-only argument sits inside an
// unevaluated sizeof, so it is type-checked but never executed).  In checked
// builds the wrappers maintain three structural detectors:
//
//   1. A per-thread held-lock stack.  DARNET_ASSERT_HELD(mu) /
//      DARNET_ASSERT_NOT_HELD(mu) abort with file:line attribution when the
//      calling thread's stack disagrees, and recursive acquisition of the
//      same Mutex instance aborts immediately (std::mutex would deadlock or
//      be UB).
//
//   2. A global lock-order graph keyed by mutex *name*.  Every acquisition
//      while other locks are held records held-name -> acquired-name edges;
//      the first time an edge would close a cycle the process aborts,
//      printing both conflicting acquisition sites -- flagging deadlock
//      *potential* even on runs that never interleave into the deadlock.
//
//   3. A condition-variable wait watchdog.  CondVar only exposes the
//      predicate-taking wait forms (spurious wakeups are structurally
//      re-checked), and checked builds slice long waits so that waits
//      exceeding a configurable bound are flagged as potential lost
//      wakeups (warn, or abort when fatal).
//
// Every Mutex carries a stable name ("subsystem/what") used for lock-order
// edges and abort messages.  Names, not instances, define the order: two
// locks with the same name may never nest (so per-shard locks of one kind
// share one rank), and distinct names form the partial order documented in
// DESIGN.md section 10.
//
// Annotation macros: DARNET_GUARDED_BY(mu) tags a member as protected by a
// mutex, DARNET_ATOMIC tags intentionally lock-free members, and
// DARNET_THREAD_LOCAL tags thread-confined members.  They expand to nothing
// on every compiler -- the contract is enforced by darnet_analyze
// (sync-guarded-by, guarded-by), not the compiler, so the annotations can
// never bit-rot into semantic changes.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

// Analyzer-level annotations (machine-checked by darnet_analyze's
// sync-guarded-by and guarded-by rules).
#define DARNET_GUARDED_BY(mu)
#define DARNET_ATOMIC
#define DARNET_THREAD_LOCAL

#if defined(DARNET_CHECKED)
#include <source_location>
#endif

namespace darnet::sync {

[[nodiscard]] constexpr bool enabled() noexcept {
#if defined(DARNET_CHECKED)
  return true;
#else
  return false;
#endif
}

namespace detail {

// Declared but never defined: the DARNET_CHECKED=OFF assertion macros wrap
// their arguments in sizeof(unevaluated(...)), so the operands are
// type-checked yet never evaluated (zero cost, no codegen).
template <typename... Args>
int unevaluated(const Args&...);

}  // namespace detail

#if defined(DARNET_CHECKED)

class Mutex;

namespace detail {

[[noreturn]] void fail(const char* what, const char* detail_a,
                       const char* detail_b);
void assert_held(const Mutex& mu, const char* expr, const char* file,
                 unsigned line);
void assert_not_held(const Mutex& mu, const char* expr, const char* file,
                     unsigned line);
void on_lock(Mutex& mu, const std::source_location& loc, bool contended,
             std::int64_t wait_us);
void on_try_lock_success(Mutex& mu, const std::source_location& loc);
void pre_lock_order_check(Mutex& mu, const std::source_location& loc);
void on_unlock(Mutex& mu);
// CondVar wait bookkeeping: the waited mutex must be the top of the calling
// thread's held stack; it is popped for the duration of the native wait and
// re-pushed on wakeup.
void on_cv_release(Mutex& mu, const std::source_location& loc);
void on_cv_reacquire(Mutex& mu, const std::source_location& loc);
void on_watchdog_trip(Mutex& mu, const std::source_location& loc,
                      std::int64_t waited_us, std::int64_t bound_us);

}  // namespace detail

// A named mutex.  The name keys the global lock-order graph; use a stable
// "subsystem/what" literal.  Constexpr-constructible so namespace-scope and
// function-local-static instances need no dynamic initialisation.
class Mutex {
 public:
  constexpr explicit Mutex(const char* name) noexcept : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(std::source_location loc = std::source_location::current()) {
    detail::pre_lock_order_check(*this, loc);
    if (raw_.try_lock()) {
      detail::on_lock(*this, loc, /*contended=*/false, 0);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    raw_.lock();
    const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    detail::on_lock(*this, loc, /*contended=*/true, waited);
  }

  [[nodiscard]] bool try_lock(
      std::source_location loc = std::source_location::current()) {
    detail::pre_lock_order_check(*this, loc);
    if (!raw_.try_lock()) return false;
    detail::on_try_lock_success(*this, loc);
    return true;
  }

  void unlock() {
    detail::on_unlock(*this);
    raw_.unlock();
  }

  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] std::mutex& native() noexcept { return raw_; }

 private:
  std::mutex raw_;
  const char* const name_;
};

#else  // !DARNET_CHECKED

// Unchecked: a bare std::mutex passthrough.  The name is accepted (so call
// sites are identical in both builds) and retained for diagnostics.
class Mutex {
 public:
  constexpr explicit Mutex(const char* name) noexcept : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() { raw_.lock(); }
  [[nodiscard]] bool try_lock() { return raw_.try_lock(); }
  void unlock() { raw_.unlock(); }

  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] std::mutex& native() noexcept { return raw_; }

 private:
  std::mutex raw_;
  const char* const name_;
};

#endif  // DARNET_CHECKED

// RAII scoped lock (the sync:: analogue of std::lock_guard).
class [[nodiscard]] Lock {
 public:
#if defined(DARNET_CHECKED)
  explicit Lock(Mutex& mu,
                std::source_location loc = std::source_location::current())
      : mu_(mu) {
    mu_.lock(loc);
  }
#else
  explicit Lock(Mutex& mu) : mu_(mu) { mu_.lock(); }
#endif
  ~Lock() { mu_.unlock(); }
  Lock(const Lock&) = delete;
  Lock& operator=(const Lock&) = delete;

 private:
  Mutex& mu_;
};

// Movable-free ownership-tracking lock for CondVar waits (the sync::
// analogue of std::unique_lock).
class [[nodiscard]] UniqueLock {
 public:
#if defined(DARNET_CHECKED)
  explicit UniqueLock(Mutex& mu,
                      std::source_location loc =
                          std::source_location::current())
      : mu_(mu) {
    mu_.lock(loc);
    owned_ = true;
  }

  void lock(std::source_location loc = std::source_location::current()) {
    if (owned_) {
      detail::fail("UniqueLock::lock on an already-owned lock", mu_.name(),
                   nullptr);
    }
    mu_.lock(loc);
    owned_ = true;
  }
#else
  explicit UniqueLock(Mutex& mu) : mu_(mu) {
    mu_.lock();
    owned_ = true;
  }

  void lock() {
    mu_.lock();
    owned_ = true;
  }
#endif

  ~UniqueLock() {
    if (owned_) mu_.unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void unlock() {
    mu_.unlock();
    owned_ = false;
  }

  [[nodiscard]] bool owns_lock() const noexcept { return owned_; }
  [[nodiscard]] Mutex& mutex() noexcept { return mu_; }

 private:
  Mutex& mu_;
  bool owned_ = false;
};

// Wait-watchdog configuration.  bound_us == 0 disables the watchdog (the
// default: serve workers legitimately park forever on an idle queue).  When
// enabled, any single CondVar wait exceeding bound_us microseconds is
// flagged as a potential lost wakeup -- a warning line on stderr (and an
// abort when fatal), plus a trip counter tests can poll.  Also initialised
// from DARNET_SYNC_WAIT_BOUND_US / DARNET_SYNC_WAIT_FATAL at first use.
struct WatchdogConfig {
  std::int64_t bound_us = 0;
  bool fatal = false;
};

// One edge of the runtime lock-order graph: `to` was acquired while `from`
// was held, first observed at acquire_file:acquire_line. Exported so
// darnet_analyze's statically-extracted graph can be cross-checked against
// what actually happened at runtime (tests/test_analyze.cpp).
struct OrderEdge {
  std::string from;
  std::string to;
  std::string acquire_file;
  unsigned acquire_line = 0;
};

#if defined(DARNET_CHECKED)

void set_wait_watchdog(WatchdogConfig config) noexcept;
[[nodiscard]] WatchdogConfig wait_watchdog() noexcept;
[[nodiscard]] std::uint64_t watchdog_trips() noexcept;

// Introspection for tests and assertion macros.
[[nodiscard]] bool held_by_current_thread(const Mutex& mu) noexcept;
[[nodiscard]] int held_count() noexcept;
[[nodiscard]] std::uint64_t order_edge_count() noexcept;
// Copies the lock-order graph observed so far (deterministic: edges sorted
// by (from, to)). Empty in unchecked builds, where no graph is kept.
[[nodiscard]] std::vector<OrderEdge> order_graph_snapshot();
// Clears the global lock-order graph (edges learned so far).  Test-only:
// lets death-test children seed conflicting orders from a clean slate.
void reset_order_graph_for_test() noexcept;
// Sorted unique pretty function names (std::source_location::function_name
// of the CondVar::wait caller) the CV watchdog has observed waiting so far.
// Exported so darnet_analyze's static may-block effect can be cross-checked
// against runtime reality (tests/test_analyze.cpp). Empty in unchecked
// builds, where no wait bookkeeping is kept.
[[nodiscard]] std::vector<std::string> cv_wait_sites_snapshot();

namespace detail {

// Slices a checked CondVar wait so the watchdog can observe progress and the
// predicate is re-checked at every wakeup.  Construction asserts the waited
// mutex is owned and on top of the calling thread's held stack.
class WaitWatch {
 public:
  WaitWatch(UniqueLock& lock, const std::source_location& loc);

  // One native wait on `cv`.  Returns after cv wakes, or once the
  // watchdog bound passes, and trips the watchdog when the total elapsed
  // wait exceeds that bound.
  void wait_slice(std::condition_variable& cv);

 private:
  Mutex& mu_;
  std::source_location loc_;
  std::chrono::steady_clock::time_point start_;
  std::int64_t bound_us_;
  bool fatal_ = false;
  bool tripped_ = false;
};

}  // namespace detail

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  // Only predicate-taking waits are exposed: the loop below structurally
  // re-checks the predicate on every wakeup, so a spurious wakeup can never
  // be mistaken for the signalled condition.
  template <typename Pred>
  void wait(UniqueLock& lock, Pred pred,
            std::source_location loc = std::source_location::current()) {
    detail::WaitWatch watch(lock, loc);
    while (!pred()) watch.wait_slice(cv_);
  }

 private:
  std::condition_variable cv_;
};

#else  // !DARNET_CHECKED

inline void set_wait_watchdog(WatchdogConfig) noexcept {}
[[nodiscard]] inline WatchdogConfig wait_watchdog() noexcept { return {}; }
[[nodiscard]] inline std::uint64_t watchdog_trips() noexcept { return 0; }
[[nodiscard]] inline bool held_by_current_thread(const Mutex&) noexcept {
  return false;
}
[[nodiscard]] inline int held_count() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t order_edge_count() noexcept { return 0; }
[[nodiscard]] inline std::vector<OrderEdge> order_graph_snapshot() {
  return {};
}
inline void reset_order_graph_for_test() noexcept {}
[[nodiscard]] inline std::vector<std::string> cv_wait_sites_snapshot() {
  return {};
}

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  template <typename Pred>
  void wait(UniqueLock& lock, Pred pred) {
    std::unique_lock<std::mutex> native(lock.mutex().native(),
                                        std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

 private:
  std::condition_variable cv_;
};

#endif  // DARNET_CHECKED

}  // namespace darnet::sync

// Held-lock assertion macros.  Checked builds consult the per-thread held
// stack and abort with expression + file:line attribution on violation;
// unchecked builds type-check the operand inside an unevaluated sizeof and
// generate no code (zero cost: arguments are never evaluated).
#if defined(DARNET_CHECKED)

#define DARNET_ASSERT_HELD(mu) \
  ::darnet::sync::detail::assert_held((mu), #mu, __FILE__, __LINE__)
#define DARNET_ASSERT_NOT_HELD(mu) \
  ::darnet::sync::detail::assert_not_held((mu), #mu, __FILE__, __LINE__)

#else

#define DARNET_ASSERT_HELD(mu) \
  static_cast<void>(sizeof(::darnet::sync::detail::unevaluated(mu)))
#define DARNET_ASSERT_NOT_HELD(mu) \
  static_cast<void>(sizeof(::darnet::sync::detail::unevaluated(mu)))

#endif  // DARNET_CHECKED
