// Work-queue thread pool and `parallel_for` -- DarNet's parallel execution
// substrate.
//
// Design goals (see DESIGN.md "Threading model"):
//  * Determinism: `parallel_for` splits [begin, end) into fixed chunks that
//    depend only on the range, the grain and the configured thread count --
//    never on scheduling. Each index is processed by exactly one chunk, so
//    any kernel whose chunks touch disjoint output rows is bit-for-bit
//    reproducible for *any* thread count.
//  * Exact serial path: with an effective thread count of 1 (or a range
//    smaller than one grain) the body runs inline on the caller's thread;
//    the pool machinery is never touched.
//  * Exception propagation: the first exception thrown by any chunk is
//    captured and rethrown on the calling thread once the region finishes;
//    the pool remains usable afterwards.
//  * No nested parallelism: a `parallel_for` issued from inside a worker
//    runs inline (serial), so kernels can parallelise unconditionally.
//
// The effective thread count defaults to the `DARNET_THREADS` environment
// variable, falling back to `std::thread::hardware_concurrency()`; it can
// be overridden programmatically with `set_thread_count` (tests, benches).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "sync/sync.hpp"

namespace darnet::parallel {

/// Chunked range body: invoked as body(chunk_begin, chunk_end).
using RangeBody = std::function<void(std::int64_t, std::int64_t)>;

/// A fixed-size pool of helper threads executing chunked index ranges.
/// The calling thread always participates, so a pool with W workers gives
/// W+1-way concurrency. Thread-safe: concurrent for_range calls from
/// different threads are serialised.
class ThreadPool {
 public:
  /// Spawn `workers` helper threads (0 is valid: everything runs inline).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const noexcept { return worker_count_; }
  /// Total concurrency (workers + the calling thread).
  [[nodiscard]] int concurrency() const noexcept { return workers() + 1; }

  /// Execute body over [begin, end) in chunks of at least `grain` indices.
  /// Blocks until every chunk has run; rethrows the first chunk exception.
  void for_range(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const RangeBody& body);

 private:
  struct Region;  // one active for_range

  void worker_loop();
  static void run_chunks(Region& region);

  const int worker_count_;

  // Swapped out under mu_ by the destructor and joined lock-free (no lock
  // may be held across a join).
  std::vector<std::thread> threads_ DARNET_GUARDED_BY(mu_);

  sync::Mutex mu_{"parallel/pool"};
  sync::CondVar wake_;  // workers wait here for a new region
  sync::CondVar done_;  // caller waits here for completion
  Region* region_ DARNET_GUARDED_BY(mu_){nullptr};
  std::uint64_t epoch_ DARNET_GUARDED_BY(mu_){0};
  // Workers still draining the current region.
  int pending_ DARNET_GUARDED_BY(mu_){0};
  bool stop_ DARNET_GUARDED_BY(mu_){false};

  // Serialises concurrent for_range callers; always acquired before mu_
  // (lock order: parallel/pool_submit -> parallel/pool).
  sync::Mutex submit_mu_{"parallel/pool_submit"};
};

/// Effective thread count: `set_thread_count` override if any, else the
/// `DARNET_THREADS` environment variable, else hardware concurrency.
/// Always >= 1.
[[nodiscard]] int thread_count() noexcept;

/// Override the effective thread count (and resize the global pool).
/// Intended for tests and benches; not safe to call concurrently with
/// in-flight parallel_for regions on other threads.
void set_thread_count(int count);

/// True while the current thread is executing a parallel_for chunk (used
/// to run nested regions inline).
[[nodiscard]] bool in_parallel_region() noexcept;

/// The shared process-wide pool, sized to thread_count() - 1 workers.
/// Created lazily on first use.
[[nodiscard]] ThreadPool& global_pool();

/// Out-of-line slow path of parallel_for: type-erased body shipped to the
/// global pool. Call parallel_for below instead.
void parallel_for_impl(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, const RangeBody& body);

/// Run body(chunk_begin, chunk_end) over [begin, end) on the global pool.
/// `grain` is the minimum chunk size; chunks are additionally sized so
/// each thread gets a handful of chunks (dynamic load balancing without
/// tiny chunks). Serial (inline) when the effective thread count is 1,
/// when called from inside another region, or when the range fits one
/// grain.
///
/// Written as a template so the serial path invokes the callable directly:
/// no std::function is materialised, so a thread-count-1 inference step
/// performs zero heap allocations here (the zero-alloc hot-path contract).
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Body&& body) {
  if (begin >= end) return;
  if (thread_count() <= 1 || in_parallel_region()) {
    body(begin, end);
    return;
  }
  parallel_for_impl(begin, end, grain, RangeBody(std::forward<Body>(body)));
}

/// A dedicated long-running thread for service loops (e.g. the serve
/// scheduler's batching workers). Distinct from the ThreadPool: pool
/// workers execute short chunked regions and must never block on external
/// events, whereas a ServiceThread runs one long-lived body that may wait
/// on queues. Lives in src/parallel because the parallel layer owns all
/// thread creation in the tree (darnet_analyze: thread-outside-parallel).
///
/// Join semantics: join() blocks until the body returns; the destructor
/// joins if still joinable. The body is responsible for observing its own
/// stop signal -- ServiceThread provides no cancellation.
class ServiceThread {
 public:
  ServiceThread() = default;
  explicit ServiceThread(std::function<void()> body);
  ~ServiceThread();

  ServiceThread(ServiceThread&& other) noexcept = default;
  ServiceThread& operator=(ServiceThread&& other) noexcept;
  ServiceThread(const ServiceThread&) = delete;
  ServiceThread& operator=(const ServiceThread&) = delete;

  [[nodiscard]] bool joinable() const noexcept { return thread_.joinable(); }
  void join();

 private:
  // Owner-confined: only the constructing/moving thread joins it.
  std::thread thread_ DARNET_THREAD_LOCAL;
};

}  // namespace darnet::parallel
