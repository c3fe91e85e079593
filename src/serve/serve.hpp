// darnet::serve -- the micro-batching multi-session inference server.
//
// The paper's deployment model is a centralized analytics engine serving
// *many* vehicles at once ("the controller forwards data to a remote
// server", §3.2-3.3). This module is that serving tier: it multiplexes
// concurrent driver sessions onto one EnsembleClassifier by coalescing
// queued single-frame requests into [B, ...] batches for a fused ensemble
// pass, then scattering the per-row distributions back through per-session
// streaming state (engine::SessionState -- the same EWMA + debounce
// recurrence StreamingClassifier uses, which is what makes served verdict
// sequences bit-identical to the single-threaded reference).
//
// Architecture (see DESIGN.md "Serving model"):
//   * Admission: a bounded FIFO queue with explicit backpressure. submit()
//     returns Admit::kAccepted, Admit::kShedOldest (admitted by dropping
//     the oldest queued request, whose future completes with
//     Status::kShed) or Admit::kRejected (queue full with shedding
//     disabled, or server draining). Every future is always completed --
//     admission verdicts, timeouts, shed and drain all resolve it.
//   * Micro-batching: a worker ServiceThread (src/parallel) that is free
//     takes up to `max_batch` queued requests at once, so rows gather only
//     while a pass runs and a lone request never waits for company. The
//     fused pass itself runs on the process-wide parallel::ThreadPool via
//     the engine's batched entry points.
//   * Robustness: per-request absolute deadlines (expired requests get
//     Status::kTimeout without inference), graceful drain() on shutdown
//     (stops admission, flushes the queue, joins workers, leaves no
//     pending futures), and a degraded mode with watermark hysteresis:
//     when queue depth reaches `degrade_high_watermark` batches switch to
//     the cheap single-modality path (EnsembleClassifier::
//     classify_batch_degraded) until depth falls back to
//     `degrade_low_watermark`.
//   * Determinism: batches are formed FIFO under one lock and their
//     session updates are applied in batch-ticket order, so each
//     session's verdict sequence equals StreamingClassifier fed the same
//     per-session inputs in the same order, regardless of batch
//     boundaries or worker count.
//
// Everything is instrumented with serve/* metrics and spans per the
// docs/OBSERVABILITY.md contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "parallel/pool.hpp"
#include "sync/sync.hpp"

namespace darnet::serve {

/// Synchronous admission verdict for one submit() call.
enum class Admit {
  kAccepted,    ///< queued within capacity
  kShedOldest,  ///< queued by shedding the oldest queued request
  kRejected,    ///< not queued (queue full with shedding off, or draining)
};

/// How the asynchronous side of a request resolved.
enum class Status {
  kOk,        ///< served; `result` is meaningful
  kTimeout,   ///< deadline expired while queued; no inference ran
  kShed,      ///< dropped by backpressure to admit a newer request
  kRejected,  ///< never admitted
};

[[nodiscard]] const char* admit_name(Admit admit) noexcept;
[[nodiscard]] const char* status_name(Status status) noexcept;

/// The clock the server reads for deadline triage and queue-latency
/// accounting. Production uses the default (std::chrono::steady_clock);
/// the fleet simulator injects one driven by virtual time so simulated
/// deadlines and the server's time math agree (a hidden wall-clock read
/// would make simulated deadline behaviour nondeterministic -- see
/// docs/SIMULATION.md "Determinism contract"). Implementations must be
/// thread-safe: workers and submitters read concurrently.
class TimeSource {
 public:
  virtual ~TimeSource() = default;
  [[nodiscard]] virtual std::chrono::steady_clock::time_point now()
      const noexcept = 0;
};

/// What a request's future resolves to.
struct Response {
  Status status{Status::kRejected};
  /// Valid when status == kOk; latency_us is populated for kOk and
  /// kTimeout (time spent queued).
  engine::ClassifyResult result;
};

/// Per-shard serving parameters: everything one micro-batching Server
/// needs. Router-level policy (shard count, hash ring, per-tenant quotas,
/// snapshot versioning) lives in serve::RouterConfig (router.hpp) -- the
/// PR-9 redesign split the old monolithic ServerConfig along that seam.
struct ShardConfig {
  /// Most requests one fused pass takes from the queue.
  int max_batch = 8;
  /// Admission queue bound (requests). Beyond it, shed or reject.
  std::size_t queue_capacity = 64;
  /// Overflow policy: true sheds the oldest queued request (freshest data
  /// wins -- the in-vehicle alerting posture), false rejects the newcomer.
  bool shed_oldest = true;
  /// Queue depth at which batches switch to the degraded single-modality
  /// pass. Default: never.
  std::size_t degrade_high_watermark = static_cast<std::size_t>(-1);
  /// Queue depth at or below which degraded mode disengages (hysteresis;
  /// must be <= degrade_high_watermark).
  std::size_t degrade_low_watermark = 0;
  /// Batching worker threads. One is usually right: the fused pass is
  /// serialized on the model anyway and fans out across the process-wide
  /// ThreadPool; extra workers only overlap gather/scatter with inference.
  int workers = 1;
  /// Per-session smoothing + debounce parameters.
  engine::StreamingConfig streaming;
  /// Clock for deadline triage and latency accounting. Null (the default)
  /// reads std::chrono::steady_clock. Batch formation never reads it, so a
  /// virtual clock batches exactly like the wall clock.
  std::shared_ptr<const TimeSource> time_source;
};

/// The micro-batching inference server. Thread-safe: submit() may be
/// called from any number of threads concurrently with the workers.
class Server {
 public:
  /// Result of one submit(): the synchronous admission verdict plus the
  /// future that resolves to the request's Response. The future is valid
  /// and guaranteed to resolve for every admission verdict.
  struct Submission {
    Admit admit{Admit::kRejected};
    std::future<Response> response;
  };

  /// Shares ownership of the ensemble (pass engine::borrow(e) or
  /// DarNet::ensemble_ptr). The ensemble must already be fitted if
  /// degraded mode is to use the IMU path.
  Server(std::shared_ptr<engine::EnsembleClassifier> ensemble,
         ShardConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] Submission submit(engine::ClassifyRequest request);

  /// Stop admitting, flush every queued request, join the workers. After
  /// drain() returns, no future is pending and every subsequent submit()
  /// returns Admit::kRejected (its future resolves to Status::kRejected).
  /// Idempotent.
  void drain();

  /// RCU-style hot swap: atomically replace the served ensemble with
  /// `next` (same architecture, presumably freshly-trained weights) and
  /// return the replica it replaced. In-flight batches finish on the
  /// replica they snapshotted at batch formation -- the flip drops no
  /// request and stalls no worker -- and per-session streaming state
  /// (EWMA + debounce) is untouched, so sessions whose weights did not
  /// change see bit-identical verdict streams across the swap.
  std::shared_ptr<engine::EnsembleClassifier> swap_ensemble(
      std::shared_ptr<engine::EnsembleClassifier> next);

  /// The ensemble currently being served (consistent snapshot).
  [[nodiscard]] std::shared_ptr<engine::EnsembleClassifier> ensemble() const;

  /// Aggregate counters (consistent snapshot).
  struct Stats {
    std::uint64_t submitted{0};
    std::uint64_t accepted{0};
    std::uint64_t shed{0};
    std::uint64_t rejected{0};
    std::uint64_t timeouts{0};
    std::uint64_t completed{0};
    std::uint64_t batches{0};
    std::uint64_t degraded_batches{0};
    std::uint64_t batched_rows{0};
    std::uint64_t ensemble_swaps{0};
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t queue_depth() const;
  /// True while the degraded-mode hysteresis is engaged (or forced).
  [[nodiscard]] bool degraded_mode() const;
  /// Operator override for degraded mode: force it on/off regardless of
  /// the watermark hysteresis, or std::nullopt to return control to the
  /// hysteresis. Used by resilience drills (the fleet simulator's
  /// degraded-mode flapping scenario) where queue depth alone would never
  /// deterministically cross the watermarks.
  void force_degraded(std::optional<bool> forced);
  /// Copy of a session's streaming state (default-constructed when the
  /// session has never been served).
  [[nodiscard]] engine::SessionState session(std::uint64_t session_id) const;
  [[nodiscard]] const ShardConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Pending {
    engine::ClassifyRequest request;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  void execute_batch(std::vector<Pending> batch, std::uint64_t ticket,
                     bool degraded,
                     const std::shared_ptr<engine::EnsembleClassifier>&
                         ensemble);
  // Resolves a request's promise. REQUIRES: mu_ free (promise
  // continuations must never run under the admission lock).
  void complete(Pending& pending, Response response);
  // The configured clock (config_.time_source, or steady_clock when null).
  [[nodiscard]] std::chrono::steady_clock::time_point clock_now()
      const noexcept;

  const ShardConfig config_;

  // Lock hierarchy (DESIGN.md "Concurrency model"): mu_ -> exec_mu_ ->
  // apply_mu_. No method currently nests two of them, but the order graph
  // enforces the documented direction the moment anyone does.

  // Admission + batch formation. deque is the FIFO; capacity is enforced
  // at every push (see the serve-bounded-queue analyzer rule).
  mutable sync::Mutex mu_{"serve/admission"};
  sync::CondVar work_cv_;
  std::deque<Pending> queue_ DARNET_GUARDED_BY(mu_);
  bool draining_ DARNET_GUARDED_BY(mu_){false};
  bool degraded_ DARNET_GUARDED_BY(mu_){false};
  // Operator override (force_degraded). The hysteresis keeps tracking
  // queue depth underneath so releasing the override is seamless.
  std::optional<bool> forced_degraded_ DARNET_GUARDED_BY(mu_);
  std::uint64_t next_ticket_ DARNET_GUARDED_BY(mu_){0};
  Stats stats_ DARNET_GUARDED_BY(mu_);
  // The served ensemble, RCU-style: workers snapshot the shared_ptr at
  // batch formation (under mu_) and run the whole batch on that replica;
  // swap_ensemble() flips the pointer under the same lock. An in-flight
  // batch keeps its replica alive through its own reference, so a swap
  // never stalls on or disturbs running inference.
  std::shared_ptr<engine::EnsembleClassifier> ensemble_
      DARNET_GUARDED_BY(mu_);

  // Serialises fused passes: the underlying models keep forward caches,
  // so at most one batch may be inside the ensemble at a time.
  sync::Mutex exec_mu_{"serve/exec"};

  // Session scatter, applied strictly in ticket order so per-session
  // state advances in admission order with any worker count.
  mutable sync::Mutex apply_mu_{"serve/apply"};
  sync::CondVar apply_cv_;
  std::uint64_t next_apply_ DARNET_GUARDED_BY(apply_mu_){0};
  std::unordered_map<std::uint64_t, engine::SessionState> sessions_
      DARNET_GUARDED_BY(apply_mu_);

  // Swapped out under mu_ by the first drain() and joined lock-free, so
  // concurrent drains are safe and no lock is held across a join.
  std::vector<parallel::ServiceThread> workers_ DARNET_GUARDED_BY(mu_);
};

}  // namespace darnet::serve
