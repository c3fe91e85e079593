// darnet::obs -- the observability layer: metrics registry + trace spans.
//
// DarNet is a middleware system; its headline numbers are end-to-end
// pipeline behaviour, which means knowing *where* time goes matters as
// much as the numbers themselves. This module provides the two primitives
// the whole tree instruments itself with:
//
//   * MetricsRegistry -- process-wide named counters, gauges, and
//     fixed-bucket latency histograms. Counters and histograms take a
//     lock-free fast path through per-thread shards (relaxed atomics on
//     cache-line-padded slots) that are folded on read, consistent with
//     the PR 1 ThreadPool model: writers never contend, readers pay the
//     fold. Snapshots export to deterministic JSON.
//   * Trace spans -- DARNET_SPAN("engine/classify") records a scoped
//     {name, detail, thread, start, duration} event onto a bounded
//     per-thread ring buffer; obs::write_trace(path) exports the merged
//     rings as chrome://tracing JSON (load via chrome://tracing or
//     https://ui.perfetto.dev).
//
// Instrumented call sites go through the DARNET_* macros below. When the
// build is configured with -DDARNET_OBS=OFF the macros compile to
// *unevaluated* expressions (the same sizeof technique as darnet::check):
// operand types are checked so instrumentation cannot rot, but no code is
// generated and no side effects run -- hot paths pay zero cost, and
// pipeline/trainer outputs are bit-identical either way (the layer never
// touches RNG state or numeric buffers).
//
// Naming contract: every metric/span name is a compile-time literal of the
// form `subsystem/verb_noun` (lowercase [a-z0-9_], >= 2 '/'-separated
// segments). Every name registered under src/ MUST have a matching row in
// docs/OBSERVABILITY.md -- `darnet_analyze` extracts the literals and fails
// CTest on drift in either direction. The registry enforces the grammar at
// registration time.
//
// darnet::obs depends on nothing but the standard library and sits next to
// darnet::check at the bottom of the link order; see DESIGN.md
// "Observability model".
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace darnet::obs {

/// True when the library was compiled with observability instrumentation
/// (-DDARNET_OBS=ON, the default).
[[nodiscard]] constexpr bool enabled() noexcept {
#ifdef DARNET_OBS
  return true;
#else
  return false;
#endif
}

/// Monotonic nanoseconds since the first obs call in this process
/// (steady_clock; immune to wall-clock adjustment).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Shard count for the per-thread fast paths. Power of two; threads hash
/// onto shards by a process-unique thread slot, so with fewer than
/// kMaxShards live threads every thread owns a private shard.
inline constexpr std::size_t kMaxShards = 64;

/// Small dense id for the calling thread, assigned on first use and
/// folded into [0, kMaxShards) for shard indexing.
[[nodiscard]] std::size_t thread_shard() noexcept;

// -- Metric kinds ------------------------------------------------------------

/// Monotonic event counter. `add` is wait-free: one relaxed fetch_add on
/// the caller's shard. `value` folds all shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) noexcept {
    shards_[thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMaxShards> shards_{};
};

/// Last-write-wins instantaneous value (queue depths, configured sizes).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram over nanosecond durations. Bucket 0
/// covers [0, 256 ns); bucket i >= 1 covers [256 * 2^(i-1), 256 * 2^i) ns;
/// the last bucket is open-ended (lower bound ~= 1.07 s). Recording is
/// wait-free (three relaxed adds on the caller's shard); snapshots fold.
class Histogram {
 public:
  static constexpr int kBuckets = 24;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t ns) noexcept;

  /// Bucket index for a duration (exposed for tests and export).
  [[nodiscard]] static int bucket_of(std::uint64_t ns) noexcept;
  /// Inclusive lower bound of bucket i in nanoseconds.
  [[nodiscard]] static std::uint64_t bucket_lower_ns(int i) noexcept;

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t count{0};
    std::uint64_t sum_ns{0};

    [[nodiscard]] double mean_ns() const noexcept {
      return count ? static_cast<double>(sum_ns) / static_cast<double>(count)
                   : 0.0;
    }
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  std::array<Shard, kMaxShards> shards_{};
};

// -- Registry ----------------------------------------------------------------

/// True iff `name` satisfies the `subsystem/verb_noun` grammar: at least
/// two non-empty '/'-separated segments of [a-z0-9_].
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// Process-wide metric registry. `counter`/`gauge`/`histogram` register on
/// first use (mutex-guarded, intended to be cached in a static handle by
/// the DARNET_* macros) and return a stable reference; re-registering the
/// same name returns the same object, and registering a name under a
/// different kind or with an invalid grammar throws. Snapshot export is
/// deterministic: names are emitted in sorted order.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// All registered names, sorted, prefixed by kind order in the JSON.
  [[nodiscard]] std::size_t size() const;

  /// Deterministic JSON snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{...}} with names in
  /// sorted order and histogram buckets as [lower_ns, count] pairs
  /// (zero buckets elided).
  [[nodiscard]] std::string to_json() const;
  void write_json(const std::string& path) const;

  /// Zero every value; registrations (and cached handles) stay valid.
  void reset();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  // pimpl keeps <map>/<mutex> out of here
};

/// The process-wide registry (created on first use, never destroyed
/// before handles go away).
[[nodiscard]] MetricsRegistry& registry();

// -- Trace spans -------------------------------------------------------------

/// Capacity of each per-thread span ring. Wraparound overwrites the
/// oldest events from that thread; `trace_recorded_total()` keeps the
/// true count so exports can report drops.
inline constexpr std::size_t kTraceRingCapacity = 4096;
/// Bytes reserved for a span's detail annotation (NUL included).
inline constexpr std::size_t kSpanDetailCap = 32;

/// RAII scope: records {name, detail, thread, start, duration} onto the
/// calling thread's ring at destruction. `name` must outlive the process
/// (string literals via DARNET_SPAN); `detail` is copied (truncated to
/// kSpanDetailCap - 1 chars).
class SpanScope {
 public:
  explicit SpanScope(const char* name) noexcept;
  SpanScope(const char* name, std::string_view detail) noexcept;
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_;
  char detail_[kSpanDetailCap];
};

/// RAII scope: records its lifetime into a Histogram (used by
/// DARNET_TIMER with a static registry handle).
class TimerScope {
 public:
  explicit TimerScope(Histogram& hist) noexcept
      : hist_(hist), start_ns_(now_ns()) {}
  ~TimerScope() { hist_.record(now_ns() - start_ns_); }
  TimerScope(const TimerScope&) = delete;
  TimerScope& operator=(const TimerScope&) = delete;

 private:
  Histogram& hist_;
  std::uint64_t start_ns_;
};

/// Events currently held across all thread rings.
[[nodiscard]] std::size_t trace_event_count();
/// Total spans ever recorded (>= trace_event_count() once rings wrap).
[[nodiscard]] std::uint64_t trace_recorded_total();
/// Drop all recorded events (counters keep running from zero). Callers
/// must be quiescent: no spans may be in flight on other threads.
void clear_trace();

/// chrome://tracing JSON ("traceEvents" array of complete "X" events,
/// microsecond timestamps). Deterministically ordered: start ascending,
/// duration descending (parents before children), then name. Export is a
/// quiescent-point operation like clear_trace().
[[nodiscard]] std::string trace_json();
void write_trace(const std::string& path);

namespace detail {
/// Declared, never defined: the DARNET_* macros wrap their operands in
/// sizeof(unevaluated(...)) when DARNET_OBS is off, so arguments are
/// type-checked but never evaluated (zero cost, zero side effects).
template <typename... Args>
int unevaluated(const Args&...) noexcept;
}  // namespace detail

}  // namespace darnet::obs

// -- Instrumentation macros --------------------------------------------------
//
// DARNET_COUNTER_ADD(name, n)    -- bump counter `name` by n.
// DARNET_GAUGE_SET(name, v)      -- set gauge `name` to v.
// DARNET_HISTOGRAM_NS(name, ns)  -- record a duration into histogram `name`.
// DARNET_TIMER(name)             -- RAII: time the enclosing scope into
//                                   histogram `name`.
// DARNET_SPAN(name)              -- RAII: trace span for the enclosing scope.
// DARNET_SPAN_DETAIL(name, d)    -- span with a detail annotation (copied).
//
// `name` must be a string literal (the no-capture lambda/static-handle
// expansion will not compile otherwise), matching the analyzer-enforced
// documentation contract. Registry lookups happen once per call site via a
// function-local static handle; steady-state cost is one relaxed atomic op
// (counters/gauges) or two clock reads (timers/spans).

#define DARNET_OBS_CONCAT_IMPL(a, b) a##b
#define DARNET_OBS_CONCAT(a, b) DARNET_OBS_CONCAT_IMPL(a, b)

#ifdef DARNET_OBS

#define DARNET_COUNTER_ADD(name, n)                            \
  do {                                                         \
    static ::darnet::obs::Counter& darnet_obs_handle =         \
        ::darnet::obs::registry().counter(name);               \
    darnet_obs_handle.add(static_cast<std::uint64_t>(n));      \
  } while (false)

#define DARNET_GAUGE_SET(name, v)                              \
  do {                                                         \
    static ::darnet::obs::Gauge& darnet_obs_handle =           \
        ::darnet::obs::registry().gauge(name);                 \
    darnet_obs_handle.set(static_cast<double>(v));             \
  } while (false)

#define DARNET_HISTOGRAM_NS(name, ns)                          \
  do {                                                         \
    static ::darnet::obs::Histogram& darnet_obs_handle =       \
        ::darnet::obs::registry().histogram(name);             \
    darnet_obs_handle.record(static_cast<std::uint64_t>(ns));  \
  } while (false)

#define DARNET_TIMER(name)                                              \
  ::darnet::obs::TimerScope DARNET_OBS_CONCAT(darnet_obs_timer_,        \
                                              __LINE__) {               \
    []() -> ::darnet::obs::Histogram& {                                 \
      static ::darnet::obs::Histogram& darnet_obs_handle =              \
          ::darnet::obs::registry().histogram(name);                    \
      return darnet_obs_handle;                                         \
    }()                                                                 \
  }

#define DARNET_SPAN(name)                                     \
  ::darnet::obs::SpanScope DARNET_OBS_CONCAT(darnet_obs_span_, \
                                             __LINE__) { name }

#define DARNET_SPAN_DETAIL(name, d)                            \
  ::darnet::obs::SpanScope DARNET_OBS_CONCAT(darnet_obs_span_, \
                                             __LINE__) { name, (d) }

#else  // !DARNET_OBS

#define DARNET_COUNTER_ADD(name, n) \
  static_cast<void>(sizeof(::darnet::obs::detail::unevaluated(name, (n))))

#define DARNET_GAUGE_SET(name, v) \
  static_cast<void>(sizeof(::darnet::obs::detail::unevaluated(name, (v))))

#define DARNET_HISTOGRAM_NS(name, ns) \
  static_cast<void>(sizeof(::darnet::obs::detail::unevaluated(name, (ns))))

#define DARNET_TIMER(name) \
  static_cast<void>(sizeof(::darnet::obs::detail::unevaluated(name)))

#define DARNET_SPAN(name) \
  static_cast<void>(sizeof(::darnet::obs::detail::unevaluated(name)))

#define DARNET_SPAN_DETAIL(name, d) \
  static_cast<void>(sizeof(::darnet::obs::detail::unevaluated(name, (d))))

#endif  // DARNET_OBS
