// darnet::check -- the checked-build invariant layer.
//
// Every module in the tree can state its invariants with DARNET_CHECK /
// DARNET_CHECK_MSG. In checked builds (-DDARNET_CHECKED=ON, the default
// for Debug) a failed invariant prints a single diagnostic line to stderr
// and aborts, which makes violations trivially catchable by gtest death
// tests and impossible to ignore in CI. In unchecked builds the macros
// compile to nothing: the condition expression is type-checked (inside an
// unevaluated sizeof) but never evaluated, so hot paths pay zero cost.
//
// The layer also ships the shared dynamic-analysis utilities the nn /
// parallel subsystems hook into:
//   * finite scanning   -- NaN/Inf detection over activation / gradient
//                          buffers (Sequential, optimizers);
//   * ShardWriteTracker -- overlapping-writer detection for parallel_for
//                          row shards (GEMM rows, Conv2D batch images).
//
// darnet::check depends on nothing but the standard library and sits below
// util/tensor in the link order; see DESIGN.md "Correctness tooling".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sync/sync.hpp"

namespace darnet::check {

/// True when the library was compiled with checked-build invariants.
[[nodiscard]] constexpr bool enabled() noexcept {
#ifdef DARNET_CHECKED
  return true;
#else
  return false;
#endif
}

/// Report a failed invariant and abort. The diagnostic is emitted to
/// stderr as one line, prefixed "darnet::check failure", so death tests
/// and CI logs can match it. Never returns; never throws.
[[noreturn]] void fail(const char* expr, const char* file, int line,
                       const std::string& message) noexcept;

/// True iff every value is finite (no NaN, no +/-Inf).
[[nodiscard]] bool all_finite(std::span<const float> values) noexcept;

/// Index of the first non-finite value, or nullopt when all are finite.
[[nodiscard]] std::optional<std::size_t> first_nonfinite(
    std::span<const float> values) noexcept;

/// Abort with attribution (`what`, `context`, offending index and value)
/// when `values` contains a NaN/Inf. Called by the DARNET_CHECK_FINITE
/// macro below; always compiled so tests can exercise it directly.
void assert_all_finite(std::span<const float> values, const char* what,
                       const std::string& context);

/// Overlapping-writer detection for sharded parallel loops.
///
/// Each parallel_for chunk that writes rows [begin, end) of a shared
/// output records its range; a record that overlaps any previously
/// recorded range aborts with both ranges in the message. `covered()`
/// lets the issuing thread additionally assert exact coverage after the
/// region completes. Thread-safe; detection is always active (call sites
/// in library code are themselves compiled only under DARNET_CHECKED).
class ShardWriteTracker {
 public:
  /// `what` names the sharded output in diagnostics (e.g. "matmul rows");
  /// the pointee must outlive the tracker.
  explicit ShardWriteTracker(const char* what) : what_(what) {}

  /// Record a writer shard [begin, end); aborts on overlap or on an
  /// empty/negative range.
  void record(std::int64_t begin, std::int64_t end);

  /// Total number of indices recorded so far.
  [[nodiscard]] std::int64_t covered() const;

  /// Abort unless the recorded shards exactly tile [begin, end).
  void expect_exact_cover(std::int64_t begin, std::int64_t end) const;

 private:
  mutable sync::Mutex mu_{"check/shard_tracker"};
  const char* const what_;
  // Kept sorted by begin; adjacent ranges are disjoint by construction.
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges_
      DARNET_GUARDED_BY(mu_);
};

}  // namespace darnet::check

// -- Assertion macros --------------------------------------------------------
//
// DARNET_CHECK(cond)            -- invariant with no extra context.
// DARNET_CHECK_MSG(cond, msg)   -- invariant with a std::string-convertible
//                                  message (evaluated only on failure).
// DARNET_CHECK_FINITE(span, ctx)-- NaN/Inf scan with attribution.
//
// In unchecked builds all three compile to a discarded unevaluated-sizeof
// expression: operands are type-checked (so checks cannot rot) but no code
// is generated and no side effects run.

#ifdef DARNET_CHECKED

#define DARNET_CHECK(cond)                                       \
  (static_cast<bool>(cond)                                       \
       ? static_cast<void>(0)                                    \
       : ::darnet::check::fail(#cond, __FILE__, __LINE__, {}))

#define DARNET_CHECK_MSG(cond, msg)                              \
  (static_cast<bool>(cond)                                       \
       ? static_cast<void>(0)                                    \
       : ::darnet::check::fail(#cond, __FILE__, __LINE__, (msg)))

#define DARNET_CHECK_FINITE(span, context) \
  ::darnet::check::assert_all_finite((span), #span, (context))

#else  // !DARNET_CHECKED

#define DARNET_CHECK(cond) \
  static_cast<void>(sizeof(static_cast<bool>(cond) ? 1 : 1))

#define DARNET_CHECK_MSG(cond, msg)                               \
  static_cast<void>(sizeof(static_cast<bool>(cond) ? 1 : 1) +    \
                    sizeof(::std::string(msg)))

#define DARNET_CHECK_FINITE(span, context)                              \
  static_cast<void>(sizeof(::darnet::check::all_finite(span) ? 1 : 1) + \
                    sizeof(::std::string(context)))

#endif  // DARNET_CHECKED
