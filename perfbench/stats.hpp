// The serving benchmark's own statistics: percentiles and trimmed means,
// CPU-time and steal deltas, host-speed scaling, /proc fields, request
// conservation and the stage residual. Free of darnet types so
// stats_test.cpp can check the arithmetic in isolation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <sys/resource.h>
#include <vector>

namespace perfbench {

// ---- percentiles ----------------------------------------------------------

/// Nearest-rank percentile of already-sorted samples: the value at
/// 1-based rank ceil(q * n). Requires a non-empty input and q in (0, 1].
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);

/// Number of samples strictly beyond the nearest-rank q-percentile.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The highest of p50, p90, p99, p99.9 and p99.99 that keeps at least
/// ten samples beyond it, or 0 when even the median does not.
[[nodiscard]] double highest_supported_quantile(std::size_t n);

[[nodiscard]] double median(std::vector<double> values);
/// Mean of the values left after dropping floor(trim * n) of the lowest
/// and as many of the highest; 0 for no values.
[[nodiscard]] double trimmed_mean(std::vector<double> values, double trim);
[[nodiscard]] double mean(const std::vector<double>& values);

// ---- host accounting ------------------------------------------------------

/// User + system CPU time of a getrusage() snapshot, in microseconds.
[[nodiscard]] std::int64_t cpu_us(const rusage& usage);

/// CPU microseconds spent between two getrusage() snapshots.
[[nodiscard]] std::int64_t cpu_us_delta(const rusage& before,
                                        const rusage& after);

/// CPU time the calling thread has used, in microseconds.
[[nodiscard]] std::int64_t thread_cpu_us();

/// A figure measured while the reference slice (calibrate.hpp) took
/// `measured_slice_us`, scaled to the host speed at which it takes
/// `reference_slice_us`. `cpu_share` is the part of the figure that is CPU
/// work and so follows the host's speed: 1 for a CPU time, less for a
/// latency that also waits on timers.
[[nodiscard]] double at_reference_speed(double value, double measured_slice_us,
                                        double reference_slice_us,
                                        double cpu_share = 1.0);

/// The kB value of one "Field:   123 kB" line of /proc/self/status
/// (VmHWM, VmRSS, ...), or std::nullopt when the text has no such line.
[[nodiscard]] std::optional<std::uint64_t> parse_status_kb(
    std::string_view status, std::string_view field);

/// The aggregate "cpu" line of /proc/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t user{0}, nice{0}, system{0}, idle{0}, iowait{0}, irq{0},
      softirq{0}, steal{0};
  [[nodiscard]] std::uint64_t total() const noexcept {
    return user + nice + system + idle + iowait + irq + softirq + steal;
  }
};

/// Parses the first line of /proc/stat ("cpu  u n s i io irq sirq steal
/// ..."). Fields a kernel does not report read as 0; anything that is not
/// a "cpu" line with at least four counters yields std::nullopt.
[[nodiscard]] std::optional<CpuTicks> parse_proc_stat(std::string_view text);

/// Share of all CPU ticks between two snapshots that the hypervisor
/// stole, in percent; 0 when no tick elapsed.
[[nodiscard]] double steal_pct(const CpuTicks& before, const CpuTicks& after);

// ---- request conservation -------------------------------------------------

/// Every request the load generator sends ends as exactly one of these.
enum class Outcome : std::uint8_t {
  kOk,
  kHttp4xx,
  kHttp5xx,
  kTransportError,
  kShed,
  kTimeout,
  kRejected,
  kVerdictMismatch,
};
inline constexpr std::size_t kOutcomes = 8;
[[nodiscard]] const char* outcome_name(Outcome outcome) noexcept;

struct OutcomeCounts {
  std::array<std::uint64_t, kOutcomes> n{};

  void add(Outcome outcome) { ++n[static_cast<std::size_t>(outcome)]; }
  [[nodiscard]] std::uint64_t operator[](Outcome outcome) const {
    return n[static_cast<std::size_t>(outcome)];
  }
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::uint64_t failed() const {
    return total() - (*this)[Outcome::kOk];
  }
};

/// Router::stats() change over the measured phase, summed over shards.
struct ServeDelta {
  std::uint64_t routed{0}, quota_rejected{0};
  std::uint64_t submitted{0}, rejected{0}, shed{0}, timeouts{0},
      completed{0}, batches{0}, batched_rows{0};
};

/// Edge::http_stats() change over the measured phase.
struct HttpDelta {
  std::uint64_t connections{0}, requests{0}, bad_requests{0}, overloaded{0};
};

/// Checks the duvitech gateway invariant -- every sequence number in
/// [0, sent) was counted exactly once -- and reconciles the outcome
/// counts with the server's own counters. `seqs` lists the sequence
/// number of every counted request; `http` is null when the workload
/// bypasses the HTTP edge. Returns one message per imbalance (empty when
/// everything balances).
[[nodiscard]] std::vector<std::string> conservation_errors(
    std::uint64_t sent, const std::vector<std::uint64_t>& seqs,
    const OutcomeCounts& counts, const ServeDelta& serve,
    const HttpDelta* http);

// ---- stage breakdown --------------------------------------------------------

/// classify_batch time at a (possibly fractional) batch size, linearly
/// interpolated between the batch-1 and batch-8 measurements.
[[nodiscard]] double engine_us_at(double rows, double b1_us, double b8_us);

struct Stage {
  std::string name;
  double mean_us{0.0};
};

/// What the stage means leave unexplained of the end-to-end mean.
struct Residual {
  double sum_us{0.0};
  double residual_us{0.0};
  double residual_pct{0.0};
};
[[nodiscard]] Residual stage_residual(const std::vector<Stage>& stages,
                                      double end_to_end_mean_us);

}  // namespace perfbench
