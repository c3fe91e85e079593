// The three load generators. Each drives the fixture for a fixed number
// of seconds from at most three threads of this process and returns one
// Record per request it sent.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "fixture.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Workload {
  kEdgeClosed,    ///< 3 HTTP clients in a closed loop through http::Edge
  kRouterOpen,    ///< seeded Poisson arrivals into Router::submit
  kRouterBurst,   ///< 48-80-request bursts into Router::submit every 100 ms
  // Probes of --trace 1, not workloads:
  kRouterClosed,     ///< edge_closed's clients calling the router directly
  kRouterSaturated,  ///< one thread keeping 48 requests queued
};

/// The three workloads by name; the probes have none.
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload) noexcept;

/// One request as the load generator saw it. `due` is when the schedule
/// wanted it sent (in the closed loop: when the client's previous request
/// finished), `sent` the call into http::post or Router::submit,
/// `submitted` the return from Router::submit (router paths only) and
/// `done` the moment the verdict was in hand.
struct Record {
  std::uint64_t seq{0};
  std::uint64_t session{0};
  int frame{0};
  int thread{0};  // load-generator thread that completed it
  bool counted{false};
  Outcome outcome{Outcome::kTransportError};
  int predicted{-1};
  bool alert{false};
  Clock::time_point due, sent, submitted, done;
};

/// The shards' own timers over a phase (obs histograms
/// serve/request_latency_ns, admission to verdict, and
/// serve/batch_execute_ns, the classify_batch call of one batch).
struct ShardTimes {
  std::uint64_t latency_ns{0}, latencies{0};
  std::uint64_t execute_ns{0}, executions{0};

  [[nodiscard]] double latency_us() const {
    return latencies ? 1e-3 * static_cast<double>(latency_ns) /
                           static_cast<double>(latencies)
                     : 0.0;
  }
  [[nodiscard]] double execute_us() const {
    return executions ? 1e-3 * static_cast<double>(execute_ns) /
                            static_cast<double>(executions)
                      : 0.0;
  }
};

/// One measured phase: the records (indexed by seq) plus what the host
/// and the server counted over the same interval.
struct Phase {
  Workload workload{Workload::kEdgeClosed};
  std::vector<Record> records;
  double wall_s{0.0};
  std::int64_t cpu_us{0};          // the process's, less the speed sampler's
  std::int64_t loadgen_cpu_us{0};  // of cpu_us, the load generator threads'
  double slice_us{0.0};            // median reference slice (calibrate.hpp)
  double steal_pct{0.0};
  double rss_mb{0.0};  // VmHWM once kRssRequestsPerSecond * seconds were sent
  bool rss_at_end{false};  // the phase ended before sending that many
  ServeDelta serve;
  HttpDelta http;
  ShardTimes shard;
};

/// The request count, per second of the phase, at which a phase reads its
/// peak RSS. RSS grows with every request served (README.md, Findings),
/// so reading it after a fixed count keeps a faster closed loop, which
/// serves more requests in the same time, from reading as a larger
/// footprint.
inline constexpr double kRssRequestsPerSecond = 300.0;

/// One kB field of /proc/self/status (VmHWM, VmRSS, ...) in MB; 0 if
/// unreadable.
[[nodiscard]] double status_mb(const char* field);

/// Drives `workload` for `seconds`. Sessions are numbered from
/// `session_base` so phases sharing one fixture never share server-side
/// session state; `seed` fixes the arrival schedule and every session's
/// frame order. The closed loops run `clients` threads.
[[nodiscard]] Phase run_phase(Workload workload, Fixture& fixture,
                              std::uint64_t seed, double seconds,
                              std::uint64_t session_base,
                              int clients = kEdgeClients);

/// Round-trip microseconds of GET /healthz -- bare transport and
/// dispatch -- from `clients` closed-loop threads for `seconds`. Counts
/// non-200 replies into `failures`.
[[nodiscard]] std::vector<double> healthz_rtts_us(Fixture& fixture,
                                                  int clients, double seconds,
                                                  std::uint64_t& failures);

/// Offline reference: replays each session's OK requests, in order,
/// through engine::advance over `fused` (one batch-1 classify_batch row
/// per held-out sample) and turns any verdict whose class or alert flag
/// differs into Outcome::kVerdictMismatch. Returns the mismatch count.
std::uint64_t check_verdicts(Phase& phase, const std::vector<Tensor>& fused,
                             const darnet::engine::StreamingConfig& config);

}  // namespace perfbench
