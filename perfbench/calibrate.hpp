// Host speed, measured with a fixed slice of work that calls no darnet
// code. On a shared VM the same work takes up to 40% more or less CPU time
// from one second to the next as neighbours come and go, even while steal
// reads 0, and every CPU-time metric moves with it. A sampler thread times
// one slice every kSliceInterval for the whole run; each CPU-time metric is
// scaled to the speed at which a slice takes kReferenceSliceUs, using the
// slices taken while it was measured. A change to darnet cannot move the
// slice; a change of host speed moves the slice and the workload together.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// CPU microseconds of one slice on a quiet host of the kind
/// perfbench/README.md describes. Its only job is to keep the scaled
/// figures near the raw ones there; changing it rescales every run alike.
inline constexpr double kReferenceSliceUs = 2500.0;
inline constexpr std::chrono::milliseconds kSliceInterval{100};

/// Runs one slice on the calling thread and returns its CPU time in
/// microseconds: float multiply-adds over an L2-resident matrix, strtod
/// over %.9g text like the /classify bodies, and a sum over a buffer
/// larger than L2.
[[nodiscard]] double reference_slice_us();

/// The sampler thread. Its own CPU time is reported so the benchmark can
/// leave it out of the process's.
class HostSpeed {
 public:
  using Clock = std::chrono::steady_clock;

  HostSpeed();
  ~HostSpeed() = default;  // thread_ stops and joins first
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// CPU microseconds the sampler thread has used so far.
  [[nodiscard]] std::int64_t cpu_us() const { return cpu_us_.load(); }

  /// Mean CPU microseconds of the slices that started in [from, to],
  /// trimmed by a tenth at each end, or kReferenceSliceUs when none did.
  [[nodiscard]] double slice_us(Clock::time_point from,
                                Clock::time_point to) const;

 private:
  void run(const std::stop_token& stop);

  mutable std::mutex mu_;
  std::condition_variable_any wake_;
  std::vector<std::pair<Clock::time_point, double>> slices_;  // guarded by mu_
  std::atomic<std::int64_t> cpu_us_{0};
  std::jthread thread_;  // last: runs over the members above
};

}  // namespace perfbench
