#include "calibrate.hpp"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr int kDim = 256;  // 256 KB matrix: stays in L2
constexpr int kMatVecReps = 40;
constexpr int kNumbers = 1500;  // about half a /classify body of text
constexpr std::size_t kStreamWords = 1u << 19;  // 4 MB: beyond L2
constexpr int kStreamReps = 2;
// Share of slices dropped at each end before averaging: a slice that a
// page fault or an interrupt caught.
constexpr double kTrim = 0.1;

struct Inputs {
  std::vector<float> w;  // column-major kDim x kDim
  std::vector<float> x;
  std::string text;  // kNumbers floats, "%.9g,"
  std::vector<std::uint64_t> stream;

  Inputs() : w(kDim * kDim), x(kDim), stream(kStreamWords) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<float>(state >> 40) / static_cast<float>(1 << 24);
    };
    for (float& v : w) v = next() - 0.5f;
    for (float& v : x) v = next() - 0.5f;
    char buf[32];
    for (int i = 0; i < kNumbers; ++i) {
      const int n = std::snprintf(buf, sizeof(buf), "%.9g,",
                                  static_cast<double>(next() * 4.0f - 2.0f));
      text.append(buf, static_cast<std::size_t>(n));
    }
    std::iota(stream.begin(), stream.end(), std::uint64_t{1});
  }
};

/// Keeps the compiler from dropping work whose result is otherwise unused.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

double reference_slice_us() {
  static const Inputs in;
  const std::int64_t start = thread_cpu_us();

  std::vector<float> y(kDim, 0.0f);
  for (int rep = 0; rep < kMatVecReps; ++rep) {
    for (std::size_t j = 0; j < kDim; ++j) {
      const float xj = in.x[j];
      const float* column = in.w.data() + j * kDim;
      for (std::size_t i = 0; i < kDim; ++i) y[i] += column[i] * xj;
    }
    keep(y[0]);
  }

  double parsed = 0.0;
  const char* p = in.text.c_str();
  char* end = nullptr;
  for (int i = 0; i < kNumbers; ++i) {
    parsed += std::strtod(p, &end);
    p = end + 1;
  }
  keep(parsed);

  std::uint64_t sum = 0;
  for (int rep = 0; rep < kStreamReps; ++rep) {
    for (const std::uint64_t v : in.stream) {
      sum += v ^ static_cast<std::uint64_t>(rep);
    }
    keep(sum);
  }

  return static_cast<double>(thread_cpu_us() - start);
}

HostSpeed::HostSpeed()
    : thread_([this](const std::stop_token& stop) { run(stop); }) {}

void HostSpeed::run(const std::stop_token& stop) {
  // Each vCPU of a shared VM runs fast or slow by turns, independently of
  // the others (its host core's other hyperthread busy or not), so the
  // slices visit every CPU this process may use, one after another.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  const std::int64_t start = thread_cpu_us();
  std::unique_lock lock(mu_);
  for (std::size_t i = 0; !stop.stop_requested(); ++i) {
    const auto at = Clock::now();
    lock.unlock();
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i % cpus.size()], &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
    }
    const double us = reference_slice_us();
    cpu_us_.store(thread_cpu_us() - start);
    lock.lock();
    slices_.emplace_back(at, us);
    wake_.wait_until(lock, stop, at + kSliceInterval, [] { return false; });
  }
  cpu_us_.store(thread_cpu_us() - start);
}

double HostSpeed::slice_us(Clock::time_point from,
                           Clock::time_point to) const {
  std::vector<double> within;
  {
    std::lock_guard lock(mu_);
    for (const auto& [at, us] : slices_) {
      if (at >= from && at <= to) within.push_back(us);
    }
  }
  return within.empty() ? kReferenceSliceUs
                        : trimmed_mean(std::move(within), kTrim);
}

}  // namespace perfbench
