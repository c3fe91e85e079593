// Unit tests of the benchmark's statistics code (perfbench/stats.hpp).
//
//   cmake --build .bench_build --target perfbench_stats_test
//   .bench_build/perfbench_stats_test
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "calibrate.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = ramp(100);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 0.01), 7.0);
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 0.0), std::invalid_argument);
}

TEST(Percentile, KeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  // p99 needs 1000 samples, p99.9 needs 10000.
  EXPECT_EQ(highest_supported_quantile(999), 0.9);
  EXPECT_EQ(highest_supported_quantile(1000), 0.99);
  EXPECT_EQ(highest_supported_quantile(9999), 0.99);
  EXPECT_EQ(highest_supported_quantile(10000), 0.999);
  EXPECT_EQ(highest_supported_quantile(20), 0.5);
  EXPECT_EQ(highest_supported_quantile(19), 0.0);
  // The value it picks really has ten samples above it.
  const auto v = ramp(1000);
  const double p = percentile(v, highest_supported_quantile(v.size()));
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > p; }),
            10);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(TrimmedMean, DropsTheTailsAndKeepsBothModes) {
  // One outlier at each end of ten: a tenth trimmed drops both.
  EXPECT_DOUBLE_EQ(trimmed_mean({100, 2, 2, 2, 2, 4, 4, 4, 4, -50}, 0.1), 3.0);
  // Fewer than ten values: nothing to drop.
  EXPECT_DOUBLE_EQ(trimmed_mean({1.0, 2.0, 6.0}, 0.1), 3.0);
  // Slices from a fast and a slow vCPU: the median jumps to whichever
  // mode has one more slice; the mean stays between them.
  const std::vector<double> fast_heavy{1300, 1300, 1300, 1310, 1320,
                                       2000, 2000, 2010, 2020, 2030};
  EXPECT_DOUBLE_EQ(trimmed_mean(fast_heavy, 0.1), 1657.5);
  EXPECT_EQ(trimmed_mean({}, 0.1), 0.0);
}

TEST(CpuTime, DeltaAddsUserAndSystemAcrossSecondCarry) {
  rusage before{};
  before.ru_utime = {10, 900'000};
  before.ru_stime = {2, 999'999};
  rusage after{};
  after.ru_utime = {11, 100'000};  // +0.2 s across a second boundary
  after.ru_stime = {3, 000'001};   // +2 us
  EXPECT_EQ(cpu_us(before), 13'899'999);
  EXPECT_EQ(cpu_us_delta(before, after), 200'002);
  EXPECT_EQ(cpu_us_delta(after, after), 0);
}

TEST(CpuTime, ThreadClockCountsOnlyThisThreadsWork) {
  const std::int64_t before = thread_cpu_us();
  volatile double sink = 0.0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + 1e-9 * i;
  const std::int64_t busy = thread_cpu_us() - before;
  EXPECT_GT(busy, 0);
  // A sleeping thread uses (almost) none.
  const std::int64_t idle_start = thread_cpu_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(thread_cpu_us() - idle_start, 5'000);
}

TEST(HostSpeed, ScalesCpuTimeToTheReferenceSlice) {
  // The host ran the slice in 2500 us where the reference takes 2000: it
  // was 25% slow, so 1000 us of work counts as 800 at reference speed.
  EXPECT_DOUBLE_EQ(at_reference_speed(1000.0, 2500.0, 2000.0), 800.0);
  EXPECT_DOUBLE_EQ(at_reference_speed(1000.0, 1600.0, 2000.0), 1250.0);
  EXPECT_DOUBLE_EQ(at_reference_speed(1000.0, 0.0, 2000.0), 1000.0);
  // Half of a latency is CPU work: only that half is scaled.
  EXPECT_DOUBLE_EQ(at_reference_speed(1000.0, 2500.0, 2000.0, 0.5), 900.0);
  EXPECT_DOUBLE_EQ(at_reference_speed(1000.0, 2500.0, 2000.0, 0.0), 1000.0);
}

TEST(HostSpeed, SamplerTimesSlicesInItsWindow) {
  const HostSpeed speed;
  const auto from = HostSpeed::Clock::now();
  std::this_thread::sleep_for(3 * kSliceInterval + kSliceInterval / 2);
  const auto to = HostSpeed::Clock::now();
  EXPECT_GT(speed.cpu_us(), 0);
  const double slice = speed.slice_us(from, to);
  EXPECT_GT(slice, 0.0);
  EXPECT_NE(slice, kReferenceSliceUs);
  // No slice started in a window before the sampler existed.
  EXPECT_EQ(speed.slice_us(from - std::chrono::hours(1),
                           from - std::chrono::minutes(59)),
            kReferenceSliceUs);
}

TEST(ProcStatus, ReadsKbFields) {
  const std::string status =
      "Name:\tperfbench\nVmPeak:\t  812340 kB\nVmHWM:\t   91875 kB\n"
      "VmRSS:\t   90112 kB\nThreads:\t9\n";
  EXPECT_EQ(parse_status_kb(status, "VmHWM"), 91875u);
  EXPECT_EQ(parse_status_kb(status, "VmRSS"), 90112u);
  EXPECT_EQ(parse_status_kb(status, "VmSwap"), std::nullopt);
  EXPECT_EQ(parse_status_kb(status, "Vm"), std::nullopt);  // no prefix match
  EXPECT_EQ(parse_status_kb(status, "Threads"), std::nullopt);  // not kB
  EXPECT_EQ(parse_status_kb("VmHWM:\t abc kB\n", "VmHWM"), std::nullopt);
  EXPECT_EQ(parse_status_kb("VmHWM:\t 12", "VmHWM"), std::nullopt);
  EXPECT_EQ(parse_status_kb("", "VmHWM"), std::nullopt);
}

TEST(ProcStat, ParsesStealAndShare) {
  const auto a = parse_proc_stat(
      "cpu  100 5 50 800 10 1 4 30 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->user, 100u);
  EXPECT_EQ(a->steal, 30u);
  EXPECT_EQ(a->total(), 1000u);
  const auto b = parse_proc_stat("cpu  200 5 100 1500 10 1 4 180 0 0");
  ASSERT_TRUE(b.has_value());
  // 150 of the 1000 ticks that elapsed were stolen.
  EXPECT_DOUBLE_EQ(steal_pct(*a, *b), 15.0);
  EXPECT_EQ(steal_pct(*b, *b), 0.0);
}

TEST(ProcStat, OldKernelsAndGarbage) {
  const auto old = parse_proc_stat("cpu 1 2 3 4");
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->steal, 0u);
  EXPECT_FALSE(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8").has_value());
  EXPECT_FALSE(parse_proc_stat("cpu 1 2 3").has_value());
  EXPECT_FALSE(parse_proc_stat("cpu 1 2 x 4").has_value());
  EXPECT_FALSE(parse_proc_stat("").has_value());
}

// A balanced router-workload ledger: 10 sent, 8 served, 1 shed, 1 quota
// rejection.
struct Ledger {
  std::vector<std::uint64_t> seqs{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  OutcomeCounts counts;
  ServeDelta serve;
  Ledger() {
    for (int i = 0; i < 8; ++i) counts.add(Outcome::kOk);
    counts.add(Outcome::kShed);
    counts.add(Outcome::kRejected);
    serve.routed = 9;
    serve.quota_rejected = 1;
    serve.submitted = 9;
    serve.shed = 1;
    serve.completed = 8;
    serve.batches = 3;
    serve.batched_rows = 8;
  }
};

TEST(Conservation, BalancedLedgerPasses) {
  Ledger l;
  EXPECT_EQ(l.counts.total(), 10u);
  EXPECT_EQ(l.counts.failed(), 2u);
  EXPECT_TRUE(conservation_errors(10, l.seqs, l.counts, l.serve, nullptr)
                  .empty());
}

TEST(Conservation, LostAndDuplicatedSequenceNumbers) {
  Ledger l;
  l.seqs[3] = 2;  // seq 3 lost, seq 2 counted twice
  const auto errors =
      conservation_errors(10, l.seqs, l.counts, l.serve, nullptr);
  EXPECT_EQ(errors.size(), 2u);
}

TEST(Conservation, SentMustEqualSumOfOutcomes) {
  Ledger l;
  l.seqs.push_back(10);
  EXPECT_FALSE(
      conservation_errors(11, l.seqs, l.counts, l.serve, nullptr).empty());
}

TEST(Conservation, ServerCountersMustAgree) {
  Ledger l;
  l.serve.completed = 7;  // a verdict the server never counted
  l.serve.batched_rows = 7;
  EXPECT_FALSE(
      conservation_errors(10, l.seqs, l.counts, l.serve, nullptr).empty());
  Ledger m;
  m.serve.shed = 0;
  EXPECT_FALSE(
      conservation_errors(10, m.seqs, m.counts, m.serve, nullptr).empty());
}

TEST(Conservation, MismatchedVerdictsStillCountAsServed) {
  Ledger l;
  l.counts.n[static_cast<std::size_t>(Outcome::kOk)] = 6;
  l.counts.add(Outcome::kVerdictMismatch);
  l.counts.add(Outcome::kVerdictMismatch);
  EXPECT_TRUE(conservation_errors(10, l.seqs, l.counts, l.serve, nullptr)
                  .empty());
}

TEST(Conservation, EdgeCountersReconcile) {
  // 10 posts: 8 served, 1 malformed (400), 1 rejected by quota (429).
  std::vector<std::uint64_t> seqs{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  OutcomeCounts counts;
  for (int i = 0; i < 8; ++i) counts.add(Outcome::kOk);
  counts.add(Outcome::kHttp4xx);
  counts.add(Outcome::kRejected);
  ServeDelta serve;
  serve.routed = 8;
  serve.quota_rejected = 1;
  serve.submitted = 8;
  serve.completed = 8;
  serve.batched_rows = 8;
  HttpDelta http{10, 9, 2, 0};
  EXPECT_TRUE(conservation_errors(10, seqs, counts, serve, &http).empty());
  http.bad_requests = 1;
  EXPECT_FALSE(conservation_errors(10, seqs, counts, serve, &http).empty());
  http = {9, 9, 2, 0};  // a connection the edge never saw
  EXPECT_FALSE(conservation_errors(10, seqs, counts, serve, &http).empty());
  http = {10, 8, 2, 0};  // a routed request the handler never counted
  EXPECT_FALSE(conservation_errors(10, seqs, counts, serve, &http).empty());
}

TEST(Stages, ResidualIsWhatTheStagesLeave) {
  const Residual r =
      stage_residual({{"a", 100.0}, {"b", 250.0}, {"c", 50.0}}, 500.0);
  EXPECT_DOUBLE_EQ(r.sum_us, 400.0);
  EXPECT_DOUBLE_EQ(r.residual_us, 100.0);
  EXPECT_DOUBLE_EQ(r.residual_pct, 20.0);
  // Stages that overshoot leave a negative residual.
  EXPECT_DOUBLE_EQ(stage_residual({{"a", 600.0}}, 500.0).residual_pct, -20.0);
  EXPECT_EQ(stage_residual({}, 0.0).residual_pct, 0.0);
}

TEST(Stages, EngineTimeInterpolatesBetweenBatchOneAndEight) {
  EXPECT_DOUBLE_EQ(engine_us_at(1.0, 500.0, 2600.0), 500.0);
  EXPECT_DOUBLE_EQ(engine_us_at(8.0, 500.0, 2600.0), 2600.0);
  EXPECT_DOUBLE_EQ(engine_us_at(4.5, 500.0, 2600.0), 1550.0);
}

}  // namespace
}  // namespace perfbench
