// perfbench: the serving benchmark over the trained DarNet ensemble.
//
//   perfbench --workload edge_closed|router_open|router_burst --seed N
//             --seconds S --trace 0
//   perfbench ... --trace 1 --trace-out PATH
//
// Trains the ensemble, serves it from a 2-shard serve::Router behind the
// http::Edge, drives one workload, checks every verdict against an
// offline reference and reconciles every request with the server's
// counters. The last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or with
// --trace 1 the per-layer ones (the spans then go to PATH as chrome-trace
// JSON). perfbench/README.md defines every metric.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "fixture.hpp"
#include "layers.hpp"
#include "parallel/pool.hpp"
#include "stats.hpp"
#include "tensor/kernels.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Set-up runs per benchmark run; setup_s is their median.
constexpr int kSetups = 3;
// The serving process runs its kernels on one thread. With the default
// pool (one thread per core) the two shards take turns on the one shared
// pool and every batch pass waits for the slowest of its threads, so a few
// percent of host steal tripled router_burst's median latency between
// identical runs; see README.md.
constexpr int kPoolThreads = 1;
// Two of the paper's 25 ms sensor-update periods.
constexpr double kSloMs = 50.0;
// The part of a request's latency taken as CPU work when scaling it to the
// reference host speed. The stage tables put forward passes, JSON and the
// network stack at about half of the p50 on edge_closed and router_open
// (the rest is the max_delay_us timer and wake-ups) and more on
// router_burst; README.md shows the spreads this choice gave.
constexpr double kLatencyCpuShare = 0.5;
// Session id ranges, so no two phases share server-side session state
// (the measured run starts at 0, the warm-up at fixture.cpp's 1 << 20).
constexpr std::uint64_t kReplayBase = 2u << 16;
constexpr std::uint64_t kProbeBase = 3u << 16;
constexpr std::uint64_t kSaturationBase = 4u << 16;
// Durations of the replays and probes of --trace 1, seconds.
constexpr double kReplaySeconds = 3.0;
constexpr double kProbeSeconds = 1.0;
// Chrome-trace thread ids of the replays.
constexpr int kReplayTid = 10;
constexpr int kLayerTid = 20;

struct Options {
  Workload workload{Workload::kEdgeClosed};
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string trace_out;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        const auto workload = parse_workload(value);
        if (!workload) return std::nullopt;
        options.workload = *workload;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !(options.seconds > 0.0) ||
      (options.trace && options.trace_out.empty())) {
    return std::nullopt;
  }
  return options;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

bool is_open_loop(Workload workload) {
  return workload == Workload::kRouterOpen ||
         workload == Workload::kRouterBurst;
}

/// p99 of sorted samples, or the highest lower percentile that still
/// keeps ten samples beyond it when there are fewer than 1000.
double tail_ms(const std::vector<double>& sorted) {
  const double q = std::min(0.99, highest_supported_quantile(sorted.size()));
  return q > 0.0 ? percentile(sorted, q) : 0.0;
}

// ---- one phase ----------------------------------------------------------------

struct Summary {
  OutcomeCounts counts;
  std::vector<double> latency_ms;  // OK requests, sorted
  std::vector<double> late_ms;     // sent - due, sorted
  double accuracy{0.0};
  double slo_attainment{0.0};
  double error_rate{0.0};
  double cpu_us_per_req{0.0};      // serving CPU, at the reference speed
  double raw_cpu_us_per_req{0.0};  // serving CPU, as measured
  double loadgen_cpu_us_per_req{0.0};
  double raw_latency_p50_ms{0.0};  // as measured
  double latency_p50_ms{0.0};      // at the reference speed
  double throughput_rps{0.0};
  std::vector<std::string> imbalances;
};

/// Latency: due -> verdict in the open loops,
/// send -> verdict in the closed ones.
double request_latency_ms(Workload workload, const Record& r) {
  return us_between(is_open_loop(workload) ? r.due : r.sent, r.done) / 1e3;
}

Summary summarize(const Phase& phase, const HeldOut& held) {
  Summary s;
  std::vector<std::uint64_t> seqs;
  std::uint64_t correct = 0, within_slo = 0;
  for (const Record& r : phase.records) {
    if (!r.counted) continue;
    seqs.push_back(r.seq);
    s.counts.add(r.outcome);
    s.late_ms.push_back(std::max(0.0, us_between(r.due, r.sent)) / 1e3);
    if (r.outcome != Outcome::kOk) continue;
    const double ms = request_latency_ms(phase.workload, r);
    s.latency_ms.push_back(ms);
    within_slo += ms <= kSloMs ? 1 : 0;
    correct += r.predicted == held.labels[static_cast<std::size_t>(r.frame)];
  }
  std::sort(s.latency_ms.begin(), s.latency_ms.end());
  std::sort(s.late_ms.begin(), s.late_ms.end());

  const auto sent = static_cast<std::uint64_t>(phase.records.size());
  const std::uint64_t ok = s.counts[Outcome::kOk];
  s.accuracy = ok > 0 ? static_cast<double>(correct) / static_cast<double>(ok)
                      : 0.0;
  s.slo_attainment =
      sent > 0 ? static_cast<double>(within_slo) / static_cast<double>(sent)
               : 0.0;
  s.error_rate = sent > 0 ? static_cast<double>(sent - ok) /
                                static_cast<double>(sent)
                          : 1.0;
  // The load generator's threads are the users' side, not the
  // operator's: their CPU time is left out.
  const auto per_ok = [&](std::int64_t us) {
    return ok > 0 ? static_cast<double>(us) / static_cast<double>(ok) : 0.0;
  };
  s.raw_cpu_us_per_req = per_ok(phase.cpu_us - phase.loadgen_cpu_us);
  s.loadgen_cpu_us_per_req = per_ok(phase.loadgen_cpu_us);
  s.cpu_us_per_req = at_reference_speed(s.raw_cpu_us_per_req, phase.slice_us,
                                        kReferenceSliceUs);
  s.raw_latency_p50_ms =
      s.latency_ms.empty() ? 0.0 : percentile(s.latency_ms, 0.5);
  s.latency_p50_ms =
      at_reference_speed(s.raw_latency_p50_ms, phase.slice_us,
                         kReferenceSliceUs, kLatencyCpuShare);
  s.throughput_rps =
      phase.wall_s > 0.0 ? static_cast<double>(ok) / phase.wall_s : 0.0;
  s.imbalances = conservation_errors(
      sent, seqs, s.counts, phase.serve,
      phase.workload == Workload::kEdgeClosed ? &phase.http : nullptr);
  return s;
}

/// Checks verdicts and conservation for one phase; prints its ledger.
Summary settle(Phase& phase, Fixture& fixture,
               const std::vector<Tensor>& fused, const char* label) {
  (void)check_verdicts(phase, fused,
                       fixture.router().config().shard.streaming);
  Summary s = summarize(phase, fixture.held_out());
  std::printf("# %s %s: sent=%zu", label, workload_name(phase.workload),
              phase.records.size());
  for (std::size_t o = 0; o < kOutcomes; ++o) {
    std::printf(" %s=%llu", outcome_name(static_cast<Outcome>(o)),
                static_cast<unsigned long long>(s.counts.n[o]));
  }
  std::printf(" conservation=%s\n",
              s.imbalances.empty() ? "balanced" : "IMBALANCED");
  for (const std::string& error : s.imbalances) {
    std::printf("#   imbalance: %s\n", error.c_str());
  }
  return s;
}

// ---- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
};

std::string number(double value) {
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %22s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
}

/// The result line: the last line of stdout.
void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// One request's spans: the HTTP call, or the time it waited for the
/// generator, the Router::submit call and the wait for its future.
void request_spans(const Phase& phase, int tid_base, std::vector<Span>& out) {
  for (const Record& r : phase.records) {
    if (!r.counted) continue;
    const int tid = tid_base + r.thread;
    if (phase.workload == Workload::kEdgeClosed) {
      out.push_back({"http.post", r.sent, r.done, tid, r.seq});
      continue;
    }
    const int submit_tid = is_open_loop(phase.workload) ? tid_base : tid;
    if (r.sent > r.due && is_open_loop(phase.workload)) {
      out.push_back({"load.late", r.due, r.sent, submit_tid, r.seq});
    }
    out.push_back({"router.submit", r.sent, r.submitted, submit_tid, r.seq});
    out.push_back({"future.wait", r.submitted, r.done, tid, r.seq});
  }
}

bool write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans) origin = std::min(origin, s.start);
  out << "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"seq\":%llu}}",
                  i ? ",\n" : "", s.name.c_str(), s.tid,
                  us_between(origin, s.start), us_between(s.start, s.end),
                  static_cast<unsigned long long>(s.id));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- per-layer metrics ----------------------------------------------------------

/// Mean microseconds of `field(record)` over a phase's OK requests.
template <typename F>
double mean_us(const Phase& phase, F&& field) {
  std::vector<double> values;
  for (const Record& r : phase.records) {
    if (r.counted && r.outcome == Outcome::kOk) values.push_back(field(r));
  }
  return mean(values);
}

void add_model(std::vector<Metric>& metrics, const std::string& prefix,
               const ModelTimes& b1, const ModelTimes& b8) {
  metrics.push_back({prefix + "_us.b1", "us", b1.forward_us});
  metrics.push_back({prefix + "_us.b8", "us", b8.forward_us});
  metrics.push_back({prefix + ".layers_sum_us.b1", "us", b1.layers_sum_us()});
  metrics.push_back({prefix + ".layers_sum_us.b8", "us", b8.layers_sum_us()});
  for (std::size_t i = 0; i < b1.layer_us.size(); ++i) {
    metrics.push_back(
        {prefix + "." + b1.layer_names[i] + "_us.b1", "us", b1.layer_us[i]});
    metrics.push_back(
        {prefix + "." + b8.layer_names[i] + "_us.b8", "us", b8.layer_us[i]});
  }
  std::printf("# %s: forward b1 %.1f us, layers b1 %.1f us (chain residual "
              "%.1f); forward b8 %.1f us, layers b8 %.1f us (residual %.1f)\n",
              prefix.c_str(), b1.forward_us, b1.layers_sum_us(),
              b1.forward_us - b1.layers_sum_us(), b8.forward_us,
              b8.layers_sum_us(), b8.forward_us - b8.layers_sum_us());
}

int run(int argc, char** argv) {
  const auto parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: perfbench --workload edge_closed|router_open|"
                 "router_burst --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH, required with --trace 1]\n");
    return 2;
  }
  const Options& opt = *parsed;
  const Workload workload = opt.workload;
  darnet::parallel::set_thread_count(kPoolThreads);
  const HostSpeed speed;

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(workload),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("# env: isa=%s nproc=%ld pool_threads=%d build=%s\n",
              darnet::tensor::kernels::isa_name(
                  darnet::tensor::kernels::active()),
              sysconf(_SC_NPROCESSORS_ONLN), darnet::parallel::thread_count(),
              PERFBENCH_BUILD_TYPE);

  // Set up several times; serve from the last set-up. Each set-up's CPU
  // times are scaled by the host speed sampled while it ran.
  std::vector<double> setup_total, setup_raw, setup_speed, datagen, train,
      start, warmup, wall;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();
    const auto from = Clock::now();
    fixture = std::make_unique<Fixture>(speed);
    const double slice = speed.slice_us(from, Clock::now());
    const auto scaled = [&](double cpu_s) {
      return at_reference_speed(cpu_s, slice, kReferenceSliceUs);
    };
    const SetupTimes& t = fixture->times();
    setup_total.push_back(scaled(t.total()));
    setup_raw.push_back(t.total());
    setup_speed.push_back(kReferenceSliceUs / slice);
    datagen.push_back(scaled(t.datagen_s));
    train.push_back(scaled(t.train_s));
    start.push_back(scaled(t.start_s));
    warmup.push_back(scaled(t.warmup_s));
    wall.push_back(t.wall_s);
  }
  const HeldOut& held = fixture->held_out();
  std::printf("# setup: %d runs, median CPU %.3f s at reference speed (datagen "
              "%.3f, train %.3f, start %.4f, warm-up %.3f); as measured "
              "%.3f s at host speed %.3f; median wall %.3f s\n",
              kSetups, median(setup_total), median(datagen), median(train),
              median(start), median(warmup), median(setup_raw),
              median(setup_speed), median(wall));

  // Offline reference rows: classify_batch at batch 1, once per sample.
  std::vector<Tensor> fused;
  for (int i = 0; i < held.size(); ++i) {
    fused.push_back(fixture->reference_ensemble().classify_batch(
        held.frames[static_cast<std::size_t>(i)],
        held.imu[static_cast<std::size_t>(i)]));
  }

  // Give the garbage of the earlier set-ups back to the kernel, as a server
  // that trained or loaded its model once would not hold it. Left to
  // itself, glibc returns it in some runs and not in others, and the
  // resident set the workload starts from differs by about 20 MB.
  (void)malloc_trim(0);
  const double start_rss_mb = status_mb("VmRSS");

  // Every measured phase folds into the result line's correct, attempted
  // and failed.
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  const auto account = [&](const Phase& phase, const Summary& s) {
    correct = correct && s.imbalances.empty() &&
              s.counts[Outcome::kVerdictMismatch] == 0;
    attempted += phase.records.size();
    failed += s.counts.failed();
  };

  Phase measured = run_phase(workload, *fixture, opt.seed, opt.seconds, 0);
  const Summary base = settle(measured, *fixture, fused, "measured");
  account(measured, base);

  const double latency_p99 = tail_ms(base.latency_ms);
  const double host_speed = kReferenceSliceUs / measured.slice_us;
  std::printf("# host: steal_pct=%.2f host_speed=%.3f wall_s=%.3f "
              "throughput_rps=%.1f latency_p99_ms=%.3f (%zu samples) "
              "error_rate=%.6f\n",
              measured.steal_pct, host_speed, measured.wall_s,
              base.throughput_rps, latency_p99, base.latency_ms.size(),
              base.error_rate);
  std::printf("# cpu per OK request: serving %.1f us as measured, %.1f us at "
              "reference speed; load generator %.1f us (left out)\n",
              base.raw_cpu_us_per_req, base.cpu_us_per_req,
              base.loadgen_cpu_us_per_req);
  std::printf("# latency p50: %.4f ms as measured, %.4f ms at reference "
              "speed\n",
              base.raw_latency_p50_ms, base.latency_p50_ms);
  std::printf("# peak RSS %.1f MB after %s requests (resident %.1f MB "
              "before the first)\n",
              measured.rss_mb,
              measured.rss_at_end
                  ? "all (fewer than the mark)"
                  : std::to_string(static_cast<std::uint64_t>(
                                       kRssRequestsPerSecond * opt.seconds))
                        .c_str(),
              start_rss_mb);

  // The end-to-end metrics. error_rate is printed but not gated: it is 0
  // on a healthy run, and failures already count against slo_attainment
  // and in "failed".
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", median(setup_total)},
      {"peak_rss_mb", "MB", measured.rss_mb},
      {"cpu_us_per_req", "us", base.cpu_us_per_req},
      {"latency_p50_ms", "ms", base.latency_p50_ms},
      {"slo_attainment", "ratio", base.slo_attainment},
      {"accuracy", "ratio", base.accuracy},
  };
  print_metrics(end_to_end);
  print_metrics({{"error_rate", "ratio", base.error_rate}});
  if (!opt.trace) {
    print_result(correct, attempted, failed, end_to_end);
    return correct ? 0 : 1;
  }

  // ---- traced mode: spans of the measured run, then layer peeling ----
  // Every run keeps the stamps the spans are built from, so tracing adds
  // nothing to the measured phase and there is no second run to compare.
  std::vector<Span> spans;
  request_spans(measured, 0, spans);

  // Above the router: GET /healthz, POST /classify and Router::submit in
  // closed loops at the workload's concurrency (3 clients for edge_closed,
  // whose measured run supplies the /classify figure; 1 for the router
  // workloads).
  const bool edge = workload == Workload::kEdgeClosed;
  const int clients = edge ? kEdgeClients : 1;
  std::uint64_t probe_failures = 0;
  const std::vector<double> healthz =
      healthz_rtts_us(*fixture, clients, kProbeSeconds, probe_failures);
  Phase router_direct =
      run_phase(Workload::kRouterClosed, *fixture, opt.seed,
                edge ? kReplaySeconds : kProbeSeconds, kReplayBase, clients);
  account(router_direct, settle(router_direct, *fixture, fused, "replay"));
  request_spans(router_direct, kReplayTid, spans);
  std::optional<Phase> http_probe;
  if (!edge) {
    http_probe = run_phase(Workload::kEdgeClosed, *fixture, opt.seed,
                           kProbeSeconds, kProbeBase, clients);
    account(*http_probe, settle(*http_probe, *fixture, fused, "probe"));
  }
  const Phase& http_phase = edge ? measured : *http_probe;
  // The highest rate the shards sustain: completions per second with a
  // bounded queue kept full (printed, not gated).
  Phase saturated = run_phase(Workload::kRouterSaturated, *fixture, opt.seed,
                              kProbeSeconds, kSaturationBase);
  const Summary capacity = settle(saturated, *fixture, fused, "capacity");
  account(saturated, capacity);
  std::printf("# capacity: %.1f req/s, batch rows %.2f\n",
              capacity.throughput_rps,
              saturated.serve.batches > 0
                  ? static_cast<double>(saturated.serve.batched_rows) /
                        static_cast<double>(saturated.serve.batches)
                  : 0.0);
  attempted += healthz.size();
  failed += probe_failures;
  correct = correct && probe_failures == 0;

  // Below the router: the workload's first inputs on the reference replica.
  std::vector<int> inputs;
  for (const Record& r : measured.records) inputs.push_back(r.frame);
  const LayerReplay layers = replay_layers(*fixture, inputs, spans, kLayerTid);

  // serve.* come from the measured run on the router workloads and from
  // the router-direct replay on edge_closed. The shard's own timers give
  // its latency (admission to verdict) and its batch passes.
  const Phase& serve_phase = edge ? router_direct : measured;
  const double submit_us = mean_us(
      serve_phase,
      [](const Record& r) { return us_between(r.sent, r.submitted); });
  const double rtt_us = mean_us(
      serve_phase, [](const Record& r) { return us_between(r.sent, r.done); });
  const double shard_us = serve_phase.shard.latency_us();
  const double execute_us = serve_phase.shard.execute_us();
  const double queue_us = shard_us - execute_us;
  const double rows =
      serve_phase.serve.batches > 0
          ? static_cast<double>(serve_phase.serve.batched_rows) /
                static_cast<double>(serve_phase.serve.batches)
          : 1.0;
  const double classify_rtt_us = mean_us(
      http_phase, [](const Record& r) { return us_between(r.sent, r.done); });
  const double healthz_us = mean(healthz);
  const double probe_serve_rtt_us =
      edge ? rtt_us
           : mean_us(router_direct, [](const Record& r) {
               return us_between(r.sent, r.done);
             });
  const double body_us = classify_rtt_us - healthz_us - probe_serve_rtt_us;

  // Stage table: every stage mean against the end-to-end mean. The shard
  // times its own part, so the residual is the router round trip that
  // neither Router::submit nor the shard covers: handing the verdict to
  // the future and waking the thread that waits on it.
  const auto at_rows = [&](double b1, double b8) {
    return engine_us_at(rows, b1, b8);
  };
  const double cnn_us = at_rows(layers.b1.frame_cnn.forward_us,
                                layers.b8.frame_cnn.forward_us);
  const double rnn_us =
      at_rows(layers.b1.imu_rnn.forward_us, layers.b8.imu_rnn.forward_us);
  const double combine_us = at_rows(layers.b1.combine_us, layers.b8.combine_us);
  std::vector<Stage> stages;
  if (edge) {
    stages.push_back({"http.healthz (transport + dispatch)", healthz_us});
    stages.push_back({"http.body (parse + serialise + transfer)", body_us});
  } else {
    stages.push_back({"load.late (due -> sent)",
                      mean_us(measured, [](const Record& r) {
                        return us_between(r.due, r.sent);
                      })});
  }
  stages.push_back({"serve.submit", submit_us});
  stages.push_back({"serve.queue (shard latency - batch pass)", queue_us});
  stages.push_back({"nn.frame_cnn", cnn_us});
  stages.push_back({"nn.imu_rnn", rnn_us});
  stages.push_back({"bayes.combine", combine_us});
  stages.push_back({"engine.self (batch pass - models)",
                    execute_us - cnn_us - rnn_us - combine_us});
  const double e2e_us = mean_us(measured, [&](const Record& r) {
    return request_latency_ms(workload, r) * 1e3;
  });
  const Residual residual = stage_residual(stages, e2e_us);
  std::printf("# stage means (batch rows %.2f; serve.* from the %s):\n", rows,
              edge ? "router-direct replay" : "measured run");
  for (const Stage& stage : stages) {
    std::printf("#   %-42s %10.1f us %6.1f%%\n", stage.name.c_str(),
                stage.mean_us, 100.0 * stage.mean_us / e2e_us);
  }
  std::printf("#   %-42s %10.1f us\n#   %-42s %10.1f us\n"
              "#   %-42s %10.1f us %6.1f%%\n",
              "sum of stages", residual.sum_us, "end-to-end mean", e2e_us,
              "residual (verdict hand-off + wake-up)", residual.residual_us,
              residual.residual_pct);

  std::vector<Metric> metrics = {
      {"setup.datagen_s", "s", median(datagen)},
      {"setup.train_s", "s", median(train)},
      {"setup.start_s", "s", median(start)},
      {"setup.warmup_s", "s", median(warmup)},
      {"setup.wall_s", "s", median(wall)},
      {"http.classify_rtt_us", "us", classify_rtt_us},
      {"http.healthz_rtt_us", "us", healthz_us},
      {"http.body_us", "us", body_us},
      {"http.connections", "count",
       static_cast<double>(measured.http.connections)},
      {"http.overloaded", "count",
       static_cast<double>(measured.http.overloaded)},
      {"http.bad_requests", "count",
       static_cast<double>(measured.http.bad_requests)},
      {"serve.submit_us", "us", submit_us},
      {"serve.rtt_us", "us", rtt_us},
      {"serve.shard_latency_us", "us", shard_us},
      {"serve.batch_execute_us", "us", execute_us},
      {"serve.queue_us", "us", queue_us},
      {"serve.batch_rows_mean", "rows", rows},
      {"serve.batches", "count",
       static_cast<double>(serve_phase.serve.batches)},
      {"serve.shed", "count", static_cast<double>(serve_phase.serve.shed)},
      {"serve.rejected", "count",
       static_cast<double>(serve_phase.serve.rejected +
                           serve_phase.serve.quota_rejected)},
      {"serve.timeouts", "count",
       static_cast<double>(serve_phase.serve.timeouts)},
      {"engine.classify_batch_us.b1", "us", layers.b1.classify_us},
      {"engine.classify_batch_us.b8", "us", layers.b8.classify_us},
      {"bayes.combine_us.b1", "us", layers.b1.combine_us},
      {"bayes.combine_us.b8", "us", layers.b8.combine_us},
  };
  add_model(metrics, "nn.frame_cnn", layers.b1.frame_cnn, layers.b8.frame_cnn);
  add_model(metrics, "nn.imu_rnn", layers.b1.imu_rnn, layers.b8.imu_rnn);
  metrics.insert(
      metrics.end(),
      {
          {"env.steal_pct", "%", measured.steal_pct},
          {"env.pool_threads", "count",
           static_cast<double>(darnet::parallel::thread_count())},
          {"env.host_speed", "ratio", host_speed},
          {"env.setup_host_speed", "ratio", median(setup_speed)},
          {"env.raw_setup_s", "s", median(setup_raw)},
          {"env.raw_cpu_us_per_req", "us", base.raw_cpu_us_per_req},
          {"env.loadgen_cpu_us_per_req", "us", base.loadgen_cpu_us_per_req},
          {"env.raw_latency_p50_ms", "ms", base.raw_latency_p50_ms},
          {"load.late_p99_ms", "ms", tail_ms(base.late_ms)},
          {"throughput_rps", "1/s", base.throughput_rps},
          {"load.capacity_rps", "1/s", capacity.throughput_rps},
          {"latency_p99_ms", "ms", latency_p99},
          {"latency_samples", "count",
           static_cast<double>(base.latency_ms.size())},
          {"trace.overhead_pct", "%", 0.0},
          {"trace.stage_residual_us", "us", residual.residual_us},
          {"trace.stage_residual_pct", "%", residual.residual_pct},
          {"trace.spans", "count", static_cast<double>(spans.size())},
      });

  if (!write_trace(opt.trace_out, spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.trace_out.c_str());
    return 1;
  }
  std::printf("# trace: %zu spans -> %s\n", spans.size(),
              opt.trace_out.c_str());
  print_metrics(metrics);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
