// Shard-scaling benchmark for the serve::Router tier (PR 9).
//
// Two legs:
//
//  1. Scaling: a saturated closed loop -- kRequests submitted round-robin
//     across kSessions as fast as admission allows -- wall-clocked from
//     first submit to drain at 1, 2 and 4 shards. Aggregate
//     requests/second per shard count plus the speedup vs 1 shard. The
//     shards are independent servers (own worker, own queue) sharing one
//     ensemble that inference never writes, so on a machine with >= 4
//     free cores the 4-shard curve should clear kScalingGate (3.5x); on
//     the shared single-vCPU CI box the measurement records what overlap
//     the scheduler actually grants, and the JSON carries the core count
//     so the number can be read in context rather than lied about.
//  2. Hot-swap gate (hard acceptance, any machine): mid-traffic
//     swap_snapshot to same-architecture replicas on 4 shards must lose
//     nothing -- every request resolves kOk (zero dropped), every
//     session maps to the same shard before and after (zero misrouted;
//     the ring depends only on shard count), and every session's verdict
//     stream stays bit-identical to the single-threaded
//     StreamingClassifier reference across the flip.
//
// Prints a human table plus a JSON blob (checked in as BENCH_shard.json).
// Exits 2 if the hot-swap gate fails or any request is dropped -- hard
// failures on any machine -- and 1 if the 4-shard scaling gate misses on a
// host with at least 4 hardware threads.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <vector>

#include "engine/engine.hpp"
#include "engine/streaming.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "parallel/pool.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;

constexpr int kFrameFeatures = 256;
constexpr int kHidden = 256;
constexpr int kClasses = 6;
constexpr int kRequests = 512;
constexpr int kSessions = 64;
constexpr int kReps = 3;
constexpr double kScalingGate = 3.5;  // 4-shard speedup target (>= 4 cores)

std::shared_ptr<engine::EnsembleClassifier> make_ensemble() {
  util::Rng rng(1234);
  auto model = std::make_shared<nn::Sequential>();
  model->emplace<nn::Dense>(kFrameFeatures, kHidden, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Dense>(kHidden, kClasses, rng);
  auto frames = std::make_shared<engine::NeuralClassifier>(model, kClasses,
                                                           "dense-shard");
  return std::make_shared<engine::EnsembleClassifier>(
      frames, nullptr, bayes::ClassMap::darnet_default());
}

/// Every shard serves one ensemble: inference writes nothing into it.
serve::Router::Snapshot make_snapshot(int shards, std::uint64_t version) {
  serve::Router::Snapshot snapshot;
  snapshot.version = version;
  snapshot.replicas.assign(static_cast<std::size_t>(shards), make_ensemble());
  return snapshot;
}

serve::RouterConfig make_config(int shards) {
  serve::RouterConfig config;
  config.shards = shards;
  config.shard.max_batch = 8;
  config.shard.queue_capacity = kRequests;
  config.shard.shed_oldest = false;  // any overflow would be a bench bug
  return config;
}

/// Saturated closed loop through the router; requests/second, best of
/// kReps (best-of so shared-VM load spikes cannot manufacture speedups).
double throughput_rps(const std::vector<Tensor>& frames, int shards) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    serve::Router router(make_snapshot(shards, 1), make_config(shards));
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(kRequests);
    util::Stopwatch timer;
    for (int i = 0; i < kRequests; ++i) {
      engine::ClassifyRequest request;
      request.session_id = static_cast<std::uint64_t>(i % kSessions);
      request.frame = frames[static_cast<std::size_t>(i % kSessions)];
      auto sub = router.submit(std::move(request));
      if (sub.admit != serve::Admit::kAccepted) {
        std::cerr << "bench_shard: request " << i << " not accepted\n";
        std::exit(2);
      }
      futures.push_back(std::move(sub.response));
    }
    router.drain();
    const double seconds = timer.seconds();
    for (auto& future : futures) {
      if (future.get().status != serve::Status::kOk) {
        std::cerr << "bench_shard: request dropped\n";
        std::exit(2);
      }
    }
    best = std::max(best, static_cast<double>(kRequests) / seconds);
  }
  return best;
}

struct SwapGate {
  bool zero_dropped{true};
  bool zero_misrouted{true};
  bool bit_identical{true};
  std::uint64_t swaps_applied{0};
};

/// Mid-traffic snapshot flip on 4 shards vs the single-threaded
/// reference streams.
SwapGate hot_swap_gate() {
  constexpr int kSwapShards = 4;
  constexpr int kSwapSessions = 32;
  constexpr int kSteps = 30;

  auto reference_ensemble = make_ensemble();
  util::Rng rng(91);
  std::vector<std::vector<Tensor>> frames(kSwapSessions);
  std::vector<std::vector<engine::StreamingVerdict>> reference(
      kSwapSessions);
  for (int s = 0; s < kSwapSessions; ++s) {
    engine::StreamingClassifier stream(reference_ensemble,
                                       engine::StreamingConfig{});
    for (int t = 0; t < kSteps; ++t) {
      frames[s].push_back(
          Tensor::uniform({1, kFrameFeatures}, 1.0f, rng));
      reference[s].push_back(stream.step(frames[s][t], Tensor{}));
    }
  }

  serve::Router router(make_snapshot(kSwapShards, 1),
                       make_config(kSwapShards));
  std::vector<int> shard_before(kSwapSessions);
  for (int s = 0; s < kSwapSessions; ++s) {
    shard_before[s] = router.shard_for(static_cast<std::uint64_t>(s));
  }

  SwapGate gate;
  std::vector<std::vector<std::future<serve::Response>>> futures(
      kSwapSessions);
  for (int t = 0; t < kSteps; ++t) {
    if (t == kSteps / 2) router.swap_snapshot(make_snapshot(kSwapShards, 2));
    for (int s = 0; s < kSwapSessions; ++s) {
      auto sub = router.submit([&] {
        engine::ClassifyRequest request;
        request.session_id = static_cast<std::uint64_t>(s);
        request.frame = frames[s][static_cast<std::size_t>(t)];
        return request;
      }());
      if (sub.admit != serve::Admit::kAccepted) gate.zero_dropped = false;
      futures[s].push_back(std::move(sub.response));
    }
  }
  router.drain();

  for (int s = 0; s < kSwapSessions; ++s) {
    if (router.shard_for(static_cast<std::uint64_t>(s)) !=
        shard_before[s]) {
      gate.zero_misrouted = false;
    }
    for (int t = 0; t < kSteps; ++t) {
      serve::Response response = futures[s][static_cast<std::size_t>(t)].get();
      if (response.status != serve::Status::kOk) {
        gate.zero_dropped = false;
        continue;
      }
      const auto& got = response.result.verdict;
      const auto& want = reference[s][static_cast<std::size_t>(t)];
      if (got.predicted != want.predicted ||
          got.distribution.numel() != want.distribution.numel()) {
        gate.bit_identical = false;
        continue;
      }
      for (std::size_t i = 0; i < want.distribution.numel(); ++i) {
        if (got.distribution[i] != want.distribution[i]) {
          gate.bit_identical = false;
        }
      }
    }
  }
  gate.swaps_applied = router.stats().snapshot_swaps;
  return gate;
}

}  // namespace

int main() {
  util::Rng rng(7);
  std::vector<Tensor> frames;
  frames.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    frames.push_back(Tensor::uniform({1, kFrameFeatures}, 1.0f, rng));
  }

  const int cores = parallel::thread_count();
  std::printf("bench_shard: %d requests, %d sessions, Dense %d->%d->%d, "
              "%d hardware threads\n\n",
              kRequests, kSessions, kFrameFeatures, kHidden, kClasses,
              cores);

  const std::vector<int> shard_counts = {1, 2, 4};
  std::vector<double> rps;
  std::printf("  %-8s %12s %10s\n", "shards", "rps", "speedup");
  for (const int shards : shard_counts) {
    rps.push_back(throughput_rps(frames, shards));
    std::printf("  %-8d %12.1f %9.2fx\n", shards, rps.back(),
                rps.back() / rps.front());
  }
  const double speedup4 = rps.back() / rps.front();

  const SwapGate gate = hot_swap_gate();
  std::printf("\n  hot-swap gate: dropped=%s misrouted=%s "
              "bit_identical=%s swaps=%llu\n",
              gate.zero_dropped ? "none" : "SOME",
              gate.zero_misrouted ? "none" : "SOME",
              gate.bit_identical ? "yes" : "NO",
              static_cast<unsigned long long>(gate.swaps_applied));

  const bool scaling_ok = speedup4 >= kScalingGate;
  const bool swap_ok = gate.zero_dropped && gate.zero_misrouted &&
                       gate.bit_identical && gate.swaps_applied == 1;

  std::printf("\n{\n");
  std::printf("  \"benchmark\": \"bench/bench_shard.cpp\",\n");
  std::printf("  \"requests\": %d,\n", kRequests);
  std::printf("  \"sessions\": %d,\n", kSessions);
  std::printf("  \"hardware_threads\": %d,\n", cores);
  std::printf("  \"throughput_rps\": {\"shards_1\": %.1f, \"shards_2\": "
              "%.1f, \"shards_4\": %.1f},\n",
              rps[0], rps[1], rps[2]);
  std::printf("  \"speedup_4_shards\": %.2f,\n", speedup4);
  std::printf("  \"hot_swap\": {\"zero_dropped\": %s, \"zero_misrouted\": "
              "%s, \"bit_identical\": %s, \"swaps_applied\": %llu},\n",
              gate.zero_dropped ? "true" : "false",
              gate.zero_misrouted ? "true" : "false",
              gate.bit_identical ? "true" : "false",
              static_cast<unsigned long long>(gate.swaps_applied));
  std::printf("  \"criteria\": {\"speedup_4_shards_ge_3p5\": %s, "
              "\"hot_swap_gate\": %s}\n",
              scaling_ok ? "true" : "false", swap_ok ? "true" : "false");
  std::printf("}\n");

  if (!swap_ok) {
    std::fprintf(stderr, "bench_shard: hot-swap gate FAILED\n");
    return 2;
  }
  if (!scaling_ok) {
    // Scaling is machine-dependent (shards are independent OS threads);
    // report, but only hard-fail when the cores to scale onto exist.
    if (cores >= 4) {
      std::fprintf(stderr, "bench_shard: scaling gate FAILED with %d "
                           "hardware threads\n",
                   cores);
      return 1;
    }
    std::fprintf(stderr, "bench_shard: scaling gate skipped (%d hardware "
                         "thread(s) < 4)\n",
                 cores);
  }
  return 0;
}
