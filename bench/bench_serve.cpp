// Serving-tier benchmark: does micro-batching earn its complexity?
//
// The frame model is a dense stand-in sized like the paper's fine-tuned
// Inception-V3 (tens of MB of weights): a single-request pass is
// DRAM-bound streaming the weight matrix past one activation row, while
// at a vector ISA Dense's gemv_bias_wt (tensor/kernels_vec.inc) streams
// each weight row past blocks of 4 batch rows (AVX-512) or 2 (AVX2), so
// every loaded weight is reused across the rows of a fused pass. That
// weight-traffic amortisation -- not FLOPs -- is what micro-batching buys
// on a CPU server, and it is why batch 8 must clear 2x.
//
// Throughput (saturated closed loop): N requests submitted as fast as
// admission allows, wall-clocked from first submit to drain, at max_batch
// 1 vs max_batch 8. Acceptance: >= 2x at batch 8.
//
// Prints a human table plus a JSON blob (checked in as BENCH_serve.json);
// exits non-zero if the criterion is missed.
#include <algorithm>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <vector>

#include "engine/engine.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "serve/serve.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;

constexpr int kFrameFeatures = 4096;
constexpr int kHidden = 4096;  // 4096x4096: 67 MB of fp32 weights
constexpr int kClasses = 6;
constexpr int kRequests = 128;
constexpr int kSessions = 16;
constexpr int kReps = 3;

std::shared_ptr<engine::EnsembleClassifier> make_ensemble() {
  util::Rng rng(1234);
  auto model = std::make_shared<nn::Sequential>();
  model->emplace<nn::Dense>(kFrameFeatures, kHidden, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Dense>(kHidden, kClasses, rng);
  auto frames = std::make_shared<engine::NeuralClassifier>(model, kClasses,
                                                           "dense-v3");
  return std::make_shared<engine::EnsembleClassifier>(
      frames, nullptr, bayes::ClassMap::darnet_default());
}

struct Inputs {
  std::vector<Tensor> frames;  // [1, kFrameFeatures] each
};

engine::ClassifyRequest nth_request(const Inputs& inputs, int i) {
  engine::ClassifyRequest request;
  request.session_id = static_cast<std::uint64_t>(i % kSessions);
  request.frame = inputs.frames[static_cast<std::size_t>(i % kRequests)];
  return request;
}

/// Saturated closed loop: submit everything, drain, wall-clock the lot.
/// Returns requests/second (best of kReps).
double throughput_rps(const std::shared_ptr<engine::EnsembleClassifier>& e,
                      const Inputs& inputs, int max_batch) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    serve::ShardConfig config;
    config.max_batch = max_batch;
    config.queue_capacity = kRequests;
    config.shed_oldest = false;  // any overflow would be a bench bug
    serve::Server server(e, config);

    std::vector<std::future<serve::Response>> futures;
    futures.reserve(kRequests);
    util::Stopwatch timer;
    for (int i = 0; i < kRequests; ++i) {
      auto sub = server.submit(nth_request(inputs, i));
      if (sub.admit != serve::Admit::kAccepted) {
        std::cerr << "bench_serve: request " << i << " not accepted\n";
        std::exit(2);
      }
      futures.push_back(std::move(sub.response));
    }
    server.drain();
    const double seconds = timer.seconds();
    for (auto& f : futures) {
      if (f.get().status != serve::Status::kOk) {
        std::cerr << "bench_serve: request not served\n";
        std::exit(2);
      }
    }
    best = std::max(best, static_cast<double>(kRequests) / seconds);
  }
  return best;
}

}  // namespace

int main() {
  auto ensemble = make_ensemble();
  util::Rng rng(99);
  Inputs inputs;
  inputs.frames.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    inputs.frames.push_back(
        Tensor::uniform({1, kFrameFeatures}, 1.0f, rng));
  }

  std::cout << "bench_serve: " << kRequests << " requests, Dense("
            << kFrameFeatures << "->" << kHidden << ")->ReLU->Dense("
            << kHidden << "->" << kClasses
            << ") frame model (67 MB of weights), best of " << kReps
            << " reps\n\n";

  const double rps1 = throughput_rps(ensemble, inputs, 1);
  const double rps8 = throughput_rps(ensemble, inputs, 8);
  const double speedup = rps8 / rps1;
  std::printf("  throughput  max_batch=1   %10.0f req/s\n", rps1);
  std::printf("  throughput  max_batch=8   %10.0f req/s   (%.2fx)\n", rps8,
              speedup);

  const bool throughput_ok = speedup >= 2.0;
  std::printf("\n  criterion: batching speedup >= 2x: %s\n",
              throughput_ok ? "PASS" : "FAIL");

  std::printf(
      "\n{\n"
      "  \"benchmark\": \"bench/bench_serve.cpp\",\n"
      "  \"requests\": %d,\n"
      "  \"throughput_rps\": {\"max_batch_1\": %.1f, \"max_batch_8\": "
      "%.1f},\n"
      "  \"batching_speedup\": %.2f,\n"
      "  \"criteria\": {\"speedup_ge_2x\": %s}\n"
      "}\n",
      kRequests, rps1, rps8, speedup, throughput_ok ? "true" : "false");

  return throughput_ok ? 0 : 1;
}
