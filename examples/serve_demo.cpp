// Serving-tier demo: the paper's centralized analytics engine ("the
// controller forwards data to a remote server") multiplexing a small fleet
// of concurrent driver sessions onto one ensemble through darnet::serve.
//
// A lightweight frame model keeps the demo fast; the point is the serving
// machinery: admission, micro-batching, per-session smoothing, deadlines
// and the degraded-mode watermark, all visible in the printed stats and --
// with DARNET_OBS_DUMP=<dir> -- in <dir>/metrics.json + <dir>/trace.json.
//
// Usage: serve_demo [sessions] [steps_per_session]
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "obs/obs.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace darnet;
  using tensor::Tensor;

  const int sessions = argc > 1 ? std::atoi(argv[1]) : 6;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 40;
  constexpr int kFeatures = 16;
  constexpr int kClasses = 6;

  // A small input-dependent frame model standing in for the frame CNN.
  util::Rng rng(42);
  auto model = std::make_shared<nn::Sequential>();
  model->emplace<nn::Dense>(kFeatures, kClasses, rng);
  auto frame_model =
      std::make_shared<engine::NeuralClassifier>(model, kClasses, "demo-cnn");
  auto ensemble = std::make_shared<engine::EnsembleClassifier>(
      frame_model, nullptr, bayes::ClassMap::darnet_default());

  serve::ShardConfig config;
  config.max_batch = 8;
  config.queue_capacity = 128;
  config.workers = 2;
  config.streaming.smoothing_alpha = 0.5;
  config.streaming.alert_streak = 2;
  serve::Server server(ensemble, config);

  std::cout << "Serving " << sessions << " concurrent driver sessions, "
            << steps << " frames each (max_batch " << config.max_batch
            << ")...\n";

  // Riffle the sessions' frames into one submission stream, as if the
  // vehicles were uploading concurrently.
  std::vector<std::vector<std::future<serve::Response>>> futures(
      static_cast<std::size_t>(sessions));
  std::vector<int> cursor(static_cast<std::size_t>(sessions), 0);
  int remaining = sessions * steps;
  while (remaining > 0) {
    const auto s = rng.uniform_index(static_cast<std::uint64_t>(sessions));
    if (cursor[s] >= steps) continue;
    engine::ClassifyRequest request;
    request.session_id = s;
    request.frame = Tensor::uniform({1, kFeatures}, 1.0f, rng);
    auto sub = server.submit(std::move(request));
    if (sub.admit != serve::Admit::kRejected) {
      futures[s].push_back(std::move(sub.response));
    }
    ++cursor[s];
    --remaining;
  }
  server.drain();

  std::cout << "\n  session  served  alerts  final-class\n";
  for (int s = 0; s < sessions; ++s) {
    int ok = 0;
    int last = -1;
    for (auto& f : futures[static_cast<std::size_t>(s)]) {
      const serve::Response r = f.get();
      if (r.status == serve::Status::kOk) {
        ++ok;
        last = r.result.verdict.predicted;
      }
    }
    const auto state = server.session(static_cast<std::uint64_t>(s));
    std::printf("  %7d  %6d  %6d  %d\n", s, ok, state.alerts, last);
  }

  const auto stats = server.stats();
  std::cout << "\nServer stats: " << stats.submitted << " submitted, "
            << stats.completed << " completed in " << stats.batches
            << " batches (" << stats.batched_rows << " rows, "
            << stats.degraded_batches << " degraded), " << stats.shed
            << " shed, " << stats.timeouts << " timeouts, " << stats.rejected
            << " rejected\n";

  // Observability dump: DARNET_OBS_DUMP=/tmp/obs serve_demo writes the
  // metrics snapshot and the chrome://tracing span timeline there.
  if (const char* dump = std::getenv("DARNET_OBS_DUMP");
      dump != nullptr && *dump != '\0' && obs::enabled()) {
    const std::string dir(dump);
    obs::registry().write_json(dir + "/metrics.json");
    obs::write_trace(dir + "/trace.json");
    std::cout << "Observability dump: " << dir << "/metrics.json, " << dir
              << "/trace.json\n";
  }
  // Every admitted future resolved (drain() guarantees it); the demo
  // fails only if nothing was actually served.
  return stats.completed > 0 ? 0 : 1;
}
