// HTTP-edge demo: the full PR-9 wire path in one process -- a 2-shard
// serve::Router behind the dependency-free http::Edge, exercised over
// real loopback TCP with the in-repo blocking client. This is also the
// binary tools/ci/check.sh boots for its http-smoke leg: it exits
// nonzero unless /healthz, /classify (including a mid-traffic snapshot
// hot swap and a quota 429) and /metrics all behave, and it prints the
// /metrics body so the leg can grep for the documented http/* rows.
//
// Usage: http_demo [sessions] [steps_per_session]
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "http/edge.hpp"
#include "http/http.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;

constexpr int kFeatures = 16;
constexpr int kClasses = 6;

std::shared_ptr<engine::EnsembleClassifier> make_ensemble() {
  util::Rng rng(42);
  auto model = std::make_shared<nn::Sequential>();
  model->emplace<nn::Dense>(kFeatures, kClasses, rng);
  auto frames = std::make_shared<engine::NeuralClassifier>(model, kClasses,
                                                           "edge-cnn");
  return std::make_shared<engine::EnsembleClassifier>(
      frames, nullptr, bayes::ClassMap::darnet_default());
}

serve::Router::Snapshot make_snapshot(int shards, std::uint64_t version) {
  serve::Router::Snapshot snapshot;
  snapshot.version = version;
  for (int s = 0; s < shards; ++s) {
    snapshot.replicas.push_back(make_ensemble());
  }
  return snapshot;
}

std::string frame_json(const Tensor& frame) {
  std::string out = "[";
  for (std::size_t i = 0; i < frame.numel(); ++i) {
    if (i) out += ",";
    out += std::to_string(frame[i]);
  }
  return out + "]";
}

[[nodiscard]] bool expect(bool ok, const std::string& what) {
  if (!ok) std::cerr << "http_demo: FAILED: " << what << "\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int sessions = argc > 1 ? std::atoi(argv[1]) : 8;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 6;

  serve::RouterConfig router_config;
  router_config.shards = 2;
  // Tenant 1 gets a deliberately tight quota so the demo can show a 429.
  router_config.quotas[1] = serve::TenantQuota{
      static_cast<double>(sessions * steps), 0.0};
  serve::Router router(make_snapshot(2, 1), router_config);

  http::EdgeConfig edge_config;
  edge_config.frame_shape = {1, kFeatures};
  http::Edge edge(router, edge_config);
  std::cout << "http_demo: edge listening on 127.0.0.1:" << edge.port()
            << " (2 shards, snapshot v" << router.snapshot_version()
            << ")\n";

  bool ok = true;

  http::ClientResponse health =
      http::get("127.0.0.1", edge.port(), "/healthz");
  ok &= expect(health.status == 200 &&
                   health.body.find("\"shards\":2") != std::string::npos,
               "/healthz");
  std::cout << "GET /healthz -> " << health.status << " " << health.body
            << "\n";

  // Classify traffic, flipping the snapshot mid-stream: nothing drops.
  util::Rng rng(7);
  int served = 0;
  for (int t = 0; t < steps; ++t) {
    if (t == steps / 2) {
      router.swap_snapshot(make_snapshot(2, 2));
      std::cout << "  (snapshot hot-swapped to v"
                << router.snapshot_version() << " mid-traffic)\n";
    }
    for (int s = 0; s < sessions; ++s) {
      const Tensor frame = Tensor::uniform({1, kFeatures}, 1.0f, rng);
      const std::string body = "{\"session\":" + std::to_string(s) +
                               ",\"tenant\":1,\"frame\":" +
                               frame_json(frame) + "}";
      http::ClientResponse reply =
          http::post("127.0.0.1", edge.port(), "/classify", body);
      ok &= expect(reply.status == 200, "classify session " +
                                            std::to_string(s) + " step " +
                                            std::to_string(t));
      served += reply.status == 200;
    }
  }
  std::cout << "POST /classify x" << served << " -> 200 (zero dropped "
            << "across the swap)\n";

  // The quota is exactly spent: one more request for tenant 1 is clipped.
  const std::string extra =
      "{\"session\":0,\"tenant\":1,\"frame\":" +
      frame_json(Tensor({1, kFeatures})) + "}";
  http::ClientResponse clipped =
      http::post("127.0.0.1", edge.port(), "/classify", extra);
  ok &= expect(clipped.status == 429, "quota 429");
  std::cout << "POST /classify (tenant over quota) -> " << clipped.status
            << " " << clipped.body << "\n";

  http::ClientResponse bad =
      http::post("127.0.0.1", edge.port(), "/classify", "{\"frame\":[]}");
  ok &= expect(bad.status == 400, "malformed body 400");

  http::ClientResponse metrics =
      http::get("127.0.0.1", edge.port(), "/metrics");
  ok &= expect(metrics.status == 200 && metrics.body.find("http/") !=
                                            std::string::npos,
               "/metrics carries http/* rows");
  std::cout << "GET /metrics -> " << metrics.status << "\n"
            << metrics.body << "\n";

  edge.stop();
  router.drain();

  const serve::Router::Stats stats = router.stats();
  std::cout << "router: routed=" << stats.routed
            << " quota_rejected=" << stats.quota_rejected
            << " snapshot_swaps=" << stats.snapshot_swaps << "\n";
  ok &= expect(stats.routed == static_cast<std::uint64_t>(served),
               "routed == served");
  ok &= expect(stats.quota_rejected == 1, "one quota rejection");

  if (!ok) return 1;
  std::cout << "http_demo: OK\n";
  return 0;
}
