// The system under test, built the way a deployment would build it: train
// the paper's ensemble (MicroInception CNN + BiLSTM + Bayesian combiner)
// from a fixed seed on synthetic data, then serve it from a 2-shard
// serve::Router behind the http::Edge in this process.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "core/darnet.hpp"
#include "http/edge.hpp"
#include "serve/router.hpp"

namespace perfbench {

using darnet::tensor::Tensor;

inline constexpr int kShards = 2;
/// edge_closed's client count; the edge runs as many HTTP workers.
inline constexpr int kEdgeClients = 3;

/// The held-out split every workload replays.
struct HeldOut {
  std::vector<Tensor> frames;  // [1, 1, 48, 48] each
  std::vector<Tensor> imu;     // [1, 20, 13] each
  std::vector<int> labels;
  /// The tail of a /classify body for each sample,
  /// `"frame":[...],"imu":[...]}`, with every float printed round-trip
  /// exact (%.9g) so the edge parses back the very tensors above.
  std::vector<std::string> wire;

  [[nodiscard]] int size() const { return static_cast<int>(labels.size()); }
};

/// CPU seconds (user + system, every thread of the process but the
/// host-speed sampler) of each set-up stage, and the wall seconds of the
/// whole set-up. Host steal stretches the wall time of the same training
/// run by up to 3.5x on a shared VM; its CPU time holds within a few
/// percent.
struct SetupTimes {
  double datagen_s{0.0};
  double train_s{0.0};
  double start_s{0.0};
  double warmup_s{0.0};
  double wall_s{0.0};
  [[nodiscard]] double total() const {
    return datagen_s + train_s + start_s + warmup_s;
  }
};

/// Trains, starts and warms the serving stack; the destructor stops the
/// edge and drains the router. The trained facade is kept as the
/// reference replica: it is not one of the router's shards, so the
/// benchmark can replay layers on it while the router stays idle.
class Fixture {
 public:
  explicit Fixture(const HostSpeed& speed);
  ~Fixture();

  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  [[nodiscard]] const SetupTimes& times() const { return times_; }
  [[nodiscard]] const HeldOut& held_out() const { return held_; }
  [[nodiscard]] darnet::core::DarNet& reference() { return *model_; }
  [[nodiscard]] darnet::engine::EnsembleClassifier& reference_ensemble();
  [[nodiscard]] darnet::serve::Router& router() { return *router_; }
  [[nodiscard]] darnet::http::Edge& edge() { return *edge_; }
  [[nodiscard]] std::uint16_t port() const { return edge_->port(); }
  [[nodiscard]] const HostSpeed& speed() const { return speed_; }

 private:
  const HostSpeed& speed_;
  SetupTimes times_;
  HeldOut held_;
  std::unique_ptr<darnet::core::DarNet> model_;
  std::unique_ptr<darnet::serve::Router> router_;
  std::unique_ptr<darnet::http::Edge> edge_;
};

}  // namespace perfbench
