#include "fixture.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <stdexcept>

#include "core/dataset.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "util/serialize.hpp"

namespace perfbench {

namespace {

using darnet::engine::ArchitectureKind;
using Clock = std::chrono::steady_clock;

// Scale 0.02 of the paper's Table 1 gives 913 training and 228 held-out
// samples. The epoch counts keep one training run to a few seconds; the
// served architecture, and so the serving cost, does not depend on them.
constexpr double kDatasetScale = 0.02;
constexpr std::uint64_t kDataSeed = 42;
constexpr std::uint64_t kSplitSeed = 7;
constexpr int kCnnEpochs = 1;
constexpr int kRnnEpochs = 1;
// Session ids the warm-up uses, above every range the workloads use.
constexpr std::uint64_t kWarmupSessionBase = 1u << 20;

darnet::core::DarNetConfig model_config() {
  darnet::core::DarNetConfig config;
  config.cnn_epochs = kCnnEpochs;
  config.rnn_epochs = kRnnEpochs;
  return config;
}

/// CPU seconds of the process, less the host-speed sampler's, since the
/// previous call (the first call starts the clock).
class StageClock {
 public:
  explicit StageClock(const HostSpeed& speed) : speed_(speed) {}

  double lap() {
    const double now = cpu_seconds();
    const double lap = now - last_;
    last_ = now;
    return lap;
  }

 private:
  [[nodiscard]] double cpu_seconds() const {
    rusage usage{};
    (void)getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(cpu_us(usage) - speed_.cpu_us()) / 1e6;
  }

  const HostSpeed& speed_;
  double last_{cpu_seconds()};
};

void append_floats(std::string& out, const Tensor& t) {
  char buf[32];
  out += '[';
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const int n = std::snprintf(buf, sizeof(buf), i == 0 ? "%.9g" : ",%.9g",
                                static_cast<double>(t[i]));
    out.append(buf, static_cast<std::size_t>(n));
  }
  out += ']';
}

HeldOut make_held_out(const darnet::core::Dataset& eval) {
  HeldOut held;
  for (int i = 0; i < eval.size(); ++i) {
    held.frames.push_back(darnet::tensor::take_row(eval.frames, i));
    held.imu.push_back(darnet::tensor::take_row(eval.imu_windows, i));
    held.labels.push_back(eval.labels[static_cast<std::size_t>(i)]);
    std::string wire = "\"frame\":";
    append_floats(wire, held.frames.back());
    wire += ",\"imu\":";
    append_floats(wire, held.imu.back());
    wire += '}';
    held.wire.push_back(std::move(wire));
  }
  return held;
}

/// A serving replica with the trained weights: a fresh facade whose
/// models load the trained parameters and whose ensemble takes the fitted
/// combiner. The returned ensemble co-owns everything it needs.
std::shared_ptr<darnet::engine::EnsembleClassifier> make_replica(
    darnet::core::DarNet& trained) {
  darnet::util::BinaryWriter writer;
  trained.frame_cnn().save_params(writer);
  trained.imu_rnn().save_params(writer);
  darnet::core::DarNet replica(trained.config());
  darnet::util::BinaryReader reader(writer.bytes());
  replica.frame_cnn().load_params(reader);
  replica.imu_rnn().load_params(reader);
  replica.ensemble(ArchitectureKind::kCnnRnn)
      .restore_combiner(trained.ensemble(ArchitectureKind::kCnnRnn).combiner());
  return replica.ensemble_ptr(ArchitectureKind::kCnnRnn);
}

}  // namespace

Fixture::Fixture(const HostSpeed& speed) : speed_(speed) {
  const auto wall_start = Clock::now();
  StageClock cpu(speed);
  darnet::core::DatasetConfig data_config;
  data_config.scale = kDatasetScale;
  data_config.seed = kDataSeed;
  const darnet::core::TrainEvalSplit split = darnet::core::split_dataset(
      darnet::core::generate_dataset(data_config), 0.8, kSplitSeed);
  held_ = make_held_out(split.eval);
  times_.datagen_s = cpu.lap();

  model_ = std::make_unique<darnet::core::DarNet>(model_config());
  (void)model_->train(split.train);
  times_.train_s = cpu.lap();

  darnet::serve::Router::Snapshot snapshot;
  snapshot.version = 1;
  for (int s = 0; s < kShards; ++s) {
    snapshot.replicas.push_back(make_replica(*model_));
  }
  darnet::serve::RouterConfig router_config;
  router_config.shards = kShards;
  router_ = std::make_unique<darnet::serve::Router>(std::move(snapshot),
                                                    router_config);
  darnet::http::EdgeConfig edge_config;
  edge_config.http.workers = kEdgeClients;
  edge_config.frame_shape = held_.frames.front().shape();
  edge_config.imu_shape = held_.imu.front().shape();
  edge_ = std::make_unique<darnet::http::Edge>(*router_, edge_config);
  times_.start_s = cpu.lap();

  // Warm-up: every held-out sample once through the router, 16 in flight
  // at a time, and a few through the edge, on sessions no workload uses,
  // so arenas, packed weights and the listener are hot before anything is
  // timed.
  constexpr int kInFlight = 16;
  for (int first = 0; first < held_.size(); first += kInFlight) {
    std::vector<std::future<darnet::serve::Response>> pending;
    for (int i = first; i < std::min(first + kInFlight, held_.size()); ++i) {
      darnet::engine::ClassifyRequest request;
      request.session_id =
          kWarmupSessionBase + static_cast<std::uint64_t>(i % kInFlight);
      request.frame = held_.frames[static_cast<std::size_t>(i)];
      request.imu_window = held_.imu[static_cast<std::size_t>(i)];
      pending.push_back(router_->submit(std::move(request)).response);
    }
    for (auto& future : pending) {
      if (future.get().status != darnet::serve::Status::kOk) {
        throw std::runtime_error("warm-up request through the router failed");
      }
    }
  }
  for (int i = 0; i < 16; ++i) {
    const std::string body =
        "{\"session\":" + std::to_string(kWarmupSessionBase + 16) + "," +
        held_.wire[static_cast<std::size_t>(i)];
    if (darnet::http::post("127.0.0.1", port(), "/classify", body).status !=
        200) {
      throw std::runtime_error("warm-up request through the edge failed");
    }
  }
  const Tensor& frame = held_.frames.front();
  const Tensor& imu = held_.imu.front();
  (void)reference_ensemble().classify_batch(frame, imu);
  times_.warmup_s = cpu.lap();
  times_.wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
}

Fixture::~Fixture() {
  if (edge_) edge_->stop();
  if (router_) router_->drain();
}

darnet::engine::EnsembleClassifier& Fixture::reference_ensemble() {
  return model_->ensemble(ArchitectureKind::kCnnRnn);
}

}  // namespace perfbench
