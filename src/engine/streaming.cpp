#include "engine/streaming.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace darnet::engine {

std::vector<StreamingVerdict> smooth_timeline(
    const std::vector<Tensor>& distributions,
    const StreamingConfig& config) {
  validate(config, "smooth_timeline");
  DARNET_SPAN("engine/smooth_timeline");
  std::vector<StreamingVerdict> out;
  out.reserve(distributions.size());
  SessionState state;
  for (const auto& dist : distributions) {
    out.push_back(advance(state, dist, config));
  }
  return out;
}

StreamingClassifier::StreamingClassifier(
    std::shared_ptr<EnsembleClassifier> ensemble, StreamingConfig config)
    : ensemble_(std::move(ensemble)), config_(config) {
  if (!ensemble_) {
    throw std::invalid_argument("StreamingClassifier: null ensemble");
  }
  validate(config, "StreamingClassifier");
}

StreamingVerdict StreamingClassifier::step(const Tensor& frame,
                                           const Tensor& imu_window) {
  Tensor fused = ensemble_->classify_batch(frame, imu_window);
  if (fused.dim(0) != 1) {
    throw std::invalid_argument(
        "StreamingClassifier::step: one sample per step");
  }
  return advance(state_, fused, config_);
}

}  // namespace darnet::engine
