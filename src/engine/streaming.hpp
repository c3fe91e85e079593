// Stateful streaming classification on top of the ensemble.
//
// The paper: "Our system is designed to make classifications at each
// time-step from the data, making it amenable to near real-time
// detection." Raw per-timestep verdicts flicker at behaviour boundaries
// and under sensor noise; deployments therefore (a) smooth the fused
// distribution over time with an exponential moving average and
// (b) debounce alerts so a distraction must persist before one fires.
//
// The recurrence itself (SessionState + advance) lives in
// engine/session.hpp so the streaming classifier, the offline
// smooth_timeline re-runner, and the serving tier (src/serve) all share
// one implementation. Everything here is a thin wrapper.
#pragma once

#include <vector>

#include "engine/engine.hpp"
#include "engine/session.hpp"

namespace darnet::engine {

/// Re-run smoothing + debouncing over an already-collected sequence of
/// per-step fused distributions (each [1, C]) -- the offline counterpart
/// of StreamingClassifier for post-hoc analysis of a recorded session.
[[nodiscard]] std::vector<StreamingVerdict> smooth_timeline(
    const std::vector<Tensor>& distributions, const StreamingConfig& config);

/// Feeds per-timestep modality inputs through an EnsembleClassifier and
/// maintains the temporal state (smoothed distribution, alert streak) in
/// a SessionState.
class StreamingClassifier {
 public:
  /// Shares ownership of `ensemble`. For a caller-owned ensemble pass
  /// engine::borrow(ensemble); it must then outlive the classifier.
  StreamingClassifier(std::shared_ptr<EnsembleClassifier> ensemble,
                      StreamingConfig config);

  /// One time-step: a single frame [1, 1, H, W] and IMU window
  /// [1, T, C]. Returns the smoothed verdict.
  StreamingVerdict step(const Tensor& frame, const Tensor& imu_window);

  /// Drop temporal state (new session). The steps/alerts counters are
  /// monotonic and persist across resets.
  void reset() { state_.reset_temporal(); }

  [[nodiscard]] int steps_processed() const noexcept { return state_.steps; }
  [[nodiscard]] int alerts_fired() const noexcept { return state_.alerts; }
  [[nodiscard]] const StreamingConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const SessionState& state() const noexcept { return state_; }

 private:
  std::shared_ptr<EnsembleClassifier> ensemble_;
  StreamingConfig config_;
  SessionState state_;
};

}  // namespace darnet::engine
