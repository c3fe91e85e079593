// Analytics engine (Section 3.3): modular 1-to-1 mapping between device
// data streams and machine-learning models, with ensemble combination of
// the per-modality outputs into one classification.
//
// API shape (PR 4 redesign, shims removed in PR 9):
//   * Ownership is explicit. The classifier adapters and the ensemble hold
//     `std::shared_ptr`s to their models; callers that keep owning the
//     model elsewhere pass a non-owning handle via `engine::borrow`. The
//     historical reference/raw-pointer shim constructors are gone; the
//     gate token that used to enable them is banned tree-wide by
//     darnet_analyze (engine-deprecated-shim).
//   * Requests and results are value types. `ClassifyRequest` carries a
//     session id, a tenant id (the multi-tenant admission key the router
//     meters quotas on), a deadline and the two modality tensors;
//     `ClassifyResult` carries the smoothed per-session verdict, measured
//     latency and whether the degraded path served it.
//   * Batched entry points (`classify_batch`, `classify_batch_degraded`)
//     are the primitives the serving tier (src/serve) coalesces
//     micro-batches onto.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "bayes/combiner.hpp"
#include "engine/session.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "svm/svm.hpp"

namespace darnet::engine {

using tensor::Tensor;

/// Non-owning shared handle to a caller-owned object (aliasing
/// constructor: no allocation, no deleter). The caller guarantees the
/// object outlives every copy of the returned handle -- exactly the
/// contract the old reference-taking constructors had, now spelled out in
/// the type.
template <typename T>
[[nodiscard]] std::shared_ptr<T> borrow(T& object) noexcept {
  return std::shared_ptr<T>(std::shared_ptr<void>(), &object);
}

/// Uniform inference interface over heterogeneous per-modality models
/// (neural networks and the SVM baseline).
class ProbabilisticClassifier {
 public:
  virtual ~ProbabilisticClassifier() = default;

  /// Class distribution [N, C] for a batch of modality inputs.
  [[nodiscard]] virtual Tensor probabilities(const Tensor& inputs) = 0;
  [[nodiscard]] virtual int num_classes() const = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Adapts any nn::Layer whose output is [N, C] logits.
class NeuralClassifier final : public ProbabilisticClassifier {
 public:
  /// Shares ownership of the model (pass engine::borrow(model) to keep
  /// the old caller-owned lifetime).
  NeuralClassifier(std::shared_ptr<nn::Layer> model, int num_classes,
                   std::string label);

  [[nodiscard]] Tensor probabilities(const Tensor& inputs) override;
  [[nodiscard]] int num_classes() const override { return classes_; }
  [[nodiscard]] std::string describe() const override { return label_; }

 private:
  std::shared_ptr<nn::Layer> model_;
  int classes_;
  std::string label_;
};

/// Adapts the linear SVM baseline (softmax over margins).
class SvmClassifier final : public ProbabilisticClassifier {
 public:
  explicit SvmClassifier(std::shared_ptr<svm::LinearSvm> model);

  [[nodiscard]] Tensor probabilities(const Tensor& inputs) override;
  [[nodiscard]] int num_classes() const override {
    return model_->num_classes();
  }
  [[nodiscard]] std::string describe() const override { return "SVM"; }

 private:
  std::shared_ptr<svm::LinearSvm> model_;
};

/// The three evaluation architectures of Table 2.
enum class ArchitectureKind { kCnnOnly, kCnnSvm, kCnnRnn };
[[nodiscard]] const char* architecture_name(ArchitectureKind kind) noexcept;

/// One single-frame inference request against the engine, as admitted by
/// the serving tier: which driver session it belongs to, when the answer
/// stops being useful, and the two modality tensors ([1, ...] each).
struct ClassifyRequest {
  /// Stable per-driver session identifier (smoothing state key; also the
  /// consistent-hash routing key in the sharded tier -- serve::Router).
  std::uint64_t session_id{0};
  /// Admission-control tenant (fleet operator / API customer). The router
  /// meters per-tenant quotas on it; 0 is the anonymous default tenant.
  std::uint64_t tenant_id{0};
  /// Absolute steady-clock deadline; requests still queued past it are
  /// completed with a timeout verdict instead of being served.
  std::chrono::steady_clock::time_point deadline{
      std::chrono::steady_clock::time_point::max()};
  /// Camera frame, [1, 1, H, W] (or any [1, ...] the frame model takes).
  Tensor frame;
  /// IMU window, [1, T, C] (ignored by CNN-only ensembles).
  Tensor imu_window;
};

/// The engine's answer to one ClassifyRequest.
struct ClassifyResult {
  /// Smoothed, debounced per-session verdict (distribution is [1, C]).
  StreamingVerdict verdict;
  /// Wall time spent producing this result, microseconds.
  std::int64_t latency_us{0};
  /// True when the degraded single-modality path served the request.
  bool degraded{false};
};

/// Frame model + optional IMU model fused by the Bayesian-network
/// combiner. With no IMU model this degrades to the CNN-only baseline.
class EnsembleClassifier {
 public:
  /// Owning constructor. `imu_model` may be null (CNN-only architecture).
  EnsembleClassifier(std::shared_ptr<ProbabilisticClassifier> frame_model,
                     std::shared_ptr<ProbabilisticClassifier> imu_model,
                     bayes::ClassMap class_map);

  /// Fit the combiner CPTs on training-set outputs. No-op for CNN-only.
  void fit(const Tensor& frames, const Tensor& imu_windows,
           std::span<const int> labels);

  /// Fused distribution over image classes [B, C] -- the batched entry
  /// point the serving tier coalesces micro-batches onto.
  [[nodiscard]] Tensor classify_batch(const Tensor& frames,
                                      const Tensor& imu_windows);

  /// Degraded single-modality pass [B, C]: runs only the cheap IMU model
  /// and maps its evidence onto image classes through the fitted combiner
  /// under a uniform frame prior (the heavy frame CNN is skipped). Falls
  /// back to the full pass when there is no (fitted) IMU side to lean on.
  [[nodiscard]] Tensor classify_batch_degraded(const Tensor& frames,
                                               const Tensor& imu_windows);

  /// True when classify_batch_degraded has a cheaper path to take.
  [[nodiscard]] bool can_degrade() const noexcept {
    return imu_model_ != nullptr && combiner_.trained();
  }

  [[nodiscard]] std::vector<int> predict(const Tensor& frames,
                                         const Tensor& imu_windows);

  [[nodiscard]] nn::ConfusionMatrix evaluate(
      const Tensor& frames, const Tensor& imu_windows,
      std::span<const int> labels, std::vector<std::string> names = {});

  [[nodiscard]] bool has_imu_model() const noexcept {
    return imu_model_ != nullptr;
  }
  [[nodiscard]] const bayes::BayesianCombiner& combiner() const noexcept {
    return combiner_;
  }

  /// Replace the combiner with a previously-fitted one (checkpoint
  /// restore). Its class map must match this ensemble's.
  void restore_combiner(bayes::BayesianCombiner combiner);

 private:
  std::shared_ptr<ProbabilisticClassifier> frame_model_;
  std::shared_ptr<ProbabilisticClassifier> imu_model_;
  bayes::BayesianCombiner combiner_;
};

/// Stream-name -> model registry: the engine "maintains a 1-to-1
/// relationship between device data-streams and machine learning models"
/// so new devices can be added without retraining existing models.
class AnalyticsEngine {
 public:
  /// Shares ownership of the model.
  void register_stream(const std::string& stream,
                       std::shared_ptr<ProbabilisticClassifier> model);

  [[nodiscard]] bool has_stream(const std::string& stream) const;
  [[nodiscard]] ProbabilisticClassifier& model_for(const std::string& stream);
  [[nodiscard]] std::vector<std::string> streams() const;

 private:
  std::map<std::string, std::shared_ptr<ProbabilisticClassifier>> models_;
};

}  // namespace darnet::engine
