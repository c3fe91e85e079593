// DarNet facade: the library's top-level entry point.
//
// Owns the frame CNN, the IMU BiLSTM, the SVM baseline, and the Bayesian
// combiner; trains them on a multimodal dataset; and evaluates any of the
// three Table-2 architectures (CNN, CNN+SVM, CNN+RNN).
#pragma once

#include <memory>
#include <optional>

#include "core/dataset.hpp"
#include "engine/architectures.hpp"
#include "engine/engine.hpp"

namespace darnet::core {

struct DarNetConfig {
  engine::FrameCnnConfig cnn;
  engine::ImuRnnConfig rnn;
  svm::SvmConfig svm;

  int cnn_epochs = 12;
  int rnn_epochs = 6;
  int batch_size = 32;
  double cnn_lr = 0.03;
  double rnn_lr = 0.004;
  std::uint64_t seed = 1;
};

struct TrainReport {
  double cnn_final_loss{0.0};
  double rnn_final_loss{0.0};
  double train_seconds{0.0};
};

class DarNet {
 public:
  explicit DarNet(DarNetConfig config);

  /// Train all three models and fit the ensemble CPTs.
  TrainReport train(const Dataset& train_data);

  /// Fused class distribution [N, 6] under the chosen architecture.
  [[nodiscard]] Tensor classify(const Tensor& frames,
                                const Tensor& imu_windows,
                                engine::ArchitectureKind kind);

  /// Confusion matrix over an evaluation set (Figure 5 / Table 2).
  [[nodiscard]] nn::ConfusionMatrix evaluate(const Dataset& eval_data,
                                             engine::ArchitectureKind kind);

  /// Direct access to the trained components (benches, ablations).
  [[nodiscard]] nn::Sequential& frame_cnn() noexcept { return *cnn_; }
  [[nodiscard]] nn::Sequential& imu_rnn() noexcept { return *rnn_; }
  [[nodiscard]] svm::LinearSvm& imu_svm() noexcept { return *svm_; }
  [[nodiscard]] engine::EnsembleClassifier& ensemble(
      engine::ArchitectureKind kind);
  /// Shared (owning) handle to an architecture's ensemble -- the form the
  /// serving tier consumes; the ensemble stays valid for the handle's
  /// lifetime even if this facade is destroyed.
  [[nodiscard]] std::shared_ptr<engine::EnsembleClassifier> ensemble_ptr(
      engine::ArchitectureKind kind);

  [[nodiscard]] bool trained() const noexcept { return trained_; }
  [[nodiscard]] const DarNetConfig& config() const noexcept {
    return config_;
  }

  /// Persist every trained component (CNN, RNN, SVM, both fitted
  /// combiners) to one file; load() restores them into a facade built
  /// with the same configuration and marks it trained.
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  DarNetConfig config_;
  // Shared ownership throughout: the classifier adapters co-own the
  // models and the ensembles co-own the adapters, so handles returned by
  // ensemble_ptr never dangle (see the engine API redesign notes).
  std::shared_ptr<nn::Sequential> cnn_;
  std::shared_ptr<nn::Sequential> rnn_;
  std::shared_ptr<svm::LinearSvm> svm_;

  std::shared_ptr<engine::NeuralClassifier> cnn_classifier_;
  std::shared_ptr<engine::NeuralClassifier> rnn_classifier_;
  std::shared_ptr<engine::SvmClassifier> svm_classifier_;

  std::shared_ptr<engine::EnsembleClassifier> cnn_only_;
  std::shared_ptr<engine::EnsembleClassifier> cnn_svm_;
  std::shared_ptr<engine::EnsembleClassifier> cnn_rnn_;
  bool trained_{false};
};

}  // namespace darnet::core
