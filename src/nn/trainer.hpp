// Mini-batch training / inference driver shared by the CNN, the BiLSTM and
// the dCNN distillation pipeline.
#pragma once

#include <functional>
#include <span>

#include "nn/layer.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"

namespace darnet::nn {

struct TrainConfig {
  int epochs = 5;
  int batch_size = 32;
  std::uint64_t shuffle_seed = 1;
  /// Optional per-epoch callback (epoch index, mean loss).
  std::function<void(int, double)> on_epoch;
};

/// Gather rows `indices` of `data` (along dim 0) into a new tensor.
Tensor gather_rows(const Tensor& data, std::span<const std::size_t> indices);

/// As gather_rows, but writes into `out`, reusing its allocation when the
/// shape already matches (the hot minibatch/inference loops call this every
/// batch; reuse keeps them allocation-free at steady state).
void gather_rows_into(const Tensor& data, std::span<const std::size_t> indices,
                      Tensor& out);

/// Supervised classification training: softmax cross-entropy on labels.
/// Returns the mean loss of the final epoch.
double train_classifier(Layer& model, Optimizer& optimizer, const Tensor& x,
                        std::span<const int> labels, const TrainConfig& cfg);

/// Distillation training: L2 between model output and per-row teacher
/// targets (the paper's unsupervised dCNN methodology). Returns final-epoch
/// mean loss.
double train_distillation(Layer& model, Optimizer& optimizer, const Tensor& x,
                          const Tensor& teacher_targets,
                          const TrainConfig& cfg);

/// Class-probability inference, batched: returns [N, C] softmax rows.
Tensor predict_proba(Layer& model, const Tensor& x, int batch_size = 64);

/// Raw model outputs (pre-softmax), batched: returns [N, C].
Tensor predict_logits(Layer& model, const Tensor& x, int batch_size = 64);

/// Argmax predictions, batched.
std::vector<int> predict_classes(Layer& model, const Tensor& x,
                                 int batch_size = 64);

/// Evaluate into a confusion matrix.
ConfusionMatrix evaluate(Layer& model, const Tensor& x,
                         std::span<const int> labels, int num_classes,
                         std::vector<std::string> class_names = {},
                         int batch_size = 64);

}  // namespace darnet::nn
