#include "nn/trainer.hpp"

#include <numeric>

#include "nn/loss.hpp"
#include "obs/obs.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace darnet::nn {

void gather_rows_into(const Tensor& data, std::span<const std::size_t> indices,
                      Tensor& out) {
  if (data.rank() < 1) throw std::invalid_argument("gather_rows: rank >= 1");
  std::vector<int> shape = data.shape();
  const std::size_t row =
      data.numel() / static_cast<std::size_t>(shape[0]);
  shape[0] = static_cast<int>(indices.size());
  if (out.empty() || out.shape() != shape) out = Tensor(shape);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= static_cast<std::size_t>(data.dim(0))) {
      throw std::out_of_range("gather_rows: index out of range");
    }
    std::copy(data.data() + indices[i] * row, data.data() + (indices[i] + 1) * row,
              out.data() + i * row);
  }
}

Tensor gather_rows(const Tensor& data, std::span<const std::size_t> indices) {
  Tensor out;
  gather_rows_into(data, indices, out);
  return out;
}

namespace {

using LossFn =
    std::function<LossResult(const Tensor&, std::span<const std::size_t>)>;

/// Global L2 bound on the gradient, applied before every optimizer step.
constexpr double kGradClip = 5.0;

/// One optimisation step over batch indices `idx`.
double train_step(Layer& model, const std::vector<Param*>& params,
                  Optimizer& optimizer, const Tensor& x,
                  std::span<const std::size_t> idx, const LossFn& loss_fn) {
  Tensor xb = gather_rows(x, idx);
  // The minibatch is a temporary: hand the buffer to the model so caching
  // layers keep it instead of deep-copying.
  Tensor out = model.forward_moved(std::move(xb), /*training=*/true);
  LossResult lr = loss_fn(out, idx);
  model.backward(lr.grad);
  clip_grad_norm(params, kGradClip);
  optimizer.step(params);
  return lr.loss;
}

/// Shared minibatch loop; `loss_fn` maps (model output, batch indices) to a
/// LossResult.
double run_epochs(Layer& model, Optimizer& optimizer, const Tensor& x,
                  std::size_t n, const TrainConfig& cfg,
                  const LossFn& loss_fn) {
  if (n == 0) throw std::invalid_argument("train: empty dataset");
  if (cfg.batch_size <= 0 || cfg.epochs <= 0) {
    throw std::invalid_argument("train: epochs and batch_size must be > 0");
  }
  util::Rng rng(cfg.shuffle_seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  const auto params = model.params();

  double epoch_loss = 0.0;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    DARNET_SPAN_DETAIL("nn/train_epoch", std::to_string(epoch));
    DARNET_COUNTER_ADD("nn/train_epochs_total", 1);
    rng.shuffle(order);
    epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n;
         start += static_cast<std::size_t>(cfg.batch_size)) {
      const std::size_t end =
          std::min(n, start + static_cast<std::size_t>(cfg.batch_size));
      std::span<const std::size_t> idx(order.data() + start, end - start);
      DARNET_COUNTER_ADD("nn/train_batches_total", 1);
      DARNET_COUNTER_ADD("nn/train_samples_total", idx.size());
      epoch_loss += train_step(model, params, optimizer, x, idx, loss_fn);
      ++batches;
    }
    epoch_loss /= static_cast<double>(batches);
    if (cfg.on_epoch) cfg.on_epoch(epoch, epoch_loss);
  }
  return epoch_loss;
}

}  // namespace

double train_classifier(Layer& model, Optimizer& optimizer, const Tensor& x,
                        std::span<const int> labels, const TrainConfig& cfg) {
  if (labels.size() != static_cast<std::size_t>(x.dim(0))) {
    throw std::invalid_argument("train_classifier: label count mismatch");
  }
  return run_epochs(
      model, optimizer, x, labels.size(), cfg,
      [&](const Tensor& out, std::span<const std::size_t> idx) {
        std::vector<int> yb(idx.size());
        for (std::size_t i = 0; i < idx.size(); ++i) yb[i] = labels[idx[i]];
        return softmax_cross_entropy(out, yb);
      });
}

double train_distillation(Layer& model, Optimizer& optimizer, const Tensor& x,
                          const Tensor& teacher_targets,
                          const TrainConfig& cfg) {
  if (teacher_targets.dim(0) != x.dim(0)) {
    throw std::invalid_argument("train_distillation: target count mismatch");
  }
  return run_epochs(
      model, optimizer, x, static_cast<std::size_t>(x.dim(0)), cfg,
      [&](const Tensor& out, std::span<const std::size_t> idx) {
        Tensor targets = gather_rows(teacher_targets, idx);
        return l2_distillation(out, targets);
      });
}

Tensor predict_logits(Layer& model, const Tensor& x, int batch_size) {
  const std::size_t n = static_cast<std::size_t>(x.dim(0));
  Tensor all;  // allocated after the first batch reveals C
  Tensor xb;   // minibatch scratch, reused across full-size batches
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < n;
       start += static_cast<std::size_t>(batch_size)) {
    const std::size_t end =
        std::min(n, start + static_cast<std::size_t>(batch_size));
    // Whole-input batch (the streaming/serve hot path): skip the gather
    // copy and feed the caller's tensor directly -- bit-identical, since
    // gathering [0, n) is a verbatim row copy.
    const bool whole = start == 0 && end == n;
    if (!whole) {
      idx.resize(end - start);
      std::iota(idx.begin(), idx.end(), start);
      gather_rows_into(x, idx, xb);
    }
    Tensor out = model.forward(whole ? x : xb, /*training=*/false);
    if (out.rank() != 2) {
      throw std::logic_error("predict_logits: model output must be [N, C]");
    }
    if (all.empty()) all = Tensor({static_cast<int>(n), out.dim(1)});
    std::copy(out.data(), out.data() + out.numel(),
              all.data() + start * out.dim(1));
  }
  return all;
}

Tensor predict_proba(Layer& model, const Tensor& x, int batch_size) {
  return tensor::softmax_rows(predict_logits(model, x, batch_size));
}

std::vector<int> predict_classes(Layer& model, const Tensor& x,
                                 int batch_size) {
  Tensor logits = predict_logits(model, x, batch_size);
  const int n = logits.dim(0), c = logits.dim(1);
  std::vector<int> preds(n);
  for (int i = 0; i < n; ++i) {
    preds[i] = tensor::argmax(
        std::span<const float>(logits.data() + static_cast<std::size_t>(i) * c,
                               static_cast<std::size_t>(c)));
  }
  return preds;
}

ConfusionMatrix evaluate(Layer& model, const Tensor& x,
                         std::span<const int> labels, int num_classes,
                         std::vector<std::string> class_names,
                         int batch_size) {
  const auto preds = predict_classes(model, x, batch_size);
  if (preds.size() != labels.size()) {
    throw std::invalid_argument("evaluate: label count mismatch");
  }
  ConfusionMatrix cm(num_classes, std::move(class_names));
  for (std::size_t i = 0; i < preds.size(); ++i) cm.add(labels[i], preds[i]);
  return cm;
}

}  // namespace darnet::nn
