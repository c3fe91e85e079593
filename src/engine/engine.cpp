#include "engine/engine.hpp"

#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"

namespace darnet::engine {

namespace {

// Fallback scratch arena for direct classify_batch callers: installed only
// when the calling thread has no ArenaScope of its own (a serve worker's
// scope wins). Thread-local, so concurrent callers never share free lists.
// Intermediate activations cycle through it after one warm-up call; the
// returned tensor's block follows the caller's scope (or the heap) -- see
// DESIGN.md "Kernel architecture" for the zero-alloc contract.
class FallbackArenaScope {
 public:
  FallbackArenaScope() {
    static thread_local tensor::Arena t_engine_arena;
    if (tensor::current_arena() == nullptr) scope_.emplace(t_engine_arena);
  }

  FallbackArenaScope(const FallbackArenaScope&) = delete;
  FallbackArenaScope& operator=(const FallbackArenaScope&) = delete;

 private:
  std::optional<tensor::ArenaScope> scope_;
};

void record_arena_gauge() {
  if (const tensor::Arena* a = tensor::current_arena()) {
    DARNET_GAUGE_SET("engine/arena_bytes", a->bytes_cached());
  }
}

}  // namespace

NeuralClassifier::NeuralClassifier(std::shared_ptr<nn::Layer> model,
                                   int num_classes, std::string label)
    : model_(std::move(model)), classes_(num_classes),
      label_(std::move(label)) {
  if (!model_) {
    throw std::invalid_argument("NeuralClassifier: null model");
  }
  if (num_classes < 2) {
    throw std::invalid_argument("NeuralClassifier: need >= 2 classes");
  }
}

Tensor NeuralClassifier::probabilities(const Tensor& inputs) {
  Tensor p = nn::predict_proba(*model_, inputs);
  if (p.dim(1) != classes_) {
    throw std::logic_error("NeuralClassifier: model emits " +
                           std::to_string(p.dim(1)) + " classes, expected " +
                           std::to_string(classes_));
  }
  return p;
}

SvmClassifier::SvmClassifier(std::shared_ptr<svm::LinearSvm> model)
    : model_(std::move(model)) {
  if (!model_) {
    throw std::invalid_argument("SvmClassifier: null model");
  }
}

Tensor SvmClassifier::probabilities(const Tensor& inputs) {
  // The SVM consumes flattened windows; accept [N, T, C] and flatten.
  if (inputs.rank() == 3) {
    return model_->probabilities(
        inputs.reshaped({inputs.dim(0), inputs.dim(1) * inputs.dim(2)}));
  }
  return model_->probabilities(inputs);
}

const char* architecture_name(ArchitectureKind kind) noexcept {
  switch (kind) {
    case ArchitectureKind::kCnnOnly:
      return "CNN";
    case ArchitectureKind::kCnnSvm:
      return "CNN+SVM";
    case ArchitectureKind::kCnnRnn:
      return "CNN+RNN";
  }
  return "?";
}

EnsembleClassifier::EnsembleClassifier(
    std::shared_ptr<ProbabilisticClassifier> frame_model,
    std::shared_ptr<ProbabilisticClassifier> imu_model,
    bayes::ClassMap class_map)
    : frame_model_(std::move(frame_model)),
      imu_model_(std::move(imu_model)),
      combiner_(std::move(class_map)) {
  if (!frame_model_) {
    throw std::invalid_argument("EnsembleClassifier: null frame model");
  }
  if (frame_model_->num_classes() != combiner_.class_map().image_classes()) {
    throw std::invalid_argument(
        "EnsembleClassifier: frame model / class map mismatch");
  }
  if (imu_model_ &&
      imu_model_->num_classes() != combiner_.class_map().imu_classes()) {
    throw std::invalid_argument(
        "EnsembleClassifier: IMU model / class map mismatch");
  }
}

void EnsembleClassifier::restore_combiner(bayes::BayesianCombiner combiner) {
  if (combiner.class_map().image_classes() !=
          combiner_.class_map().image_classes() ||
      combiner.class_map().imu_classes() !=
          combiner_.class_map().imu_classes()) {
    throw std::invalid_argument(
        "EnsembleClassifier::restore_combiner: class map mismatch");
  }
  combiner_ = std::move(combiner);
}

void EnsembleClassifier::fit(const Tensor& frames, const Tensor& imu_windows,
                             std::span<const int> labels) {
  if (!imu_model_) return;
  const Tensor p_img = frame_model_->probabilities(frames);
  const Tensor p_imu = imu_model_->probabilities(imu_windows);
  combiner_.fit(p_img, p_imu, labels);
}

Tensor EnsembleClassifier::classify_batch(const Tensor& frames,
                                          const Tensor& imu_windows) {
  DARNET_TIMER("engine/classify_ns");
  DARNET_COUNTER_ADD("engine/classifications_total", 1);
  FallbackArenaScope arena_scope;
  Tensor p_img;
  {
    DARNET_SPAN("engine/frame_model_forward");
    p_img = frame_model_->probabilities(frames);
  }
  record_arena_gauge();
  if (!imu_model_) return p_img;
  Tensor p_imu;
  {
    DARNET_SPAN("engine/imu_model_forward");
    p_imu = imu_model_->probabilities(imu_windows);
  }
  DARNET_SPAN("engine/combine");
  return combiner_.combine(p_img, p_imu);
}

Tensor EnsembleClassifier::classify_batch_degraded(const Tensor& frames,
                                                   const Tensor& imu_windows) {
  if (!can_degrade()) return classify_batch(frames, imu_windows);
  DARNET_TIMER("engine/classify_ns");
  DARNET_COUNTER_ADD("engine/classifications_total", 1);
  DARNET_COUNTER_ADD("engine/degraded_classifications_total", 1);
  FallbackArenaScope arena_scope;
  Tensor p_imu;
  {
    DARNET_SPAN("engine/imu_model_forward");
    p_imu = imu_model_->probabilities(imu_windows);
  }
  // Uniform frame prior: only the IMU evidence moves the posterior. The
  // heavy frame model never runs.
  const int n = p_imu.dim(0);
  const int c_img = combiner_.class_map().image_classes();
  const Tensor uniform =
      Tensor::full({n, c_img}, 1.0f / static_cast<float>(c_img));
  DARNET_SPAN("engine/combine");
  return combiner_.combine(uniform, p_imu);
}

std::vector<int> EnsembleClassifier::predict(const Tensor& frames,
                                             const Tensor& imu_windows) {
  const Tensor fused = classify_batch(frames, imu_windows);
  const int n = fused.dim(0), c = fused.dim(1);
  std::vector<int> preds(n);
  for (int i = 0; i < n; ++i) {
    preds[i] = tensor::argmax(std::span<const float>(
        fused.data() + static_cast<std::size_t>(i) * c,
        static_cast<std::size_t>(c)));
  }
  return preds;
}

nn::ConfusionMatrix EnsembleClassifier::evaluate(
    const Tensor& frames, const Tensor& imu_windows,
    std::span<const int> labels, std::vector<std::string> names) {
  const auto preds = predict(frames, imu_windows);
  if (preds.size() != labels.size()) {
    throw std::invalid_argument("EnsembleClassifier::evaluate: size mismatch");
  }
  nn::ConfusionMatrix cm(frame_model_->num_classes(), std::move(names));
  for (std::size_t i = 0; i < preds.size(); ++i) cm.add(labels[i], preds[i]);
  return cm;
}

void AnalyticsEngine::register_stream(
    const std::string& stream,
    std::shared_ptr<ProbabilisticClassifier> model) {
  if (stream.empty()) {
    throw std::invalid_argument("AnalyticsEngine: empty stream name");
  }
  if (!model) {
    throw std::invalid_argument("AnalyticsEngine: null model for " + stream);
  }
  if (models_.contains(stream)) {
    throw std::invalid_argument(
        "AnalyticsEngine: stream already registered (1-to-1 mapping): " +
        stream);
  }
  models_[stream] = std::move(model);
}

bool AnalyticsEngine::has_stream(const std::string& stream) const {
  return models_.contains(stream);
}

ProbabilisticClassifier& AnalyticsEngine::model_for(
    const std::string& stream) {
  const auto it = models_.find(stream);
  if (it == models_.end()) {
    throw std::out_of_range("AnalyticsEngine: unknown stream " + stream);
  }
  return *it->second;
}

std::vector<std::string> AnalyticsEngine::streams() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, _] : models_) names.push_back(name);
  return names;
}

}  // namespace darnet::engine
