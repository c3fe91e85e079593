#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "check/check.hpp"

namespace darnet::nn {

Sgd::Sgd(double lr, double momentum, double weight_decay)
    : Optimizer(lr), momentum_(momentum), weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("Sgd: lr must be positive");
}

void Sgd::step(const std::vector<Param*>& params) {
  if (velocity_.empty()) {
    velocity_.reserve(params.size());
    for (Param* p : params) velocity_.emplace_back(p->value.shape());
  }
  if (velocity_.size() != params.size()) {
    throw std::logic_error("Sgd: parameter list changed between steps");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param& p = *params[i];
    float* w = p.value.data();
    float* g = p.grad.data();
    float* v = velocity_[i].data();
    const std::size_t n = p.value.numel();
    const float lr = static_cast<float>(lr_);
    const float mu = static_cast<float>(momentum_);
    const float wd = static_cast<float>(weight_decay_);
    for (std::size_t j = 0; j < n; ++j) {
      v[j] = mu * v[j] + g[j];
      w[j] -= lr * (v[j] + wd * w[j]);
      g[j] = 0.0f;
    }
    DARNET_CHECK_FINITE(p.value.flat(),
                        "Sgd::step updated param #" + std::to_string(i));
  }
}

Adam::Adam(double lr, double beta1, double beta2, double epsilon)
    : Optimizer(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {
  if (lr <= 0.0) throw std::invalid_argument("Adam: lr must be positive");
}

void Adam::step(const std::vector<Param*>& params) {
  if (m_.empty()) {
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (Param* p : params) {
      m_.emplace_back(p->value.shape());
      v_.emplace_back(p->value.shape());
    }
  }
  if (m_.size() != params.size()) {
    throw std::logic_error("Adam: parameter list changed between steps");
  }
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, t_);
  const double bias2 = 1.0 - std::pow(beta2_, t_);
  const float lr_t = static_cast<float>(lr_ * std::sqrt(bias2) / bias1);
  const float b1 = static_cast<float>(beta1_);
  const float b2 = static_cast<float>(beta2_);
  const float eps = static_cast<float>(epsilon_);
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param& p = *params[i];
    float* w = p.value.data();
    float* g = p.grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const std::size_t n = p.value.numel();
    for (std::size_t j = 0; j < n; ++j) {
      m[j] = b1 * m[j] + (1.0f - b1) * g[j];
      v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
      w[j] -= lr_t * m[j] / (std::sqrt(v[j]) + eps);
      g[j] = 0.0f;
    }
    DARNET_CHECK_FINITE(p.value.flat(),
                        "Adam::step updated param #" + std::to_string(i));
  }
}

double clip_grad_norm(const std::vector<Param*>& params, double max_norm) {
  double sq = 0.0;
  for (Param* p : params) {
    for (float g : p->grad.flat()) sq += static_cast<double>(g) * g;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Param* p : params) {
      for (float& g : p->grad.flat()) g *= scale;
    }
  }
  return norm;
}

}  // namespace darnet::nn
