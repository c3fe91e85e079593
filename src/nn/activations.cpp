#include "nn/activations.hpp"

#include <utility>

namespace darnet::nn {

Tensor ReLU::forward(const Tensor& input, bool training) {
  // The loop below writes every element of `out` and of the mask.
  Tensor out = Tensor::uninit(input.shape());
  if (training) mask_ = Tensor::uninit(input.shape());
  const float* x = input.data();
  float* y = out.data();
  float* m = training ? mask_.data() : nullptr;
  const std::size_t n = input.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const bool on = x[i] > 0.0f;
    y[i] = on ? x[i] : 0.0f;
    if (m) m[i] = on ? 1.0f : 0.0f;
  }
  return out;
}

Tensor ReLU::forward_moved(Tensor&& input, bool training) {
  if (training) return forward(input, training);  // needs the mask copy
  float* x = input.data();
  const std::size_t n = input.numel();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  return std::move(input);
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(mask_)) {
    throw std::logic_error("ReLU::backward: shape mismatch with forward");
  }
  Tensor grad_in = Tensor::uninit(grad_output.shape());
  const float* g = grad_output.data();
  const float* m = mask_.data();
  float* out = grad_in.data();
  const std::size_t n = grad_output.numel();
  for (std::size_t i = 0; i < n; ++i) out[i] = g[i] * m[i];
  return grad_in;
}

Tensor Flatten::forward(const Tensor& input, bool training) {
  if (input.rank() < 2) {
    throw std::invalid_argument("Flatten: rank >= 2 required");
  }
  if (training) cached_shape_ = input.shape();
  int rest = 1;
  for (std::size_t i = 1; i < input.rank(); ++i) rest *= input.dim(i);
  return input.reshaped({input.dim(0), rest});
}

Tensor Flatten::forward_moved(Tensor&& input, bool training) {
  if (input.rank() < 2) {
    throw std::invalid_argument("Flatten: rank >= 2 required");
  }
  if (training) cached_shape_ = input.shape();
  int rest = 1;
  for (std::size_t i = 1; i < input.rank(); ++i) rest *= input.dim(i);
  const int n0 = input.dim(0);
  return std::move(input).reshaped({n0, rest});
}

ShapeContract Flatten::shape_contract(
    const std::vector<int>& input_shape) const {
  if (input_shape.size() < 2) {
    return ShapeContract::bad("Flatten expects rank >= 2, got rank " +
                              std::to_string(input_shape.size()));
  }
  int rest = 1;
  for (std::size_t i = 1; i < input_shape.size(); ++i) {
    rest *= input_shape[i];
  }
  return ShapeContract::ok({input_shape[0], rest});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (cached_shape_.empty()) {
    throw std::logic_error("Flatten::backward before forward");
  }
  return grad_output.reshaped(cached_shape_);
}

Dropout::Dropout(double drop_probability, std::uint64_t seed)
    : p_(drop_probability), rng_(seed) {
  if (p_ < 0.0 || p_ >= 1.0) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || p_ == 0.0) return input;
  mask_ = Tensor(input.shape());
  Tensor out(input.shape());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  const float* x = input.data();
  float* y = out.data();
  float* m = mask_.data();
  const std::size_t n = input.numel();
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = rng_.chance(p_) ? 0.0f : keep_scale;
    y[i] = x[i] * m[i];
  }
  return out;
}

Tensor Dropout::forward_moved(Tensor&& input, bool training) {
  if (!training || p_ == 0.0) return std::move(input);
  mask_ = Tensor(input.shape());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  float* x = input.data();
  float* m = mask_.data();
  const std::size_t n = input.numel();
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = rng_.chance(p_) ? 0.0f : keep_scale;
    x[i] *= m[i];
  }
  return std::move(input);
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;  // no mask drawn: identity
  if (!grad_output.same_shape(mask_)) {
    throw std::logic_error("Dropout::backward: shape mismatch with forward");
  }
  Tensor grad_in = Tensor::uninit(grad_output.shape());
  const float* g = grad_output.data();
  const float* m = mask_.data();
  float* out = grad_in.data();
  const std::size_t n = grad_output.numel();
  for (std::size_t i = 0; i < n; ++i) out[i] = g[i] * m[i];
  return grad_in;
}

}  // namespace darnet::nn
