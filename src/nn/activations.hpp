// Stateless / lightly-stateful layers: ReLU, Flatten, Dropout.
#pragma once

#include "nn/layer.hpp"

namespace darnet::nn {

/// Rectified linear unit, elementwise, any rank.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  /// In-place on the stolen buffer (identical values, zero allocations).
  Tensor forward_moved(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override {
    return ShapeContract::ok(input_shape);  // elementwise: shape-preserving
  }

 private:
  Tensor mask_;  // 1 where input > 0
};

/// Collapses all trailing dims into one: [N, ...] -> [N, prod(...)].
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  /// Moves the storage through the reshape instead of copying it.
  Tensor forward_moved(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override;

 private:
  std::vector<int> cached_shape_;
};

/// Inverted dropout: active only in training mode; evaluation is identity.
class Dropout final : public Layer {
 public:
  Dropout(double drop_probability, std::uint64_t seed);

  Tensor forward(const Tensor& input, bool training) override;
  /// Identity move-through at inference; in-place mask multiply when
  /// training (same rng consumption and values as forward()).
  Tensor forward_moved(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }
  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override {
    return ShapeContract::ok(input_shape);  // elementwise: shape-preserving
  }

 private:
  double p_;
  util::Rng rng_;
  Tensor mask_;  // drawn by training forwards only
};

}  // namespace darnet::nn
