// Fully connected layer: y = x W^T + b, x is [N, in], W is [out, in].
#pragma once

#include "nn/layer.hpp"

namespace darnet::nn {

class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, util::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor forward_moved(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Dense"; }

  [[nodiscard]] int in_features() const noexcept { return in_; }
  [[nodiscard]] int out_features() const noexcept { return out_; }

  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override;

 private:
  /// y = x W^T + b without touching the cache.
  Tensor affine(const Tensor& x) const;
  void validate_input(const Tensor& input) const;

  int in_;
  int out_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace darnet::nn
