// 2-D convolution over NCHW tensors with stride 1 and symmetric zero
// padding. Kernels are [out_channels, in_channels, k, k].
//
// The shape picks the algorithm and the ISA only the kernel, from the
// active row of the kernel table (tensor/kernels.hpp). An unpadded 1x1
// conv is one GEMM over the image's plane matrix on kernels::gemm_rows,
// the row kernel matmul uses; every other conv runs
// kernels::conv2d_direct over a zero-bordered copy of the image. Each
// output starts at its bias and adds its taps in ascending (ic, kr, kc).
// A single image shards its output channels, a batch its images, on the
// parallel::ThreadPool; the backward runs kernels::conv2d_grad_weights
// and kernels::conv2d_grad_input per image, whose bits are the same at
// every ISA, and reduces the per-image partial dW/db buffers in fixed
// (ascending image) order. See DESIGN.md "Threading model" and "Kernel
// architecture".
#pragma once

#include "nn/layer.hpp"

namespace darnet::nn {

class Conv2D final : public Layer {
 public:
  /// `padding` of k/2 gives "same" output size for odd k.
  Conv2D(int in_channels, int out_channels, int kernel, int padding,
         util::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor forward_moved(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Conv2D"; }

  [[nodiscard]] int in_channels() const noexcept { return in_ch_; }
  [[nodiscard]] int out_channels() const noexcept { return out_ch_; }

  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override;

 private:
  void validate_input(const Tensor& input) const;
  Tensor run_forward(const Tensor& input) const;

  int in_ch_;
  int out_ch_;
  int k_;
  int pad_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace darnet::nn
