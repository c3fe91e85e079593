// 2-D convolution over NCHW tensors with stride 1 and symmetric zero
// padding. Kernels are [out_channels, in_channels, k, k].
//
// The shape picks the algorithm and the ISA only the kernel. An unpadded
// 1x1 conv is one GEMM over the image's plane matrix on the row kernel
// matmul uses (kernels::gemm_rows, or tensor::gemm_rows_serial at the
// scalar ISA); every other conv runs the register-blocked
// kernels::conv2d_direct at a vector ISA and the direct sliding-window
// loop at scalar. Each output starts at its bias and adds its taps in
// ascending (ic, kr, kc). A single image shards its output channels, a
// batch its images, on the parallel::ThreadPool; the backward keeps
// per-image partial dW/db buffers reduced in fixed (ascending image)
// order. See DESIGN.md "Threading model". The backward runs
// kernels::conv2d_grad_weights and kernels::conv2d_grad_input at a vector
// ISA, whose bits equal the scalar backward loop's (DESIGN.md "Kernel
// architecture").
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

  /// The scalar golden, one image at a time: output channels [oc0, oc1)
  /// of y, and one image's gx, dW and db partials.
  void forward_image_direct(const float* x, int h, int w, int oh, int ow,
                            float* y, int oc0, int oc1) const;
  void backward_image_direct(const float* x, const float* gy, float* gx,
                             int h, int w, int oh, int ow, float* dw_out,
                             float* db_out) const;

  int in_ch_;
  int out_ch_;
  int k_;
  int pad_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace darnet::nn
