// 2-D convolution over NCHW tensors with stride 1 and symmetric zero
// padding. Kernels are [out_channels, in_channels, k, k].
//
// Two execution strategies share one numeric contract:
//   * im2col + register-tiled GEMM for production-sized shapes, and
//   * a direct sliding-window kernel for tiny ones (dispatch heuristic in
//     use_gemm()).
// Both accumulate every output element in the same ascending
// (ic, kr, kc) order as the original direct kernel, so they are
// bit-for-bit interchangeable; batches are sharded across images on the
// parallel::ThreadPool with per-image partial dW/db buffers reduced in
// fixed (ascending image) order. See DESIGN.md "Threading model". At a
// vector ISA the forward pass runs the register-blocked
// kernels::conv2d_direct for every conv but the unpadded 1x1, which keeps
// the packed GEMM, and the backward runs kernels::conv2d_grad_weights and
// kernels::conv2d_grad_input, whose bits equal the two scalar backward
// paths' (DESIGN.md "Kernel architecture").
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

  /// True when this layer would take the im2col+GEMM path for the given
  /// output plane size. Exposed for tests that pin the dispatch heuristic.
  [[nodiscard]] bool use_gemm(int oh, int ow) const noexcept;

  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override;

 private:
  void validate_input(const Tensor& input) const;
  Tensor run_forward(const Tensor& input) const;

  /// Unfold one image [in_ch, h, w] into a [in_ch*k*k, oh*ow] patch matrix
  /// (rows ordered (ic, kr, kc) -- the kernel's flattened layout). Padding
  /// positions are written as zeros.
  void im2col(const float* x, int h, int w, int oh, int ow, float* col) const;

  void forward_image_direct(const float* x, int h, int w, int oh, int ow,
                            float* y) const;
  void backward_image_direct(const float* x, const float* gy, float* gx,
                             int h, int w, int oh, int ow, float* dw_out,
                             float* db_out) const;
  void backward_image_gemm(const float* col, const float* gy, float* gx,
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
