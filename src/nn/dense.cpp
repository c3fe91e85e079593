#include "nn/dense.hpp"

#include <cstdint>

#include "parallel/pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace darnet::nn {

Dense::Dense(int in_features, int out_features, util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      // Drawn as [in, out], the order every golden's RNG stream follows,
      // then stored as [out, in], the rows gemv_bias_wt reads.
      weight_(tensor::transpose(Tensor::he_normal(
          {in_features, out_features}, in_features, rng))),
      bias_(Tensor({out_features})) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Dense: feature counts must be positive");
  }
}

void Dense::validate_input(const Tensor& input) const {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Dense::forward: expected [N, " +
                                std::to_string(in_) + "], got " +
                                input.shape_string());
  }
}

ShapeContract Dense::shape_contract(
    const std::vector<int>& input_shape) const {
  if (input_shape.size() != 2) {
    return ShapeContract::bad("Dense expects rank-2 [N, " +
                              std::to_string(in_) + "] input, got rank " +
                              std::to_string(input_shape.size()));
  }
  if (input_shape[1] != in_) {
    return ShapeContract::bad("Dense expects " + std::to_string(in_) +
                              " input features, got " +
                              std::to_string(input_shape[1]));
  }
  return ShapeContract::ok({input_shape[0], out_});
}

Tensor Dense::affine(const Tensor& x) const {
  // Per-row dot products against W's [out, in] rows with the bias folded
  // into each output element (overwrite semantics), sharded over the
  // disjoint output rows.
  const auto gemv = tensor::kernels::active_kernels().gemv_bias_wt;
  const int n = x.dim(0);
  Tensor out = Tensor::uninit({n, out_});
  const float* xp = x.data();
  const float* w = weight_.value.data();
  const float* b = bias_.value.data();
  float* o = out.data();
  parallel::parallel_for(0, n, parallel::grain_for(2LL * in_ * out_),
                         [&](std::int64_t m0, std::int64_t m1) {
                           gemv(xp, w, b, o, m0, m1, in_, out_);
                         });
  return out;
}

Tensor Dense::forward(const Tensor& input, bool training) {
  validate_input(input);
  if (training) cached_input_ = input;
  return affine(input);
}

Tensor Dense::forward_moved(Tensor&& input, bool training) {
  validate_input(input);
  if (training) {
    cached_input_ = std::move(input);
    return affine(cached_input_);
  }
  return affine(input);
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Dense::backward before forward(training=true)");
  }
  const int n = cached_input_.dim(0);
  require_grad_shape(grad_output, {n, out_}, "Dense");
  // dW = G^T X ; db = column sums of G ; dX = G W.
  Tensor dw = tensor::matmul_at(grad_output, cached_input_);
  tensor::add_inplace(weight_.grad, dw);

  float* db = bias_.grad.data();
  for (int i = 0; i < n; ++i) {
    const float* row = grad_output.data() + static_cast<std::size_t>(i) * out_;
    for (int j = 0; j < out_; ++j) db[j] += row[j];
  }
  return tensor::matmul(grad_output, weight_.value);
}

}  // namespace darnet::nn
