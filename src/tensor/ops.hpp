// Numeric kernels over Tensors. All functions are pure (outputs returned or
// written to caller-provided tensors); hot paths are written over raw float
// pointers for auto-vectorisation, register-tiled for cache reuse, and
// row-sharded across the parallel::ThreadPool.
//
// Determinism contract: every kernel accumulates each output element in the
// same (ascending-k) order as the original serial implementation and shards
// only disjoint output rows, so results are bit-for-bit identical to the
// single-threaded seed kernels for *any* DARNET_THREADS value. See
// DESIGN.md "Threading model".
//
// Kernel dispatch (tensor/kernels.hpp): the GEMM entry points select a
// vector microkernel (AVX2 / AVX-512) at runtime when DARNET_KERNELS
// allows it. The scalar path below remains the bit-parity golden; the
// vector path is deterministic per-ISA (thread count still cannot change
// results) but uses FMA, so it matches the golden only to tolerance. See
// DESIGN.md "Kernel architecture".
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace darnet::tensor {

/// C = A(MxK) * B(KxN). Shapes checked.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C += A(MxK) * B(KxN), accumulating into an existing tensor.
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& c);

/// Serial building block behind matmul: C rows [i0, i1) += A * B over raw
/// row-major buffers (A is MxK, B is KxN, C is MxN). Exposed so other
/// modules (the 1x1 convolution, the LSTM recurrence) can drive the same
/// register-tiled kernel with their own sharding strategy.
void gemm_rows_serial(const float* a, const float* b, float* c,
                      std::int64_t i0, std::int64_t i1, int k, int n);

/// Scalar reference LSTM cell over `rows` rows (gate order [i, f, g, o]):
/// adds `bias` to each row's pre-activations in `gates` (rows x 4*hidden)
/// and overwrites them with sigmoid(i), sigmoid(f), tanh(g), sigmoid(o),
/// then writes c = f*c_prev + i*g, tanh_c = tanh(c) and h = o*tanh_c
/// (rows x hidden each). std::exp/std::tanh; the vector lstm_cell
/// kernels match it to tolerance.
void lstm_cell_serial(float* gates, const float* bias, const float* c_prev,
                      float* c, float* tanh_c, float* h, int rows,
                      int hidden);

/// C = A(MxK) * B(NxK)^T -- the backward-friendly layout.
Tensor matmul_bt(const Tensor& a, const Tensor& b_transposed);

/// C = A(KxM)^T * B(KxN).
Tensor matmul_at(const Tensor& a_transposed, const Tensor& b);

/// Elementwise in-place: dst += src (shapes must match).
void add_inplace(Tensor& dst, const Tensor& src);

/// Elementwise in-place: dst += alpha * src.
void axpy(float alpha, const Tensor& src, Tensor& dst);

/// Elementwise in-place scaling.
void scale_inplace(Tensor& t, float alpha) noexcept;

/// Elementwise product (hadamard), returned.
Tensor hadamard(const Tensor& a, const Tensor& b);

/// Sum of all elements.
[[nodiscard]] double sum(const Tensor& t) noexcept;

/// Mean of all elements.
[[nodiscard]] double mean(const Tensor& t);

/// Max of all elements (tensor must be non-empty).
[[nodiscard]] float max_value(const Tensor& t);

/// Index of max element of a 1-d slice starting at `offset` of length `n`.
[[nodiscard]] int argmax(std::span<const float> values);

/// L2 norm of all elements.
[[nodiscard]] double l2_norm(const Tensor& t) noexcept;

/// Row-wise softmax of a [N, C] tensor.
Tensor softmax_rows(const Tensor& logits);

/// Transpose a [M, N] tensor.
Tensor transpose(const Tensor& t);

/// Copy row `row` along the leading axis of a [N, ...] tensor into a new
/// [1, ...] tensor (same trailing shape). Bounds-checked.
Tensor take_row(const Tensor& t, int row);

/// Stack K same-shaped [1, ...] tensors into a [K, ...] batch -- the
/// serving tier's gather step. Throws on empty input, leading dim != 1,
/// or shape mismatch between rows.
Tensor stack_rows(std::span<const Tensor> rows);

}  // namespace darnet::tensor
