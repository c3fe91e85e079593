// Numeric ops over Tensors. All functions are pure (outputs returned or
// written to caller-provided tensors).
//
// Determinism contract: every op accumulates each output element in the
// same (ascending-k) order as the original serial implementation and shards
// only disjoint output rows, so results are bit-for-bit identical to the
// single-threaded seed kernels for *any* DARNET_THREADS value. See
// DESIGN.md "Threading model".
//
// Kernel dispatch (tensor/kernels.hpp): matmul row-shards the active ISA's
// gemm_rows over the parallel::ThreadPool. The scalar row is the
// bit-parity golden; the vector rows are deterministic per ISA (thread
// count still cannot change results) but fuse each multiply-add, so they
// match the golden only to tolerance. matmul_bt and matmul_at run their
// own direct loop below 32,768 flops, and matmul's row kernel on a
// transposed copy above. See DESIGN.md "Kernel architecture".
#pragma once

#include "tensor/tensor.hpp"

namespace darnet::tensor {

/// C = A(MxK) * B(KxN). Shapes checked.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C += A(MxK) * B(KxN), accumulating into an existing tensor.
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& c);

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
