// Runtime-dispatched SIMD microkernels for the GEMM/conv inference hot
// path.
//
// Dispatch policy (DESIGN.md "Kernel architecture"):
//  * The scalar kernels in tensor/ops.cpp are the bit-parity golden: the
//    determinism contract (ascending-k accumulation, disjoint output
//    rows) is stated against them and every hard-coded golden hash in the
//    test suite is pinned to them. ctest runs with DARNET_KERNELS=scalar.
//  * The vector kernels here (AVX2+FMA / AVX-512F, portable
//    __builtin-vector implementations compiled in per-file -m TUs) use
//    fused multiply-add and, for dot-product shapes, lane-split
//    accumulators -- so they are *deterministic for a fixed ISA* (thread
//    count still cannot change results) but only tolerance-comparable to
//    the scalar golden. test_kernels holds that parity bound.
//  * Selection: the DARNET_KERNELS environment variable (scalar | avx2 |
//    avx512 | auto; default auto) intersected with __builtin_cpu_supports
//    at first use; set_isa() overrides programmatically (tests, benches).
//    Requesting an ISA the CPU or build lacks falls back to the best
//    supported one -- never an illegal-instruction crash.
#pragma once

#include <cstdint>

namespace darnet::tensor::kernels {

enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Vectorized kernel entry points. All pointers are to row-major float
/// buffers; none may alias.
struct Kernels {
  /// C rows [i0, i1) += A * B -- same contract as gemm_rows_serial
  /// (A is MxK, B is KxN, C is MxN), ascending-k per element.
  void (*gemm_rows)(const float* a, const float* b, float* c,
                    std::int64_t i0, std::int64_t i1, int k, int n);
  /// C[r][:] = bias[r] + sum_k packedA[r][k] * B[k][:] for r in
  /// [row0, row1), where packedA is the pack_rows_mr4 layout over `rows`
  /// total rows. Overwrite semantics fuse the bias fill into the kernel
  /// (the im2col conv forward). Preconditions: row0 % 4 == 0 and
  /// (row1 % 4 == 0 or row1 == rows) -- callers shard on panel
  /// boundaries, never mid-panel.
  void (*gemm_bias_packed)(const float* packed, const float* bias,
                           const float* b, float* c, int row0, int row1,
                           int rows, int k, int n);
  /// y[i][j] = bias[j] + dot(x[i], wt[j]) for i in [m0, m1), j in [0, n)
  /// with wt row-major [n][k] (the packed Dense layout: W transposed).
  void (*gemv_bias_wt)(const float* x, const float* wt, const float* bias,
                       float* y, std::int64_t m0, std::int64_t m1, int k,
                       int n);
  /// Direct (im2col-free) single-image convolution for output channels
  /// [oc0, oc1): y[oc][r][c] = bias[oc] + sum over ascending (ic, kr, kc)
  /// of w[oc][ic][kr][kc] * xp[ic][r+kr][c+kc] -- the scalar direct
  /// kernel's accumulation order, FMA-rounded. `xp` is the input with its
  /// zero border already written (in_ch planes of ph x pw, where
  /// ph = h + 2*pad); for pad == 0 the raw input is already that layout.
  /// `wts` is the natural [out_ch][in_ch][k][k] weight layout (no
  /// pre-pack needed).
  void (*conv2d_direct)(const float* xp, const float* wts, const float* bias,
                        float* y, int oc0, int oc1, int in_ch, int k,
                        int ph, int pw, int oh, int ow);
  /// One LSTM cell step over `rows` rows -- same contract as
  /// lstm_cell_serial (tensor/ops.hpp): adds `bias` to each row's
  /// [i | f | g | o] pre-activations in `gates` (rows x 4*hidden),
  /// overwrites them with the activated gates, and writes
  /// c = f*c_prev + i*g, tanh_c = tanh(c) and h = o*tanh_c (rows x
  /// hidden each). Sigmoid and tanh go through a vector expf (within
  /// ~2 ulp of std::exp/std::tanh).
  /// Each row is computed on its own, so a row's result never depends on
  /// `rows` or on its position in the batch.
  void (*lstm_cell)(float* gates, const float* bias, const float* c_prev,
                    float* c, float* tanh_c, float* h, int rows,
                    int hidden);
  /// Minimum output width at which conv2d_direct beats the im2col GEMM
  /// for this ISA (one half-width vector per row). Callers fall back to
  /// the GEMM path below it; the kernel itself stays correct for any
  /// width.
  int conv_min_ow;
};

/// The active ISA: resolved once from DARNET_KERNELS + CPU detection,
/// overridable with set_isa(). Cheap after first call (one atomic load).
[[nodiscard]] Isa active() noexcept;

/// Programmatic override (wins over the environment). Falls back to the
/// best supported ISA when `isa` is unavailable; returns what was set.
Isa set_isa(Isa isa) noexcept;

/// True when both the build and the CPU can run `isa`.
[[nodiscard]] bool isa_supported(Isa isa) noexcept;

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Kernel table for the active ISA, or nullptr when scalar -- callers
/// branch once and fall back to the scalar reference path.
[[nodiscard]] const Kernels* active_kernels() noexcept;

/// Panel-pack `rows` x `k` row-major A for gemm_bias_packed: full panels
/// of 4 rows interleaved k-major (packed[p*4*k + kk*4 + r]), remaining
/// rows appended row-major. `packed` must hold rows*k floats. The layout
/// is ISA-independent (both vector widths broadcast from it).
void pack_rows_mr4(const float* a, int rows, int k, float* packed);

}  // namespace darnet::tensor::kernels
