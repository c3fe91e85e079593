// The kernel table: one row of six kernels per ISA, the GEMM/conv/LSTM
// forward hot path and the Conv2D backward pass that training runs. Every
// layer calls its kernels through active_kernels(), so the ISA is chosen
// here and nowhere else.
//
// Dispatch policy (DESIGN.md "Kernel architecture"):
//  * The scalar row (kernels_scalar.cpp) is the bit-parity golden: the
//    determinism contract (ascending-k accumulation, disjoint output rows)
//    is stated against it and every hard-coded golden hash in the test
//    suite is pinned to it. It rounds each product before its add in
//    every build (-ffp-contract=off). ctest runs with
//    DARNET_KERNELS=scalar.
//  * The vector rows' forward kernels (AVX2+FMA / AVX-512F, portable
//    __builtin-vector implementations compiled in per-file -m TUs) use
//    fused multiply-add and, for dot-product shapes, lane-split
//    accumulators -- so they are *deterministic for a fixed ISA* (thread
//    count still cannot change results) but only tolerance-comparable to
//    the scalar golden. Each FMA is spelled out, so neither can the build
//    type. test_kernels holds that bound, gemm_rows and conv2d_direct to
//    their FMA sequences, and the models' forwards to a hash per ISA.
//  * The two Conv2D backward kernels (conv2d_grad_weights,
//    conv2d_grad_input) keep the scalar row's order and rounding in every
//    row, so no ISA changes a trained weight. test_kernels pins them to
//    the scalar row bit for bit.
//  * Selection: the DARNET_KERNELS environment variable (scalar | avx2 |
//    avx512 | auto; default auto) intersected with __builtin_cpu_supports
//    at first use; set_isa() overrides programmatically (tests, benches).
//    Requesting an ISA the CPU or build lacks falls back to the best
//    supported one -- never an illegal-instruction crash.
#pragma once

#include <cstdint>

namespace darnet::tensor::kernels {

enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// One ISA's row of kernels. All pointers are to row-major float
/// buffers; none may alias. Each entry states the scalar row's sequence,
/// the golden, next to the vector rows'.
struct Kernels {
  /// C rows [i0, i1) += A * B (A is MxK, B is KxN, C is MxN), ascending-k
  /// per element from its value in C, whatever its tile or row shard:
  /// acc = acc + round(a * b) once per k in the scalar row,
  /// acc = fma(a, b, acc) in a vector row. matmul runs it, the LSTM
  /// recurrence too, and so does the unpadded 1x1 conv forward, on a
  /// bias-filled C with B the input plane matrix.
  void (*gemm_rows)(const float* a, const float* b, float* c,
                    std::int64_t i0, std::int64_t i1, int k, int n);
  /// y[i][j] = bias[j] + dot(x[i], wt[j]) for i in [m0, m1), j in [0, n)
  /// with wt row-major [n][k] (Dense's [out, in] weight, read in place),
  /// y overwritten. The scalar row sums round(x * w) from +0 in ascending
  /// k, then adds the bias; a vector row splits k over lanes and
  /// accumulators with fma, then adds the bias to the reduced sum.
  void (*gemv_bias_wt)(const float* x, const float* wt, const float* bias,
                       float* y, std::int64_t m0, std::int64_t m1, int k,
                       int n);
  /// Direct single-image convolution for output channels [oc0, oc1), any
  /// k and any width (Conv2D runs it for every conv but the unpadded
  /// 1x1): each y[oc][r][c] starts at bias[oc] and takes one tap of
  /// w[oc][ic][kr][kc] and xp[ic][r+kr][c+kc] per (ic, kr, kc),
  /// ascending, border zeros included: acc = acc + round(w * x) in the
  /// scalar row, acc = fma(w, x, acc) in a vector row.
  /// That exact sequence makes the result independent of tiling, of the
  /// [oc0, oc1) shard and of the thread count; nothing outside those
  /// channels' output planes is written. `xp` is the input with its zero
  /// border already written (in_ch planes of ph x pw, ph = oh + k - 1,
  /// pw = ow + k - 1) and must stay readable for kConvSlack floats past
  /// its last plane: a vector row tiles narrow planes over the padded
  /// row stride, and a plane's last vector can overrun it. `wts` is the
  /// natural [out_ch][in_ch][k][k] weight layout (no pre-pack needed).
  /// Precondition: finite weights and a bias that is not -0. A border tap
  /// adds w * 0 = +-0, which then changes no sum, so the result equals a
  /// loop that skips the border (training from the +0 bias init never
  /// makes a -0 bias).
  void (*conv2d_direct)(const float* xp, const float* wts, const float* bias,
                        float* y, int oc0, int oc1, int in_ch, int k,
                        int ph, int pw, int oh, int ow);
  /// Conv2D input gradient of one image, stride 1: the transposed direct
  /// conv, tiled as conv2d_direct. Every gx[ic][y][x] of the h x w
  /// planes of all in_ch channels is overwritten: it starts at +0 and
  /// takes acc = acc + round(w[oc][ic][kr][kc] * gp[oc][y+k-1-kr][x+k-1-kc])
  /// -- one rounded multiply and one rounded add, never an FMA -- per tap
  /// in ascending (oc, kr, kc). Every row keeps that sequence, so the
  /// result is the same bit for bit at every ISA. `gp` is the output
  /// gradient [out_ch][oh][ow] placed at row and column offset k-1-pad (cropped
  /// where that is negative) in out_ch zeroed planes of ph x pw,
  /// ph = h + k - 1, pw = w + k - 1, readable for kConvSlack floats past
  /// its last plane. Precondition: finite weights -- the taps that fall
  /// on gp's zero border add w * 0, which is +-0 and leaves the sum
  /// unchanged only when w is finite (a loop that skips them would not).
  /// `wts` is the natural [out_ch][in_ch][k][k] layout.
  void (*conv2d_grad_input)(const float* gp, const float* wts, float* gx,
                            int in_ch, int out_ch, int k, int ph, int pw,
                            int h, int w);
  /// Conv2D weight and bias gradients of one image, stride 1. For every
  /// weight, acc (double, from +0) takes double(x) * double(g) over the
  /// output pixels in ascending r*ow + c, then dw[oc][ic][kr][kc] +=
  /// float(acc); db[oc] += float(the ascending double sum of g[oc]).
  /// Every row keeps that sequence, so the result is the same bit for bit
  /// at every ISA; `+=` onto a zeroed partial also turns a -0 into +0.
  /// `xd` is the image [in_ch][h][w] widened to double in in_ch
  /// zero-bordered planes of ph x pw (ph = oh + k - 1, pw = ow + k - 1,
  /// the input at offset pad); border taps add 0 * g, which changes no
  /// sum for finite g. `gy` is the output gradient [out_ch][oh][ow];
  /// `gt` is scratch for oh*ow*ldg floats, ldg = out_ch rounded up to
  /// kConvGradLanes (a vector row transposes gy into it; the scalar row
  /// leaves it alone).
  void (*conv2d_grad_weights)(const double* xd, const float* gy, float* gt,
                              float* dw, float* db, int in_ch, int out_ch,
                              int k, int ph, int pw, int oh, int ow);
  /// One LSTM cell step over `rows` rows: adds `bias` to each row's
  /// [i | f | g | o] pre-activations in `gates` (rows x 4*hidden),
  /// overwrites them with sigmoid(i), sigmoid(f), tanh(g), sigmoid(o),
  /// and writes c = f*c_prev + i*g, tanh_c = tanh(c) and h = o*tanh_c
  /// (rows x hidden each). The scalar row calls std::exp and std::tanh;
  /// a vector row goes through a vector expf (within ~2 ulp of them).
  /// Each row is computed on its own, so a row's result never depends on
  /// `rows` or on its position in the batch.
  void (*lstm_cell)(float* gates, const float* bias, const float* c_prev,
                    float* c, float* tanh_c, float* h, int rows,
                    int hidden);
};

/// Floats past the last input plane that a vector row's conv2d_direct and
/// conv2d_grad_input may read: less than one vector of the widest ISA
/// (16 floats for AVX-512).
inline constexpr int kConvSlack = 16;

/// conv2d_grad_weights transposes the output gradient to rows of this
/// many channels (a multiple of both widths' lanes of doubles).
inline constexpr int kConvGradLanes = 8;

/// The active ISA: resolved once from DARNET_KERNELS + CPU detection,
/// overridable with set_isa(). Cheap after first call (one atomic load).
[[nodiscard]] Isa active() noexcept;

/// Programmatic override (wins over the environment). Falls back to the
/// best supported ISA when `isa` is unavailable; returns what was set.
Isa set_isa(Isa isa) noexcept;

/// True when both the build and the CPU can run `isa`.
[[nodiscard]] bool isa_supported(Isa isa) noexcept;

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// The active ISA's row of the kernel table. Every layer calls its kernels
/// through it, so the ISA is chosen here and nowhere else.
[[nodiscard]] const Kernels& active_kernels() noexcept;

}  // namespace darnet::tensor::kernels
