// The scalar kernel row: the bit-parity golden every hard-coded hash in
// the test suite is pinned to, and what ctest runs (DARNET_KERNELS=
// scalar). Plain C++ with no -m flags, built like the rest of the tree
// with -ffp-contract=off, so every `acc += w * x` is a rounded multiply
// then a rounded add at every optimisation level and under
// -march=native. Each element's sequence is stated per entry in
// kernels.hpp; none depends on how the caller shards rows, channels or
// images, so thread count never changes a bit.
//
// The convolutions read the same zero-bordered planes as the vector rows.
// The forward and the input gradient keep the row-wise loop shape of the
// direct loops they replace: the tap loop outer, one row update inner,
// which the compiler vectorises without reordering any element's sum. A
// tap over the border adds w * 0, which leaves an accumulator unchanged
// for finite w: the accumulator is never -0, because it starts at +0 or a
// bias that is not -0, and a sum is -0 only when both of its terms are.
// The dot products (gemv_bias_wt and the weight gradient) run several
// independent sums at once, so the adds' latency overlaps; each sum keeps
// its own order.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/kernels.hpp"

namespace darnet::tensor::kernels {
namespace {

// ---------------------------------------------------------------------------
// GEMM rows: C rows [i0, i1) += A * B, register-tiled.
//
// Every element accumulates over k in strictly ascending order starting
// from its value in C. Register tiles are initialised *from C* and swept
// over the full k extent (no k-splitting), so partial sums are never
// regrouped: neither the tile an element lands in nor the caller's row
// shard changes its bits.
//
// There is no zero-skip branch on A: it would only fire for exactly-zero
// weights and defeats vectorisation of the inner loop. Adding the skipped
// `0.0f * b` terms is a bitwise no-op, because the accumulator is never -0.
// ---------------------------------------------------------------------------

/// One C row tile: c[j..j+NR) += sum_k a[k] * b[k][j..j+NR).
template <int NR>
inline void tile_row1(const float* a, const float* pb, float* c, int k, int n,
                      int j) {
  float acc[NR];
  for (int u = 0; u < NR; ++u) acc[u] = c[j + u];
  for (int kk = 0; kk < k; ++kk) {
    const float* b = pb + static_cast<std::size_t>(kk) * n + j;
    const float x = a[kk];
    for (int u = 0; u < NR; ++u) acc[u] += x * b[u];
  }
  for (int u = 0; u < NR; ++u) c[j + u] = acc[u];
}

/// Four C rows at once: 4x the reuse of each loaded B row.
template <int NR>
inline void tile_row4(const float* a0, const float* a1, const float* a2,
                      const float* a3, const float* pb, float* c0, float* c1,
                      float* c2, float* c3, int k, int n, int j) {
  float r0[NR], r1[NR], r2[NR], r3[NR];
  for (int u = 0; u < NR; ++u) {
    r0[u] = c0[j + u];
    r1[u] = c1[j + u];
    r2[u] = c2[j + u];
    r3[u] = c3[j + u];
  }
  for (int kk = 0; kk < k; ++kk) {
    const float* b = pb + static_cast<std::size_t>(kk) * n + j;
    const float x0 = a0[kk], x1 = a1[kk], x2 = a2[kk], x3 = a3[kk];
    for (int u = 0; u < NR; ++u) {
      const float bv = b[u];
      r0[u] += x0 * bv;
      r1[u] += x1 * bv;
      r2[u] += x2 * bv;
      r3[u] += x3 * bv;
    }
  }
  for (int u = 0; u < NR; ++u) {
    c0[j + u] = r0[u];
    c1[j + u] = r1[u];
    c2[j + u] = r2[u];
    c3[j + u] = r3[u];
  }
}

void gemm_rows(const float* a, const float* b, float* c, std::int64_t i0,
               std::int64_t i1, int k, int n) {
  std::int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + static_cast<std::size_t>(i) * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      tile_row4<16>(a0, a1, a2, a3, b, c0, c1, c2, c3, k, n, j);
    }
    for (; j + 4 <= n; j += 4) {
      tile_row4<4>(a0, a1, a2, a3, b, c0, c1, c2, c3, k, n, j);
    }
    for (; j < n; ++j) {
      tile_row4<1>(a0, a1, a2, a3, b, c0, c1, c2, c3, k, n, j);
    }
  }
  for (; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j + 16 <= n; j += 16) tile_row1<16>(arow, b, crow, k, n, j);
    for (; j + 4 <= n; j += 4) tile_row1<4>(arow, b, crow, k, n, j);
    for (; j < n; ++j) tile_row1<1>(arow, b, crow, k, n, j);
  }
}

/// Rows [i, i + MR) x outputs [j, j + NR) of y: MR * NR independent dot
/// products, chains enough to hide the add latency, each summed from +0
/// in ascending k before the bias is added.
template <int MR, int NR>
inline void gemv_block(const float* x, const float* wt, const float* bias,
                       float* y, std::int64_t i, int j, int k, int n) {
  float acc[MR][NR] = {};
  for (int kk = 0; kk < k; ++kk) {
    for (int r = 0; r < MR; ++r) {
      const float xv = x[static_cast<std::size_t>(i + r) * k + kk];
      for (int c = 0; c < NR; ++c) {
        acc[r][c] += xv * wt[static_cast<std::size_t>(j + c) * k + kk];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int c = 0; c < NR; ++c) {
      y[static_cast<std::size_t>(i + r) * n + j + c] = acc[r][c] + bias[j + c];
    }
  }
}

/// Rows [i, i + MR) of y: NR outputs a block, then the rest one at a time.
template <int MR, int NR>
inline void gemv_rows(const float* x, const float* wt, const float* bias,
                      float* y, std::int64_t i, int k, int n) {
  int j = 0;
  for (; j + NR <= n; j += NR) gemv_block<MR, NR>(x, wt, bias, y, i, j, k, n);
  for (; j < n; ++j) gemv_block<MR, 1>(x, wt, bias, y, i, j, k, n);
}

void gemv_bias_wt(const float* x, const float* wt, const float* bias,
                  float* y, std::int64_t m0, std::int64_t m1, int k, int n) {
  std::int64_t i = m0;
  for (; i + 4 <= m1; i += 4) gemv_rows<4, 2>(x, wt, bias, y, i, k, n);
  for (; i < m1; ++i) gemv_rows<1, 8>(x, wt, bias, y, i, k, n);
}

/// y[0..len) += w * x[0..len): one row update of a convolution tap.
inline void tap_row(float* y, const float* x, float w, int len) {
  for (int c = 0; c < len; ++c) y[c] += w * x[c];
}

void conv2d_direct(const float* xp, const float* wts, const float* bias,
                   float* y, int oc0, int oc1, int in_ch, int k, int ph,
                   int pw, int oh, int ow) {
  const std::size_t plane = static_cast<std::size_t>(oh) * ow;
  const std::size_t xplane = static_cast<std::size_t>(ph) * pw;
  for (int oc = oc0; oc < oc1; ++oc) {
    float* yp = y + oc * plane;
    std::fill(yp, yp + plane, bias[oc]);
    const float* wk = wts + static_cast<std::size_t>(oc) * in_ch * k * k;
    for (int ic = 0; ic < in_ch; ++ic) {
      const float* xpl = xp + ic * xplane;
      for (int kr = 0; kr < k; ++kr) {
        for (int kc = 0; kc < k; ++kc, ++wk) {
          for (int r = 0; r < oh; ++r) {
            tap_row(yp + static_cast<std::size_t>(r) * ow,
                    xpl + static_cast<std::size_t>(r + kr) * pw + kc, *wk,
                    ow);
          }
        }
      }
    }
  }
}

void conv2d_grad_input(const float* gp, const float* wts, float* gx,
                       int in_ch, int out_ch, int k, int ph, int pw, int h,
                       int w) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t gplane = static_cast<std::size_t>(ph) * pw;
  const std::size_t kk = static_cast<std::size_t>(k) * k;
  for (int ic = 0; ic < in_ch; ++ic) {
    float* gxp = gx + ic * plane;
    std::fill(gxp, gxp + plane, 0.0f);
    for (int oc = 0; oc < out_ch; ++oc) {
      const float* gpl = gp + oc * gplane;
      const float* wk =
          wts + (static_cast<std::size_t>(oc) * in_ch + ic) * kk;
      for (int kr = 0; kr < k; ++kr) {
        for (int kc = 0; kc < k; ++kc, ++wk) {
          for (int r = 0; r < h; ++r) {
            tap_row(gxp + static_cast<std::size_t>(r) * w,
                    gpl + static_cast<std::size_t>(r + k - 1 - kr) * pw +
                        (k - 1 - kc),
                    *wk, w);
          }
        }
      }
    }
  }
}

/// One output channel's weight gradient: its output gradient plane `g`,
/// the image's double planes `xd`, and its row of in_ch * k * k weights.
struct WgradArgs {
  const double* xd;
  const float* g;
  float* dw;
  int k, ph, pw, oh, ow;
};

/// Taps [t0, t0 + T) of the flattened (ic, kr, kc) weight row: T
/// independent double sums, chains enough to hide the add latency, each
/// over the pixels in ascending r*ow + c from +0.
template <int T>
void wgrad_taps(const WgradArgs& a, int t0) {
  const double* xt[T];
  for (int t = 0; t < T; ++t) {
    const int tap = t0 + t, kk = a.k * a.k;
    xt[t] = a.xd + (static_cast<std::size_t>(tap / kk) * a.ph +
                    tap % kk / a.k) * a.pw + tap % a.k;
  }
  double acc[T] = {};
  for (int r = 0; r < a.oh; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * a.pw;
    const float* gr = a.g + static_cast<std::size_t>(r) * a.ow;
    for (int c = 0; c < a.ow; ++c) {
      const double gv = gr[c];
      for (int t = 0; t < T; ++t) acc[t] += xt[t][row + c] * gv;
    }
  }
  for (int t = 0; t < T; ++t) a.dw[t0 + t] += static_cast<float>(acc[t]);
}

/// The last nt (< T) taps of a row.
template <int T>
void wgrad_tail(const WgradArgs& a, int t0, int nt) {
  if constexpr (T > 0) {
    if (nt == T) return wgrad_taps<T>(a, t0);
    wgrad_tail<T - 1>(a, t0, nt);
  }
}

void conv2d_grad_weights(const double* xd, const float* gy, float* /*gt*/,
                         float* dw, float* db, int in_ch, int out_ch, int k,
                         int ph, int pw, int oh, int ow) {
  constexpr int kTaps = 8;
  const std::size_t plane = static_cast<std::size_t>(oh) * ow;
  const int taps = in_ch * k * k;
  for (int oc = 0; oc < out_ch; ++oc) {
    const float* g = gy + oc * plane;
    double acc = 0.0;
    for (std::size_t i = 0; i < plane; ++i) acc += g[i];
    db[oc] += static_cast<float>(acc);
    const WgradArgs a{xd, g, dw + static_cast<std::size_t>(oc) * taps,
                      k, ph, pw, oh, ow};
    int t = 0;
    for (; t + kTaps <= taps; t += kTaps) wgrad_taps<kTaps>(a, t);
    wgrad_tail<kTaps - 1>(a, t, taps - t);
  }
}

void lstm_cell(float* gates, const float* bias, const float* c_prev,
               float* c, float* tanh_c, float* h, int rows, int hidden) {
  const auto sigmoid = [](float x) { return 1.0f / (1.0f + std::exp(-x)); };
  for (int r = 0; r < rows; ++r) {
    float* zi = gates + static_cast<std::size_t>(r) * 4 * hidden;
    float* zf = zi + hidden;
    float* zg = zf + hidden;
    float* zo = zg + hidden;
    const std::size_t off = static_cast<std::size_t>(r) * hidden;
    const float* cp = c_prev + off;
    float* pc = c + off;
    float* ptc = tanh_c + off;
    float* ph = h + off;
    for (int j = 0; j < hidden; ++j) {
      zi[j] = sigmoid(zi[j] + bias[j]);
      zf[j] = sigmoid(zf[j] + bias[hidden + j]);
      zg[j] = std::tanh(zg[j] + bias[2 * hidden + j]);
      zo[j] = sigmoid(zo[j] + bias[3 * hidden + j]);
      pc[j] = zf[j] * cp[j] + zi[j] * zg[j];
      ptc[j] = std::tanh(pc[j]);
      ph[j] = zo[j] * ptc[j];
    }
  }
}

}  // namespace

const Kernels* scalar_kernels() {
  static constexpr Kernels k{&gemm_rows,         &gemv_bias_wt,
                             &conv2d_direct,     &conv2d_grad_input,
                             &conv2d_grad_weights, &lstm_cell};
  return &k;
}

}  // namespace darnet::tensor::kernels
