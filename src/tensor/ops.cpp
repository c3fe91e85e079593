#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "check/check.hpp"
#include "parallel/pool.hpp"
#include "tensor/kernels.hpp"

namespace darnet::tensor {

namespace {

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

// ---------------------------------------------------------------------------
// Blocked GEMM micro-kernels.
//
// Every kernel accumulates each output element over k in strictly ascending
// order starting from the element's current value, which is exactly the
// order the original single-threaded ikj loop used. Register tiles are
// initialised *from C* and swept over the full k extent (no k-splitting),
// so partial sums are never regrouped: results are bit-for-bit identical to
// the serial seed kernels for any thread count. Parallelism shards output
// rows, which are disjoint, so scheduling cannot affect results either.
//
// The former `if (aik == 0.0f) continue;` zero-skip branches are gone: they
// only fire for exactly-zero weights (essentially never after the first
// optimizer step) and defeat vectorisation of the inner loop. Adding the
// skipped `0.0f * b` terms is a bitwise no-op: an accumulator can never be
// -0.0 (IEEE addition only yields -0.0 when both operands are -0.0), so
// `acc + (+/-0.0)` leaves it unchanged.
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

/// Minimum per-chunk flop count before a GEMM row range is worth shipping
/// to the pool (amortises wake-up latency).
constexpr std::int64_t kChunkFlops = 1 << 18;

/// Row-sharding grain for an (k x n)-wide GEMM.
inline std::int64_t gemm_grain(int k, int n) {
  const std::int64_t row_flops =
      2 * static_cast<std::int64_t>(k) * std::max(n, 1);
  return std::max<std::int64_t>(1, kChunkFlops / std::max<std::int64_t>(
                                                     1, row_flops));
}

}  // namespace

void gemm_rows_serial(const float* a, const float* b, float* c,
                      std::int64_t i0, std::int64_t i1, int k, int n) {
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

void lstm_cell_serial(float* gates, const float* bias, const float* c_prev,
                      float* c, float* tanh_c, float* h, int rows,
                      int hidden) {
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

Tensor matmul(const Tensor& a, const Tensor& b) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
  require(a.dim(1) == b.dim(0), "matmul: inner dims mismatch");
  Tensor c({a.dim(0), b.dim(1)});
  matmul_accumulate(a, b, c);
  return c;
}

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
          "matmul_accumulate: rank-2 tensors required");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n,
          "matmul_accumulate: shape mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // One dispatch per call: vector ISA active -> SIMD row kernel, else the
  // scalar bit-parity golden. Both shard disjoint rows, so thread count
  // never affects results for a fixed ISA.
  const kernels::Kernels* kv = kernels::active_kernels();
  const auto rows_fn = (kv != nullptr) ? kv->gemm_rows : &gemm_rows_serial;
#ifdef DARNET_CHECKED
  // Checked builds: every chunk writes a disjoint band of output rows and
  // together the bands tile [0, m) exactly.
  check::ShardWriteTracker tracker("matmul_accumulate output rows");
  parallel::parallel_for(0, m, gemm_grain(k, n),
                         [&](std::int64_t i0, std::int64_t i1) {
                           tracker.record(i0, i1);
                           rows_fn(pa, pb, pc, i0, i1, k, n);
                         });
  tracker.expect_exact_cover(0, m);
#else
  parallel::parallel_for(0, m, gemm_grain(k, n),
                         [&](std::int64_t i0, std::int64_t i1) {
                           rows_fn(pa, pb, pc, i0, i1, k, n);
                         });
#endif
}

Tensor matmul_bt(const Tensor& a, const Tensor& bt) {
  require(a.rank() == 2 && bt.rank() == 2, "matmul_bt: rank-2 required");
  const int m = a.dim(0), k = a.dim(1), n = bt.dim(0);
  require(bt.dim(1) == k, "matmul_bt: inner dims mismatch");
  const std::int64_t flops = 2LL * m * k * n;
  if (flops >= 32768) {
    Tensor c({m, n});
    // Materialise B = Bt^T once and run the blocked kernel. Each output
    // element still accumulates over k in ascending order from 0, so this
    // is bit-for-bit the same as the direct dot-product loop below.
    const Tensor b = transpose(bt);
    matmul_accumulate(a, b, c);
    return c;
  }
  Tensor c = Tensor::uninit({m, n});  // every element written below
  const float* pa = a.data();
  const float* pb = bt.data();
  float* pc = c.data();
  for (int i = 0; i < m; ++i) {
    const float* arow = pa + static_cast<std::size_t>(i) * k;
    for (int j = 0; j < n; ++j) {
      const float* brow = pb + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      pc[static_cast<std::size_t>(i) * n + j] = acc;
    }
  }
  return c;
}

Tensor matmul_at(const Tensor& at, const Tensor& b) {
  require(at.rank() == 2 && b.rank() == 2, "matmul_at: rank-2 required");
  const int k = at.dim(0), m = at.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_at: inner dims mismatch");
  Tensor c({m, n});
  const std::int64_t flops = 2LL * m * k * n;
  if (flops >= 32768) {
    // Materialise A = At^T and run the blocked kernel; per-element
    // accumulation order (ascending k from 0) matches the direct loop.
    const Tensor a = transpose(at);
    matmul_accumulate(a, b, c);
    return c;
  }
  const float* pa = at.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = pa + static_cast<std::size_t>(kk) * m;
    const float* brow = pb + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

void add_inplace(Tensor& dst, const Tensor& src) {
  require(dst.same_shape(src), "add_inplace: shape mismatch");
  float* d = dst.data();
  const float* s = src.data();
  const std::size_t n = dst.numel();
  for (std::size_t i = 0; i < n; ++i) d[i] += s[i];
}

void axpy(float alpha, const Tensor& src, Tensor& dst) {
  require(dst.same_shape(src), "axpy: shape mismatch");
  float* d = dst.data();
  const float* s = src.data();
  const std::size_t n = dst.numel();
  for (std::size_t i = 0; i < n; ++i) d[i] += alpha * s[i];
}

void scale_inplace(Tensor& t, float alpha) noexcept {
  for (auto& v : t.flat()) v *= alpha;
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  require(a.same_shape(b), "hadamard: shape mismatch");
  Tensor c = Tensor::uninit(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const std::size_t n = a.numel();
  for (std::size_t i = 0; i < n; ++i) pc[i] = pa[i] * pb[i];
  return c;
}

double sum(const Tensor& t) noexcept {
  double acc = 0.0;
  for (float v : t.flat()) acc += v;
  return acc;
}

double mean(const Tensor& t) {
  if (t.empty()) throw std::invalid_argument("mean: empty tensor");
  return sum(t) / static_cast<double>(t.numel());
}

float max_value(const Tensor& t) {
  if (t.empty()) throw std::invalid_argument("max_value: empty tensor");
  return *std::max_element(t.flat().begin(), t.flat().end());
}

int argmax(std::span<const float> values) {
  if (values.empty()) throw std::invalid_argument("argmax: empty span");
  return static_cast<int>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

double l2_norm(const Tensor& t) noexcept {
  double acc = 0.0;
  for (float v : t.flat()) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

Tensor softmax_rows(const Tensor& logits) {
  require(logits.rank() == 2, "softmax_rows: rank-2 required");
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor out = Tensor::uninit({n, c});
  const float* in = logits.data();
  float* o = out.data();
  // Rows are independent; sharding them over the pool is bit-exact.
  parallel::parallel_for(
      0, n, std::max(1, 4096 / std::max(1, c)),
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t i = r0; i < r1; ++i) {
          const float* row = in + static_cast<std::size_t>(i) * c;
          float* orow = o + static_cast<std::size_t>(i) * c;
          float mx = row[0];
          for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
          double denom = 0.0;
          for (int j = 0; j < c; ++j) {
            orow[j] = std::exp(row[j] - mx);
            denom += orow[j];
          }
          const float inv = static_cast<float>(1.0 / denom);
          for (int j = 0; j < c; ++j) orow[j] *= inv;
        }
      });
  return out;
}

Tensor transpose(const Tensor& t) {
  require(t.rank() == 2, "transpose: rank-2 required");
  const int m = t.dim(0), n = t.dim(1);
  Tensor out = Tensor::uninit({n, m});
  const float* in = t.data();
  float* o = out.data();
  // Tiled to keep both access patterns cache-resident.
  constexpr int kTile = 32;
  for (int i0 = 0; i0 < m; i0 += kTile) {
    const int i1 = std::min(m, i0 + kTile);
    for (int j0 = 0; j0 < n; j0 += kTile) {
      const int j1 = std::min(n, j0 + kTile);
      for (int i = i0; i < i1; ++i) {
        for (int j = j0; j < j1; ++j) {
          o[static_cast<std::size_t>(j) * m + i] =
              in[static_cast<std::size_t>(i) * n + j];
        }
      }
    }
  }
  return out;
}

Tensor take_row(const Tensor& t, int row) {
  require(t.rank() >= 1, "take_row: rank >= 1 required");
  require(row >= 0 && row < t.dim(0), "take_row: row out of range");
  Shape shape = t.shape();
  shape[0] = 1;
  Tensor out = Tensor::uninit(shape);
  const std::size_t stride = t.numel() / static_cast<std::size_t>(t.dim(0));
  std::copy_n(t.data() + static_cast<std::size_t>(row) * stride, stride,
              out.data());
  return out;
}

Tensor stack_rows(std::span<const Tensor> rows) {
  require(!rows.empty(), "stack_rows: empty input");
  const Tensor& first = rows.front();
  require(first.rank() >= 1 && first.dim(0) == 1,
          "stack_rows: rows must have leading dim 1");
  Shape shape = first.shape();
  shape[0] = static_cast<int>(rows.size());
  Tensor out = Tensor::uninit(shape);
  const std::size_t stride = first.numel();
  float* o = out.data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    require(rows[i].same_shape(first), "stack_rows: row shape mismatch");
    std::copy_n(rows[i].data(), stride, o + i * stride);
  }
  return out;
}

}  // namespace darnet::tensor
