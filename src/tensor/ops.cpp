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

}  // namespace

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
  // The active ISA's row kernel on disjoint row shards, so thread count
  // never affects results for a fixed ISA.
  const auto rows_fn = kernels::active_kernels().gemm_rows;
  const std::int64_t grain =
      parallel::grain_for(2 * static_cast<std::int64_t>(k) * std::max(n, 1));
#ifdef DARNET_CHECKED
  // Checked builds: every chunk writes a disjoint band of output rows and
  // together the bands tile [0, m) exactly.
  check::ShardWriteTracker tracker("matmul_accumulate output rows");
  parallel::parallel_for(0, m, grain,
                         [&](std::int64_t i0, std::int64_t i1) {
                           tracker.record(i0, i1);
                           rows_fn(pa, pb, pc, i0, i1, k, n);
                         });
  tracker.expect_exact_cover(0, m);
#else
  parallel::parallel_for(0, m, grain,
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
    // element still accumulates over k in ascending order from 0, bit for
    // bit the direct loop below at scalar; a vector ISA fuses each step.
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
    // accumulation order (ascending k from 0) matches the direct loop,
    // which it equals bit for bit at scalar (a vector ISA fuses).
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
