// SIMD kernel dispatch + tolerance parity suite (DESIGN.md "Kernel
// architecture").
//
// Every golden hash elsewhere in the tree is pinned to the scalar
// reference kernels; this suite is where the vector kernels (AVX2+FMA,
// AVX-512F) earn their keep. For each ISA the machine supports it runs
// the same workloads through kernels::set_isa() and holds the results to
// a relative tolerance of the scalar answer -- FMA and lane-split
// accumulation reorder the floating-point sums, so bit equality is not
// the contract here; *thread-count* bit equality still is, per ISA.
//
// Shapes are deliberately awkward: 1x1, primes, and widths straddling
// every tile boundary in the kernels (vector width, half, quarter,
// scalar column tail; conv_min_ow GEMM fallback; mid-panel GEMM rows).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "engine/architectures.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "parallel/pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using darnet::tensor::Tensor;
namespace kernels = darnet::tensor::kernels;
namespace nn = darnet::nn;
namespace ops = darnet::tensor;
using darnet::util::Rng;

/// The vector ISAs this machine can actually run (may be empty -- the
/// suite then degenerates to scalar self-checks and still passes).
std::vector<kernels::Isa> supported_vector_isas() {
  std::vector<kernels::Isa> out;
  for (kernels::Isa isa : {kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (kernels::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// RAII: restore the scalar golden ISA and the entry thread count no
/// matter how the test exits, so later suites see the pinned config.
struct IsaGuard {
  int entry_threads{darnet::parallel::thread_count()};
  ~IsaGuard() {
    kernels::set_isa(kernels::Isa::kScalar);
    darnet::parallel::set_thread_count(entry_threads);
  }
};

void expect_close(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::size_t i = 0; i < want.numel(); ++i) {
    const float a = got[i];
    const float b = want[i];
    const float tol =
        1e-4F * std::max(1.0F, std::max(std::fabs(a), std::fabs(b)));
    ASSERT_NEAR(a, b, tol) << what << " at flat index " << i;
  }
}

TEST(Kernels, ScalarAlwaysSupportedAndHasNoTable) {
  IsaGuard guard;
  EXPECT_TRUE(kernels::isa_supported(kernels::Isa::kScalar));
  EXPECT_EQ(kernels::set_isa(kernels::Isa::kScalar), kernels::Isa::kScalar);
  EXPECT_EQ(kernels::active(), kernels::Isa::kScalar);
  EXPECT_EQ(kernels::active_kernels(), nullptr);
}

TEST(Kernels, SetIsaFallsBackToSupported) {
  IsaGuard guard;
  // Requesting any ISA must land on a supported one -- never an illegal
  // instruction later. On AVX-512 hardware this is identity; elsewhere
  // it degrades (avx512 -> avx2 -> scalar).
  const kernels::Isa got = kernels::set_isa(kernels::Isa::kAvx512);
  EXPECT_TRUE(kernels::isa_supported(got));
  EXPECT_EQ(kernels::active(), got);
  if (got != kernels::Isa::kScalar) {
    const kernels::Kernels* kv = kernels::active_kernels();
    ASSERT_NE(kv, nullptr);
    EXPECT_GE(kv->conv_min_ow, 1);
  }
}

TEST(Kernels, MatmulParityOnAwkwardShapes) {
  IsaGuard guard;
  // m/k/n straddle the panel size (4 rows), the vector width and its
  // half/quarter tails: 1x1, primes, one-past and one-short of 16/32.
  const int shapes[][3] = {{1, 1, 1},   {1, 7, 1},   {3, 5, 7},
                           {4, 4, 16},  {5, 13, 17}, {7, 19, 15},
                           {8, 31, 33}, {17, 23, 9}, {2, 3, 1}};
  Rng rng(11);
  for (const auto& s : shapes) {
    Tensor a = Tensor::uniform({s[0], s[1]}, 1.0F, rng);
    Tensor b = Tensor::uniform({s[1], s[2]}, 1.0F, rng);
    Tensor bt = Tensor::uniform({s[2], s[1]}, 1.0F, rng);
    Tensor at = Tensor::uniform({s[1], s[0]}, 1.0F, rng);
    kernels::set_isa(kernels::Isa::kScalar);
    Tensor ab = ops::matmul(a, b);
    Tensor abt = ops::matmul_bt(a, bt);
    Tensor atb = ops::matmul_at(at, b);
    for (kernels::Isa isa : supported_vector_isas()) {
      kernels::set_isa(isa);
      expect_close(ops::matmul(a, b), ab, "matmul");
      expect_close(ops::matmul_bt(a, bt), abt, "matmul_bt");
      expect_close(ops::matmul_at(at, b), atb, "matmul_at");
    }
  }
}

TEST(Kernels, DenseForwardParity) {
  IsaGuard guard;
  // Dense packs W^T once and dispatches gemv_bias_wt; odd feature counts
  // exercise the dot-product tail lanes.
  Rng rng(12);
  nn::Dense dense(37, 11, rng);
  Tensor x = Tensor::uniform({5, 37}, 1.0F, rng);
  kernels::set_isa(kernels::Isa::kScalar);
  Tensor want = dense.forward(x, false);
  for (kernels::Isa isa : supported_vector_isas()) {
    kernels::set_isa(isa);
    expect_close(dense.forward(x, false), want, "dense forward");
  }
}

TEST(Kernels, Conv2DForwardParityOnAwkwardShapes) {
  IsaGuard guard;
  // Widths cover: 1x1 outputs, conv_min_ow GEMM fallback (narrow), the
  // direct path's full/half/quarter column strips and the scalar column
  // tail (e.g. ow = 13 on AVX-512 = 8 + 4 + 1), plus the unit-conv
  // (k = 1, pad = 0) packed-GEMM route used by the Inception bottlenecks.
  struct Case {
    int in_ch, out_ch, k, pad, hw, n;
  };
  const Case cases[] = {
      {1, 1, 1, 0, 1, 1},  {1, 3, 3, 1, 1, 1},  {2, 3, 3, 1, 3, 1},
      {1, 2, 3, 0, 5, 2},  {8, 4, 1, 0, 12, 1}, {3, 5, 3, 1, 7, 1},
      {2, 4, 3, 1, 13, 1}, {4, 2, 5, 2, 17, 1}, {1, 8, 3, 1, 24, 1},
      {2, 2, 3, 1, 12, 3}, {3, 2, 5, 2, 8, 2},  {1, 4, 3, 1, 48, 1},
  };
  Rng rng(13);
  for (const Case& c : cases) {
    nn::Conv2D conv(c.in_ch, c.out_ch, c.k, c.pad, rng);
    Tensor x = Tensor::uniform({c.n, c.in_ch, c.hw, c.hw}, 1.0F, rng);
    kernels::set_isa(kernels::Isa::kScalar);
    Tensor want = conv.forward(x, false);
    for (kernels::Isa isa : supported_vector_isas()) {
      kernels::set_isa(isa);
      expect_close(conv.forward(x, false), want, "conv2d forward");
    }
  }
}

TEST(Kernels, LstmCellParityIncludingSaturationAndTails) {
  IsaGuard guard;
  // The vector cell evaluates sigmoid/tanh through its own expf; hold it
  // to the std::exp/std::tanh reference on random rows, on saturating
  // pre-activations (+-100, where a naive exp overflows), and at hidden
  // sizes that leave a ragged tail after the last full vector.
  if (supported_vector_isas().empty()) GTEST_SKIP() << "no vector ISA";
  Rng rng(16);
  for (int hidden : {5, 20, 32}) {
    constexpr int kRows = 3;
    Tensor gates = Tensor::uniform({kRows, 4 * hidden}, 4.0F, rng);
    for (std::size_t i = 0; i < gates.numel(); i += 3) {
      gates[i] = (i % 2 == 0) ? 100.0F : -100.0F;
    }
    const Tensor bias = Tensor::uniform({4 * hidden}, 1.0F, rng);
    Tensor c_prev = Tensor::uniform({kRows, hidden}, 3.0F, rng);
    c_prev[0] = 100.0F;
    c_prev[1] = -100.0F;
    Tensor want_gates = gates;
    Tensor want_c({kRows, hidden});
    Tensor want_tc({kRows, hidden});
    Tensor want_h({kRows, hidden});
    ops::lstm_cell_serial(want_gates.data(), bias.data(), c_prev.data(),
                          want_c.data(), want_tc.data(), want_h.data(),
                          kRows, hidden);
    for (kernels::Isa isa : supported_vector_isas()) {
      kernels::set_isa(isa);
      Tensor got_gates = gates;
      Tensor got_c({kRows, hidden});
      Tensor got_tc({kRows, hidden});
      Tensor got_h({kRows, hidden});
      kernels::active_kernels()->lstm_cell(
          got_gates.data(), bias.data(), c_prev.data(), got_c.data(),
          got_tc.data(), got_h.data(), kRows, hidden);
      expect_close(got_gates, want_gates, "lstm_cell gates");
      expect_close(got_c, want_c, "lstm_cell c");
      expect_close(got_tc, want_tc, "lstm_cell tanh_c");
      expect_close(got_h, want_h, "lstm_cell h");
    }
  }
}

TEST(Kernels, ImuRnnRowsDoNotDependOnTheBatch) {
  IsaGuard guard;
  // A served verdict must equal the offline one whatever batch the
  // request lands in: at every ISA, each row of a batch-8 pass through
  // the paper's BiLSTM model equals that row's batch-1 pass bit for bit.
  nn::Sequential rnn = darnet::engine::build_imu_rnn({});
  Rng rng(17);
  const Tensor batch = Tensor::uniform({8, 20, 13}, 2.0F, rng);
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  for (kernels::Isa isa : supported_vector_isas()) isas.push_back(isa);
  for (kernels::Isa isa : isas) {
    kernels::set_isa(isa);
    const Tensor all = rnn.forward(batch, false);
    const std::size_t width = all.numel() / 8;
    for (int row = 0; row < 8; ++row) {
      const Tensor one = rnn.forward(ops::take_row(batch, row), false);
      ASSERT_EQ(one.numel(), width);
      for (std::size_t j = 0; j < width; ++j) {
        ASSERT_EQ(one[j], all[static_cast<std::size_t>(row) * width + j])
            << kernels::isa_name(isa) << " row " << row << " col " << j;
      }
    }
  }
}

TEST(Kernels, ThreadCountCannotChangeResults) {
  IsaGuard guard;
  // The determinism contract holds per ISA: for a fixed kernel set the
  // result is bit-identical for every DARNET_THREADS value (rows are
  // disjoint; each element's accumulation order is fixed).
  Rng rng(14);
  Tensor a = Tensor::uniform({17, 23}, 1.0F, rng);
  Tensor b = Tensor::uniform({23, 19}, 1.0F, rng);
  nn::Conv2D conv(3, 4, 3, 1, rng);
  Tensor x = Tensor::uniform({2, 3, 13, 13}, 1.0F, rng);
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  for (kernels::Isa isa : supported_vector_isas()) isas.push_back(isa);
  for (kernels::Isa isa : isas) {
    kernels::set_isa(isa);
    darnet::parallel::set_thread_count(1);
    Tensor mm1 = ops::matmul(a, b);
    Tensor cv1 = conv.forward(x, false);
    for (int threads : {2, 3, 8}) {
      darnet::parallel::set_thread_count(threads);
      Tensor mm = ops::matmul(a, b);
      Tensor cv = conv.forward(x, false);
      for (std::size_t i = 0; i < mm1.numel(); ++i) {
        ASSERT_EQ(mm[i], mm1[i]) << "matmul, threads=" << threads;
      }
      for (std::size_t i = 0; i < cv1.numel(); ++i) {
        ASSERT_EQ(cv[i], cv1[i]) << "conv, threads=" << threads;
      }
    }
  }
}

TEST(Kernels, PackedWeightsFollowParamMutation) {
  IsaGuard guard;
  // The packed-weight cache keys on Param::version: mutating a weight
  // and calling mark_dirty() must repack before the next forward (a
  // stale cache would keep answering with the old weights).
  if (supported_vector_isas().empty()) GTEST_SKIP() << "no vector ISA";
  Rng rng(15);
  nn::Dense dense(9, 4, rng);
  Tensor x = Tensor::uniform({3, 9}, 1.0F, rng);
  kernels::set_isa(supported_vector_isas().front());
  Tensor before = dense.forward(x, false);
  auto params = dense.params();
  params[0]->value[0] += 2.5F;
  params[0]->mark_dirty();
  kernels::set_isa(kernels::Isa::kScalar);
  Tensor want = dense.forward(x, false);
  kernels::set_isa(supported_vector_isas().front());
  Tensor after = dense.forward(x, false);
  expect_close(after, want, "dense after mark_dirty");
  // And the mutation genuinely changed the answer (the test would be
  // vacuous otherwise).
  EXPECT_NE(before[0], after[0]);
}

}  // namespace
