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
// The exceptions are the kernels whose contract is an exact sequence:
// matmul's GEMM row kernel and the conv forward are held to FMA
// references written here (MatmulParityOnAwkwardShapes,
// Conv2DMatchesAnFmaReferenceBitForBit), and the conv backward to the
// scalar ISA (Conv2DBackwardMatchesScalarBitForBit), bit for bit; and
// the models' forwards to one hash per ISA that every build type must
// give (VectorForwardsMatchOneGoldenPerIsaInEveryBuild). Training at the
// scalar ISA, the Conv2D backward included, is pinned the same way
// (ScalarTrainingMatchesOneGoldenInEveryBuild).
//
// Shapes are deliberately awkward: 1x1, primes, and widths straddling
// every tile boundary in the kernels (vector width and GEMM column
// tails; the direct conv's channel-block tails, narrow-plane runs over
// the padded row stride, the switch to row tiles and their ragged last
// vector and row; mid-panel GEMM rows).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "engine/architectures.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
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

/// Bit patterns of every element, for exact comparison (-0 != +0).
std::vector<std::uint32_t> bits(const Tensor& t) {
  std::vector<std::uint32_t> out(t.numel());
  for (std::size_t i = 0; i < t.numel(); ++i) {
    out[i] = std::bit_cast<std::uint32_t>(t[i]);
  }
  return out;
}

std::size_t count_differ(const std::vector<std::uint32_t>& got,
                         const std::vector<std::uint32_t>& want) {
  std::size_t differ = 0;
  for (std::size_t i = 0; i < want.size(); ++i) differ += got[i] != want[i];
  return differ;
}

TEST(Kernels, ScalarAlwaysSupportedAndResolvesToItsRow) {
  IsaGuard guard;
  EXPECT_TRUE(kernels::isa_supported(kernels::Isa::kScalar));
  EXPECT_EQ(kernels::set_isa(kernels::Isa::kScalar), kernels::Isa::kScalar);
  EXPECT_EQ(kernels::active(), kernels::Isa::kScalar);
  // The scalar ISA has its own row of the table, not a vector ISA's...
  const kernels::Kernels* scalar = &kernels::active_kernels();
  for (kernels::Isa isa : supported_vector_isas()) {
    kernels::set_isa(isa);
    EXPECT_NE(&kernels::active_kernels(), scalar) << kernels::isa_name(isa);
  }
  kernels::set_isa(kernels::Isa::kScalar);
  EXPECT_EQ(&kernels::active_kernels(), scalar);
  // ...and it is the unfused golden: it rounds a * b before adding c,
  // which drops the 2^-24 that a fused multiply-add would keep.
  const float a = 1.0F + 0x1p-12F;
  float c = -1.0F;
  scalar->gemm_rows(&a, &a, &c, 0, 1, 1, 1);
  EXPECT_EQ(c, 0x1p-11F);
}

TEST(Kernels, SetIsaFallsBackToSupported) {
  IsaGuard guard;
  // Requesting any ISA must land on a supported one -- never an illegal
  // instruction later. On AVX-512 hardware this is identity; elsewhere
  // it degrades (avx512 -> avx2 -> scalar). Whichever it lands on has a
  // row of kernels that runs.
  const kernels::Isa got = kernels::set_isa(kernels::Isa::kAvx512);
  EXPECT_TRUE(kernels::isa_supported(got));
  EXPECT_EQ(kernels::active(), got);
  const float a = 3.0F, b = 5.0F;
  float c = 0.0F;
  kernels::active_kernels().gemm_rows(&a, &b, &c, 0, 1, 1, 1);
  EXPECT_EQ(c, 15.0F);
}

/// matmul's vector contract (kernels.hpp, gemm_rows): each element
/// starts at +0 and takes one std::fma per k, ascending.
Tensor fma_matmul_reference(const Tensor& a, const Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (int kk = 0; kk < k; ++kk) {
        acc = std::fma(a[static_cast<std::size_t>(i) * k + kk],
                       b[static_cast<std::size_t>(kk) * n + j], acc);
      }
      c[static_cast<std::size_t>(i) * n + j] = acc;
    }
  }
  return c;
}

TEST(Kernels, MatmulParityOnAwkwardShapes) {
  IsaGuard guard;
  // m/k/n straddle the panel size (4 rows), the vector width and its
  // half/quarter tails: 1x1, primes, one-past and one-short of 16/32.
  // matmul at a vector ISA is also pinned bit for bit to its FMA
  // sequence, scalar column tails included.
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
    const auto fma_ab = bits(fma_matmul_reference(a, b));
    for (kernels::Isa isa : supported_vector_isas()) {
      kernels::set_isa(isa);
      const Tensor got = ops::matmul(a, b);
      expect_close(got, ab, "matmul");
      EXPECT_EQ(count_differ(bits(got), fma_ab), 0U)
          << "matmul elements differ from the FMA reference at "
          << kernels::isa_name(isa) << " " << s[0] << "x" << s[1] << "x"
          << s[2];
      expect_close(ops::matmul_bt(a, bt), abt, "matmul_bt");
      expect_close(ops::matmul_at(at, b), atb, "matmul_at");
    }
  }
}

TEST(Kernels, DenseForwardParity) {
  IsaGuard guard;
  // Dense hands its [out, in] weight to gemv_bias_wt; odd feature counts
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
  // Widths cover: 1x1 outputs, narrow planes run over the padded row
  // stride (a vector spanning two or more rows, e.g. ow = 3, 7, 13), the
  // 24- and 48-wide row tiles, plus the unit-conv (k = 1, pad = 0) GEMM
  // route used by the Inception bottlenecks.
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

/// The vector conv contract (kernels.hpp, conv2d_direct): each output
/// starts at its bias and takes one std::fma per tap over the zero-padded
/// input, in ascending (ic, kr, kc).
Tensor fma_conv_reference(const Tensor& x, const Tensor& w, const Tensor& b,
                          int pad) {
  const int n = x.dim(0), in_ch = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int out_ch = w.dim(0), k = w.dim(2);
  const int oh = h + 2 * pad - k + 1, ow = wd + 2 * pad - k + 1;
  Tensor y({n, out_ch, oh, ow});
  std::size_t out = 0;
  for (int img = 0; img < n; ++img) {
    for (int oc = 0; oc < out_ch; ++oc) {
      for (int r = 0; r < oh; ++r) {
        for (int c = 0; c < ow; ++c) {
          float acc = b[static_cast<std::size_t>(oc)];
          std::size_t tap = static_cast<std::size_t>(oc) * in_ch * k * k;
          for (int ic = 0; ic < in_ch; ++ic) {
            const std::size_t plane =
                (static_cast<std::size_t>(img) * in_ch + ic) * h * wd;
            for (int kr = 0; kr < k; ++kr) {
              for (int kc = 0; kc < k; ++kc, ++tap) {
                const int sr = r + kr - pad, sc = c + kc - pad;
                const bool inside = sr >= 0 && sr < h && sc >= 0 && sc < wd;
                const float xv =
                    inside ? x[plane + static_cast<std::size_t>(sr) * wd + sc]
                           : 0.0F;
                acc = std::fma(w[tap], xv, acc);
              }
            }
          }
          y[out++] = acc;
        }
      }
    }
  }
  return y;
}

TEST(Kernels, Conv2DMatchesAnFmaReferenceBitForBit) {
  IsaGuard guard;
  // At a vector ISA every conv gives each output its bias and then one
  // FMA per tap in ascending (ic, kr, kc): the unpadded 1x1s on
  // gemm_rows, every other conv on conv2d_direct. So, unlike the
  // tolerance checks above, the result is pinned bit for bit. The
  // shapes cross every tile edge of both vector widths: ow 1-50 (narrow
  // runs over the padded stride, the switch to row tiles at 24, ragged
  // last vectors and rows), pad 0-2, k 1, 3 and 5, in_ch 1-16, out_ch
  // 1-13 (every channel-block tail, and with 3 threads the batch-1
  // route shards the channels at other edges), batch 1-3. Among them
  // are the frame CNN's own shapes: 48x48 1->8, 24x24 4->6 and 8->4,
  // 12x12 16->4, 7->12 and 16->7. The 6x6 and 7x7 1x1s reach gemm_rows'
  // scalar column tails; a padded 1x1 runs conv2d_direct.
  if (supported_vector_isas().empty()) GTEST_SKIP() << "no vector ISA";
  struct Case {
    int in_ch, out_ch, k, pad, hw, n;
  };
  const Case cases[] = {
      {1, 1, 3, 1, 1, 1},    {1, 2, 3, 0, 3, 1},    {2, 3, 3, 1, 2, 3},
      {9, 4, 5, 0, 5, 1},    {16, 13, 5, 2, 5, 1},  {3, 5, 3, 1, 7, 1},
      {4, 6, 3, 1, 8, 1},    {5, 7, 5, 2, 9, 3},    {16, 4, 3, 1, 12, 1},
      {7, 12, 3, 1, 12, 3},  {3, 10, 3, 1, 16, 1},  {2, 9, 3, 0, 17, 1},
      {1, 11, 5, 2, 17, 1},  {8, 13, 3, 1, 23, 1},  {4, 6, 3, 1, 24, 3},
      {8, 13, 5, 2, 24, 1},  {3, 4, 3, 1, 25, 1},   {6, 5, 5, 1, 31, 1},
      {2, 3, 3, 1, 32, 1},   {1, 8, 3, 1, 33, 1},   {1, 8, 3, 1, 48, 1},
      {1, 8, 3, 1, 48, 3},   {2, 2, 3, 0, 49, 1},   {3, 1, 5, 2, 49, 1},
      {2, 5, 3, 1, 50, 1},   {8, 4, 1, 0, 24, 1},   {16, 7, 1, 0, 12, 3},
      {8, 4, 1, 0, 6, 1},    {5, 9, 1, 0, 7, 2},    {3, 5, 1, 1, 6, 1},
  };
  Rng rng(18);
  for (const Case& c : cases) {
    nn::Conv2D conv(c.in_ch, c.out_ch, c.k, c.pad, rng);
    // A non-zero bias, so the start value is pinned too.
    conv.params()[1]->value = Tensor::uniform({c.out_ch}, 1.0F, rng);
    const Tensor x = Tensor::uniform({c.n, c.in_ch, c.hw, c.hw}, 1.0F, rng);
    const Tensor want = fma_conv_reference(x, conv.params()[0]->value,
                                           conv.params()[1]->value, c.pad);
    for (kernels::Isa isa : supported_vector_isas()) {
      kernels::set_isa(isa);
      for (int threads : {1, 3}) {
        darnet::parallel::set_thread_count(threads);
        const Tensor got = conv.forward(x, false);
        ASSERT_TRUE(got.same_shape(want));
        std::size_t differ = 0;
        for (std::size_t i = 0; i < want.numel(); ++i) {
          differ += std::bit_cast<std::uint32_t>(got[i]) !=
                    std::bit_cast<std::uint32_t>(want[i]);
        }
        EXPECT_EQ(differ, 0U)
            << "outputs of " << want.numel() << " differ at "
            << kernels::isa_name(isa) << " threads=" << threads << " "
            << c.in_ch << "->" << c.out_ch << " k=" << c.k
            << " pad=" << c.pad << " " << c.hw << "x" << c.hw
            << " n=" << c.n;
      }
    }
  }
}

TEST(Kernels, Conv2DBackwardMatchesScalarBitForBit) {
  IsaGuard guard;
  // The vector backward kernels keep each gradient's order and rounding:
  // a weight's double sum over ascending pixels, a gx element's rounded
  // product then rounded add per (oc, kr, kc). So gx, dW and db equal
  // the scalar ISA's bit for bit -- over k 1, 3 and 5 with pad 0-2
  // (pad > k - 1 crops the transposed conv's gradient planes), widths
  // across the input-gradient tiles' edges (runs over the padded stride
  // below 24 columns, row tiles and their ragged last vector above),
  // 1-16 input channels (every tap-block split of the weight gradient)
  // and 1-13 output channels (every lane tail of both vector widths),
  // batch 1 and 3.
  // Three value sets: uniform; multiples of 0.5 in [-1, 1], whose sums
  // often cancel to exactly zero; and magnitudes near 1e-23, whose dW
  // sums are below the float range, so float(acc) is +-0 or subnormal
  // (a -0 must land as +0 in the zeroed partial) and whose gx products
  // underflow.
  if (supported_vector_isas().empty()) GTEST_SKIP() << "no vector ISA";
  struct Case {
    int in_ch, out_ch, k, pad, hw, n;
  };
  const Case cases[] = {
      {1, 1, 1, 0, 1, 1},   {1, 2, 3, 1, 1, 1},   {2, 3, 1, 1, 5, 3},
      {3, 5, 1, 2, 4, 1},   {2, 3, 3, 2, 3, 1},   {9, 4, 5, 0, 5, 1},
      {16, 13, 5, 2, 5, 1}, {3, 5, 3, 1, 7, 1},   {5, 7, 5, 2, 9, 3},
      {16, 4, 3, 1, 12, 1}, {7, 12, 3, 1, 12, 3}, {16, 8, 1, 0, 12, 1},
      {1, 8, 3, 1, 16, 1},  {2, 9, 3, 0, 17, 1},  {1, 11, 5, 2, 17, 1},
      {8, 13, 3, 1, 23, 1}, {8, 4, 1, 0, 24, 1},  {4, 6, 3, 1, 24, 3},
      {3, 4, 3, 1, 25, 1},  {6, 5, 5, 1, 31, 1},  {2, 3, 3, 1, 32, 1},
      {1, 8, 3, 1, 48, 1},  {1, 8, 3, 1, 48, 3},  {2, 2, 3, 0, 49, 1},
      {3, 1, 5, 2, 49, 1},
  };
  enum class Values { kUniform, kCancelling, kTiny };
  Rng rng(24);
  const auto draw = [&rng](std::vector<int> shape, Values values) {
    Tensor t = Tensor::uniform(std::move(shape), 1.0F, rng);
    for (std::size_t i = 0; i < t.numel(); ++i) {
      if (values == Values::kCancelling) {
        t[i] = std::round(t[i] * 2.0F) / 2.0F;
      } else if (values == Values::kTiny) {
        t[i] *= 1e-23F;
      }
    }
    return t;
  };
  for (const Case& c : cases) {
    for (Values values :
         {Values::kUniform, Values::kCancelling, Values::kTiny}) {
      nn::Conv2D conv(c.in_ch, c.out_ch, c.k, c.pad, rng);
      const int o = c.hw + 2 * c.pad - c.k + 1;
      conv.params()[0]->value =
          draw({c.out_ch, c.in_ch, c.k, c.k}, values);
      const Tensor x = draw({c.n, c.in_ch, c.hw, c.hw}, values);
      const Tensor gy = draw({c.n, c.out_ch, o, o}, values);
      // gx, dW and db of one backward pass, from zeroed gradients.
      const auto run = [&] {
        for (nn::Param* p : conv.params()) p->zero_grad();
        conv.forward(x, true);
        return std::vector<std::vector<std::uint32_t>>{
            bits(conv.backward(gy)), bits(conv.params()[0]->grad),
            bits(conv.params()[1]->grad)};
      };
      kernels::set_isa(kernels::Isa::kScalar);
      darnet::parallel::set_thread_count(1);
      const auto want = run();
      for (kernels::Isa isa : supported_vector_isas()) {
        kernels::set_isa(isa);
        for (int threads : {1, 3}) {
          darnet::parallel::set_thread_count(threads);
          const auto got = run();
          const char* what[] = {"gx", "dW", "db"};
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(count_differ(got[i], want[i]), 0U)
                << what[i] << " elements of " << want[i].size()
                << " differ at " << kernels::isa_name(isa)
                << " threads=" << threads << " values="
                << static_cast<int>(values) << " " << c.in_ch << "->"
                << c.out_ch << " k=" << c.k << " pad=" << c.pad << " "
                << c.hw << "x" << c.hw << " n=" << c.n;
          }
        }
      }
    }
  }
}

TEST(Kernels, Conv2DBackwardRejectsAMisshapenGradient) {
  IsaGuard guard;
  // The backward sizes its scratch from the cached input and reads the
  // gradient at the output shape that input gives, so at every ISA a
  // gradient of any other shape is refused, not read out of bounds.
  std::vector<kernels::Isa> isas{kernels::Isa::kScalar};
  for (kernels::Isa isa : supported_vector_isas()) isas.push_back(isa);
  Rng rng(25);
  nn::Conv2D conv(2, 3, 3, 1, rng);
  const Tensor x = Tensor::uniform({1, 2, 8, 8}, 1.0F, rng);
  for (kernels::Isa isa : isas) {
    kernels::set_isa(isa);
    conv.forward(x, true);
    for (const Tensor& gy :
         {Tensor({1, 3, 5, 5}), Tensor({1, 3, 40, 40}), Tensor({3, 8, 8})}) {
      EXPECT_THROW(conv.backward(gy), std::invalid_argument)
          << kernels::isa_name(isa) << " " << gy.shape_string();
    }
    EXPECT_NO_THROW(conv.backward(Tensor({1, 3, 8, 8})))
        << kernels::isa_name(isa);
  }
}

TEST(Kernels, LstmCellParityIncludingSaturationAndTails) {
  IsaGuard guard;
  // The vector cell evaluates sigmoid/tanh through its own expf; hold it
  // to the scalar row's std::exp/std::tanh on random rows, on saturating
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
    kernels::set_isa(kernels::Isa::kScalar);
    kernels::active_kernels().lstm_cell(
        want_gates.data(), bias.data(), c_prev.data(), want_c.data(),
        want_tc.data(), want_h.data(), kRows, hidden);
    for (kernels::Isa isa : supported_vector_isas()) {
      kernels::set_isa(isa);
      Tensor got_gates = gates;
      Tensor got_c({kRows, hidden});
      Tensor got_tc({kRows, hidden});
      Tensor got_h({kRows, hidden});
      kernels::active_kernels().lstm_cell(
          got_gates.data(), bias.data(), c_prev.data(), got_c.data(),
          got_tc.data(), got_h.data(), kRows, hidden);
      expect_close(got_gates, want_gates, "lstm_cell gates");
      expect_close(got_c, want_c, "lstm_cell c");
      expect_close(got_tc, want_tc, "lstm_cell tanh_c");
      expect_close(got_h, want_h, "lstm_cell h");
    }
  }
}

TEST(Kernels, ModelRowsDoNotDependOnTheBatch) {
  IsaGuard guard;
  // A served verdict must equal the offline one whatever batch the
  // request lands in: at every ISA and thread count, each row of a
  // batch-8 pass through the paper's BiLSTM model and its frame CNN
  // equals that row's batch-1 pass bit for bit. (A batch-1 conv shards
  // its output channels over the pool, a batch-8 conv its images.)
  Rng rng(17);
  struct Model {
    const char* name;
    nn::Sequential net;
    Tensor batch;
  };
  Model models[] = {
      {"imu_rnn", darnet::engine::build_imu_rnn({}),
       Tensor::uniform({8, 20, 13}, 2.0F, rng)},
      {"frame_cnn", darnet::engine::build_frame_cnn({}),
       Tensor::uniform({8, 1, 48, 48}, 0.5F, rng)},
  };
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  for (kernels::Isa isa : supported_vector_isas()) isas.push_back(isa);
  for (Model& m : models) {
    for (kernels::Isa isa : isas) {
      kernels::set_isa(isa);
      for (int threads : {1, 4}) {
        darnet::parallel::set_thread_count(threads);
        const Tensor all = m.net.forward(m.batch, false);
        const std::size_t width = all.numel() / 8;
        for (int row = 0; row < 8; ++row) {
          const Tensor one = m.net.forward(ops::take_row(m.batch, row), false);
          ASSERT_EQ(one.numel(), width);
          for (std::size_t j = 0; j < width; ++j) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(one[j]),
                      std::bit_cast<std::uint32_t>(
                          all[static_cast<std::size_t>(row) * width + j]))
                << m.name << " " << kernels::isa_name(isa)
                << " threads=" << threads << " row " << row << " col "
                << j;
          }
        }
      }
    }
  }
}

TEST(Kernels, VectorForwardsMatchOneGoldenPerIsaInEveryBuild) {
  IsaGuard guard;
  // The vector kernels spell every fused multiply-add, and every TU
  // builds with -ffp-contract=off, so neither the build type nor -march
  // changes a bit: Release, the -O0 sanitizer builds and the native build
  // all give one hash per ISA for seeded forwards of the frame CNN, the
  // IMU RNN and a Dense whose k leaves gemv a scalar tail, at batch 8
  // and 1, with 1 and 3 threads.
  struct Golden {
    kernels::Isa isa;
    std::uint64_t hash;
  };
  constexpr Golden kGoldens[] = {
      {kernels::Isa::kAvx2, 0xe3d3e9b081357bd8ULL},
      {kernels::Isa::kAvx512, 0x1d997e6142fcf010ULL},
  };
  Rng rng(23);
  nn::Sequential dense;
  dense.emplace<nn::Dense>(37, 11, rng);
  struct Model {
    nn::Sequential net;
    Tensor batch;
  };
  Model models[] = {
      {darnet::engine::build_frame_cnn({}),
       Tensor::uniform({8, 1, 48, 48}, 0.5F, rng)},
      {darnet::engine::build_imu_rnn({}),
       Tensor::uniform({8, 20, 13}, 2.0F, rng)},
      {std::move(dense), Tensor::uniform({8, 37}, 1.0F, rng)},
  };
  bool ran = false;
  for (const Golden& g : kGoldens) {
    if (!kernels::isa_supported(g.isa)) continue;
    ran = true;
    kernels::set_isa(g.isa);
    for (int threads : {1, 3}) {
      darnet::parallel::set_thread_count(threads);
      std::uint64_t h = 1469598103934665603ULL;
      for (Model& m : models) {
        for (const Tensor& x : {m.batch, ops::take_row(m.batch, 5)}) {
          for (std::uint32_t b : bits(m.net.forward(x, false))) {
            h = (h ^ b) * 1099511628211ULL;
          }
        }
      }
      EXPECT_EQ(h, g.hash) << kernels::isa_name(g.isa)
                           << " threads=" << threads << ": actual 0x"
                           << std::hex << h;
    }
  }
  if (!ran) GTEST_SKIP() << "no vector ISA";
}

TEST(Kernels, ScalarTrainingMatchesOneGoldenInEveryBuild) {
  IsaGuard guard;
  // The scalar ISA is the golden for training too, the Conv2D backward
  // included: two SGD epochs of a seeded frame CNN on 16x16 frames and
  // two Adam epochs of a seeded IMU RNN, then a batch-1 and a batch-40
  // forward of each, fold into one hash that Release, Debug and the
  // sanitizer builds give alike, with 1 and 3 threads.
  constexpr std::uint64_t kGolden = 0xe53a364e2f79930fULL;
  constexpr int kRows = 40;
  kernels::set_isa(kernels::Isa::kScalar);
  for (int threads : {1, 3}) {
    darnet::parallel::set_thread_count(threads);
    Rng rng(26);
    darnet::engine::FrameCnnConfig small;
    small.input_size = 16;
    struct Model {
      nn::Sequential net;
      Tensor x;
      int classes;
      std::unique_ptr<nn::Optimizer> opt;
    };
    Model models[] = {
        {darnet::engine::build_frame_cnn(small),
         Tensor::uniform({kRows, 1, 16, 16}, 1.0F, rng), 6,
         std::make_unique<nn::Sgd>(0.05)},
        {darnet::engine::build_imu_rnn({}),
         Tensor::uniform({kRows, 20, 13}, 2.0F, rng), 3,
         std::make_unique<nn::Adam>(0.01)},
    };
    nn::TrainConfig cfg;
    cfg.epochs = 2;
    std::uint64_t h = 1469598103934665603ULL;
    const auto fold = [&h](const Tensor& t) {
      for (std::uint32_t b : bits(t)) h = (h ^ b) * 1099511628211ULL;
    };
    for (Model& m : models) {
      std::vector<int> labels(kRows);
      for (int i = 0; i < kRows; ++i) labels[i] = i % m.classes;
      nn::train_classifier(m.net, *m.opt, m.x, labels, cfg);
      for (nn::Param* p : m.net.params()) fold(p->value);
      fold(m.net.forward(ops::take_row(m.x, 7), false));
      fold(m.net.forward(m.x, false));
    }
    EXPECT_EQ(h, kGolden) << "threads=" << threads << ": actual 0x"
                          << std::hex << h;
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

TEST(Kernels, WeightWritesShowInTheNextForward) {
  IsaGuard guard;
  // No layer keeps a copy of its weights: Dense and the 1x1 conv read
  // them where Param::value holds them at every ISA, so a weight written
  // straight into it, with no notification, shows in the very next
  // forward, as it does on the scalar path.
  if (supported_vector_isas().empty()) GTEST_SKIP() << "no vector ISA";
  const auto follows = [](kernels::Isa isa, nn::Layer& layer,
                          const Tensor& x, const char* what) {
    kernels::set_isa(isa);
    const Tensor before = layer.forward(x, false);
    layer.params()[0]->value[0] += 2.5F;
    kernels::set_isa(kernels::Isa::kScalar);
    const Tensor want = layer.forward(x, false);
    kernels::set_isa(isa);
    const Tensor after = layer.forward(x, false);
    expect_close(after, want, what);
    // The mutation genuinely changed the answer (the test would be
    // vacuous otherwise).
    EXPECT_NE(before[0], after[0]) << what;
  };
  for (kernels::Isa isa : supported_vector_isas()) {
    Rng rng(15);
    nn::Dense dense(9, 4, rng);
    follows(isa, dense, Tensor::uniform({3, 9}, 1.0F, rng), "dense");
    nn::Conv2D conv(8, 5, 1, 0, rng);
    follows(isa, conv, Tensor::uniform({2, 8, 16, 16}, 1.0F, rng),
            "1x1 conv");
  }
}

}  // namespace
