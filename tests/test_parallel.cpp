// Tests for the parallel execution layer: ThreadPool semantics, kernel
// parity between serial and parallel execution, and determinism of the
// trainer across thread counts at every kernel ISA.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "parallel/pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;
namespace kernels = tensor::kernels;

/// RAII guard: force a thread count, restore the previous one on exit.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int count)
      : previous_(parallel::thread_count()) {
    parallel::set_thread_count(count);
  }
  ~ThreadCountGuard() { parallel::set_thread_count(previous_); }

 private:
  int previous_;
};

// ---------------------------------------------------------------------------
// ThreadPool unit tests
// ---------------------------------------------------------------------------

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  parallel::ThreadPool pool(3);
  int calls = 0;
  pool.for_range(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.for_range(7, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  parallel::parallel_for(0, 0, 1,
                         [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, GrainLargerThanRangeRunsOneExactChunk) {
  parallel::ThreadPool pool(3);
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  pool.for_range(2, 9, /*grain=*/100,
                 [&](std::int64_t b, std::int64_t e) {
                   chunks.emplace_back(b, e);
                 });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 2);
  EXPECT_EQ(chunks[0].second, 9);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  parallel::ThreadPool pool(4);
  constexpr std::int64_t kN = 10007;
  std::vector<std::atomic<int>> hits(kN);
  pool.for_range(0, kN, 8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  parallel::ThreadPool pool(3);
  EXPECT_THROW(
      pool.for_range(0, 1000, 1,
                     [&](std::int64_t b, std::int64_t) {
                       if (b >= 0) throw std::runtime_error("boom");
                     }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  parallel::ThreadPool pool(3);
  EXPECT_THROW(pool.for_range(0, 100, 1,
                              [](std::int64_t, std::int64_t) {
                                throw std::logic_error("first region fails");
                              }),
               std::logic_error);

  // The pool must still schedule and complete subsequent regions.
  std::atomic<std::int64_t> sum{0};
  pool.for_range(0, 1000, 4, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000LL * 999 / 2);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadCountGuard guard(4);
  bool saw_nested_region = false;
  parallel::parallel_for(0, 4, 1, [&](std::int64_t b, std::int64_t) {
    EXPECT_TRUE(parallel::in_parallel_region());
    if (b == 0) {
      int calls = 0;
      parallel::parallel_for(0, 100, 1, [&](std::int64_t bb, std::int64_t ee) {
        ++calls;
        EXPECT_EQ(bb, 0);
        EXPECT_EQ(ee, 100);
      });
      EXPECT_EQ(calls, 1);  // inlined as one serial chunk
      saw_nested_region = true;
    }
  });
  EXPECT_TRUE(saw_nested_region);
  EXPECT_FALSE(parallel::in_parallel_region());
}

TEST(ThreadPool, SetThreadCountOneForcesSerialExecution) {
  ThreadCountGuard guard(1);
  int calls = 0;
  parallel::parallel_for(0, 1000, 1, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 1000);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SetThreadCountRejectsInvalidValues) {
  EXPECT_THROW(parallel::set_thread_count(0), std::invalid_argument);
  EXPECT_THROW(parallel::set_thread_count(-3), std::invalid_argument);
  EXPECT_THROW(parallel::set_thread_count(100000), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Kernel parity: parallel/blocked kernels vs naive serial references
// ---------------------------------------------------------------------------

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

TEST(KernelParity, MatmulMatchesNaiveReference) {
  util::Rng rng(17);
  for (const auto [m, k, n] : {std::array{37, 53, 41}, std::array{128, 64, 96},
                               std::array{1, 7, 1}, std::array{65, 17, 130}}) {
    const Tensor a = Tensor::uniform({m, k}, 1.0f, rng);
    const Tensor b = Tensor::uniform({k, n}, 1.0f, rng);
    const Tensor got = tensor::matmul(a, b);
    const Tensor want = naive_matmul(a, b);
    for (std::size_t i = 0; i < want.numel(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-5f) << "element " << i;
    }
  }
}

TEST(KernelParity, MatmulBtAndAtMatchReference) {
  util::Rng rng(18);
  const int m = 47, k = 33, n = 59;
  const Tensor a = Tensor::uniform({m, k}, 1.0f, rng);
  const Tensor b = Tensor::uniform({k, n}, 1.0f, rng);
  const Tensor want = naive_matmul(a, b);

  // matmul_bt(a, b^T) == a b.
  const Tensor got_bt = tensor::matmul_bt(a, tensor::transpose(b));
  // matmul_at(a^T, b) == a b.
  const Tensor got_at = tensor::matmul_at(tensor::transpose(a), b);
  for (std::size_t i = 0; i < want.numel(); ++i) {
    ASSERT_NEAR(got_bt[i], want[i], 1e-5f) << "bt element " << i;
    ASSERT_NEAR(got_at[i], want[i], 1e-5f) << "at element " << i;
  }
}

TEST(KernelParity, MatmulIdenticalAcrossThreadCounts) {
  util::Rng rng(19);
  const Tensor a = Tensor::uniform({96, 80}, 1.0f, rng);
  const Tensor b = Tensor::uniform({80, 112}, 1.0f, rng);
  Tensor serial, parallel_result;
  {
    ThreadCountGuard guard(1);
    serial = tensor::matmul(a, b);
  }
  {
    ThreadCountGuard guard(4);
    parallel_result = tensor::matmul(a, b);
  }
  for (std::size_t i = 0; i < serial.numel(); ++i) {
    ASSERT_EQ(serial[i], parallel_result[i]) << "element " << i;
  }
}

Tensor naive_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                    int pad) {
  const int n = x.dim(0), ic = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int oc = w.dim(0), k = w.dim(2);
  const int oh = h + 2 * pad - k + 1, ow = wd + 2 * pad - k + 1;
  Tensor y({n, oc, oh, ow});
  for (int img = 0; img < n; ++img) {
    for (int o = 0; o < oc; ++o) {
      for (int r = 0; r < oh; ++r) {
        for (int c = 0; c < ow; ++c) {
          float acc = bias[static_cast<std::size_t>(o)];
          for (int i = 0; i < ic; ++i) {
            for (int kr = 0; kr < k; ++kr) {
              for (int kc = 0; kc < k; ++kc) {
                const int sr = r + kr - pad, sc = c + kc - pad;
                if (sr < 0 || sr >= h || sc < 0 || sc >= wd) continue;
                acc += w.at(o, i, kr, kc) * x.at(img, i, sr, sc);
              }
            }
          }
          y.at(img, o, r, c) = acc;
        }
      }
    }
  }
  return y;
}

/// RAII: restore ctest's scalar golden ISA however the test exits.
struct ScalarIsaGuard {
  ~ScalarIsaGuard() { kernels::set_isa(kernels::Isa::kScalar); }
};

TEST(KernelParity, ConvMatchesNaiveReference) {
  // At the scalar ISA every conv equals the textbook loop bit for bit:
  // each output starts at its bias and adds its in-bounds taps in
  // ascending (ic, kr, kc), one rounded multiply and one rounded add
  // each. An unpadded 1x1 runs the GEMM row kernel; a padded and an
  // unpadded 3x3, a 5x5 and a padded 1x1 the direct conv. On large, odd
  // and small planes, at batch 1 (channel shards) and 3 (image shards).
  ScalarIsaGuard isa_guard;
  kernels::set_isa(kernels::Isa::kScalar);
  util::Rng rng(21);
  nn::Conv2D conv3(8, 16, 3, 1, rng);
  nn::Conv2D conv1(8, 5, 1, 0, rng);
  nn::Conv2D conv5(8, 6, 5, 2, rng);
  nn::Conv2D conv1p(8, 3, 1, 1, rng);
  nn::Conv2D conv3v(8, 4, 3, 0, rng);
  const std::pair<nn::Conv2D*, int> convs[] = {
      {&conv3, 1}, {&conv1, 0}, {&conv5, 2}, {&conv1p, 1}, {&conv3v, 0}};
  for (const auto& [conv, pad] : convs) {
    // A non-zero bias, so the start value is pinned too.
    conv->params()[1]->value =
        Tensor::uniform({conv->out_channels()}, 1.0f, rng);
  }
  for (const int size : {24, 7, 6}) {
    for (const int n : {1, 3}) {
      for (const auto& [conv, pad] : convs) {
        const Tensor x = Tensor::uniform({n, 8, size, size}, 1.0f, rng);
        const Tensor y = conv->forward(x, false);
        const Tensor want = naive_conv2d(x, conv->params()[0]->value,
                                         conv->params()[1]->value, pad);
        ASSERT_TRUE(y.same_shape(want));
        for (std::size_t i = 0; i < want.numel(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(y[i]),
                    std::bit_cast<std::uint32_t>(want[i]))
              << "k " << conv->params()[0]->value.dim(2) << " pad " << pad
              << " size " << size << " n " << n << " elem " << i;
        }
      }
    }
  }
}

/// Every kernel ISA the build and CPU support, scalar first.
std::vector<kernels::Isa> supported_isas() {
  std::vector<kernels::Isa> out;
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                           kernels::Isa::kAvx512}) {
    if (kernels::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

TEST(KernelParity, ConvForwardBackwardIdenticalAcrossThreadCounts) {
  // At every supported ISA: the vector forward and backward kernels shard
  // differently from the scalar loops, but never give other bits at
  // another thread count.
  ScalarIsaGuard isa_guard;
  const auto run = [](int threads) {
    ThreadCountGuard guard(threads);
    util::Rng rng(22);
    nn::Conv2D conv(4, 8, 3, 1, rng);
    const Tensor x = Tensor::uniform({5, 4, 16, 16}, 1.0f, rng);
    Tensor y = conv.forward(x, true);
    Tensor gx = conv.backward(y);
    std::vector<float> out(y.data(), y.data() + y.numel());
    out.insert(out.end(), gx.data(), gx.data() + gx.numel());
    const Tensor& dw = conv.params()[0]->grad;
    out.insert(out.end(), dw.data(), dw.data() + dw.numel());
    return out;
  };
  for (kernels::Isa isa : supported_isas()) {
    SCOPED_TRACE(kernels::isa_name(isa));
    kernels::set_isa(isa);
    const auto serial = run(1);
    const auto threaded = run(4);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], threaded[i]) << "element " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Trainer determinism
// ---------------------------------------------------------------------------

nn::Sequential make_model(std::uint64_t seed) {
  // Dropout-free so runs are comparable (Dropout draws layer-local RNG).
  util::Rng rng(seed);
  nn::Sequential model;
  model.emplace<nn::Conv2D>(1, 4, 3, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(4 * 12 * 12, 3, rng);
  return model;
}

std::vector<double> train_losses(int threads) {
  ThreadCountGuard guard(threads);
  util::Rng rng(23);
  const int n = 24;
  const Tensor x = Tensor::uniform({n, 1, 12, 12}, 1.0f, rng);
  std::vector<int> labels(n);
  for (auto& y : labels) y = static_cast<int>(rng.uniform_index(3));

  nn::Sequential model = make_model(7);
  nn::Sgd optimizer(0.05, 0.9, 0.0);
  nn::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 8;
  tc.shuffle_seed = 5;
  std::vector<double> losses;
  tc.on_epoch = [&](int, double loss) { losses.push_back(loss); };
  nn::train_classifier(model, optimizer, x, labels, tc);
  return losses;
}

TEST(TrainerDeterminism, SerialLossCurveIdenticalAcrossThreadCounts) {
  // At every ISA the build and CPU support, not only ctest's scalar one:
  // a vector ISA may give other bits than scalar, but never other bits at
  // another thread count.
  ScalarIsaGuard guard;
  for (kernels::Isa isa : supported_isas()) {
    SCOPED_TRACE(kernels::isa_name(isa));
    kernels::set_isa(isa);
    const auto one = train_losses(/*threads=*/1);
    const auto four = train_losses(/*threads=*/4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      ASSERT_EQ(one[i], four[i]) << "epoch " << i;  // bit-for-bit
    }
    EXPECT_LT(one.back(), one.front());
  }
}

// ---------------------------------------------------------------------------
// gather_rows_into
// ---------------------------------------------------------------------------

TEST(GatherRows, IntoOverloadMatchesAndReusesAllocation) {
  util::Rng rng(31);
  const Tensor data = Tensor::uniform({10, 3, 4}, 1.0f, rng);
  const std::vector<std::size_t> idx = {7, 0, 3, 3};

  Tensor fresh = nn::gather_rows(data, idx);
  Tensor reused;
  nn::gather_rows_into(data, idx, reused);
  const float* buffer = reused.data();
  ASSERT_TRUE(fresh.same_shape(reused));
  for (std::size_t i = 0; i < fresh.numel(); ++i) {
    ASSERT_EQ(fresh[i], reused[i]);
  }

  // Same-shape refill must keep the existing buffer.
  const std::vector<std::size_t> idx2 = {1, 2, 9, 4};
  nn::gather_rows_into(data, idx2, reused);
  EXPECT_EQ(reused.data(), buffer);
  Tensor fresh2 = nn::gather_rows(data, idx2);
  for (std::size_t i = 0; i < fresh2.numel(); ++i) {
    ASSERT_EQ(fresh2[i], reused[i]);
  }
}

}  // namespace
