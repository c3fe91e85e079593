// Zero-alloc inference hot path: the proof.
//
// DESIGN.md "Kernel architecture" promises that steady-state
// classify_batch performs no heap allocations: every buffer the forward
// pass needs (activations, im2col scratch, padded planes, outputs) is
// recycled through the thread's arena, and the packed-weight caches are
// built once, not per call. This suite replaces the global allocator
// with a counting one and asserts the promise literally -- after a
// warm-up pass populates the arena's buckets and the pack caches, N
// further classify_batch calls must perform exactly zero `new`s.
//
// The hot-path-alloc lint rule is the static half of this contract
// (no std::vector<float> in the hot-path directories); this test is the
// dynamic half that catches what a token ban cannot (std::string
// churn, shared_ptr copies, map rebalancing, ...).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "engine/architectures.hpp"
#include "engine/engine.hpp"
#include "imu/imu.hpp"
#include "parallel/pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

// Counting global allocator. Counting is gated so gtest's own
// bookkeeping (test registration, assertion messages) never pollutes the
// measured window.
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using darnet::tensor::Tensor;
namespace engine = darnet::engine;
namespace kernels = darnet::tensor::kernels;
namespace nn = darnet::nn;
using darnet::util::Rng;

/// `new` counts of three warm-up classify_batch calls and of `iters`
/// steady-state calls after them.
struct News {
  std::size_t warm_up = 0;
  std::size_t steady = 0;
};

/// Counts `new`s of classify_batch on the paper's ensemble (FrameCnn +
/// BiLSTM + fitted Bayesian combiner) under the given kernel ISA.
News classify_batch_news(kernels::Isa isa, int iters) {
  kernels::set_isa(isa);
  engine::FrameCnnConfig cnn_cfg;
  engine::ImuRnnConfig rnn_cfg;
  auto cnn =
      std::make_shared<nn::Sequential>(engine::build_frame_cnn(cnn_cfg));
  auto rnn = std::make_shared<nn::Sequential>(engine::build_imu_rnn(rnn_cfg));
  engine::EnsembleClassifier ensemble(
      std::make_shared<engine::NeuralClassifier>(cnn, cnn_cfg.num_classes,
                                                 "cnn"),
      std::make_shared<engine::NeuralClassifier>(rnn, rnn_cfg.num_classes,
                                                 "rnn"),
      darnet::bayes::ClassMap::darnet_default());
  Rng rng(21);
  const int steps = darnet::imu::kWindowSteps;
  {
    // The combiner refuses to combine before it is fitted.
    const int n = cnn_cfg.num_classes;
    std::vector<int> labels(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i;
    ensemble.fit(Tensor::uniform({n, 1, 48, 48}, 0.5F, rng),
                 Tensor::uniform({n, steps, rnn_cfg.channels}, 1.0F, rng),
                 labels);
  }
  const Tensor frame = Tensor::uniform({1, 1, 48, 48}, 0.5F, rng);
  const Tensor imu = Tensor::uniform({1, steps, rnn_cfg.channels}, 1.0F, rng);
  // Warm-up: populate the engine's fallback arena buckets and the
  // packed-weight caches (both allocate, by design, exactly once).
  News news;
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) {
    Tensor p = ensemble.classify_batch(frame, imu);
    EXPECT_EQ(p.numel(), static_cast<std::size_t>(cnn_cfg.num_classes));
  }
  g_counting.store(false, std::memory_order_relaxed);
  news.warm_up = g_news.load(std::memory_order_relaxed);
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < iters; ++i) {
    Tensor p = ensemble.classify_batch(frame, imu);
  }
  g_counting.store(false, std::memory_order_relaxed);
  news.steady = g_news.load(std::memory_order_relaxed);
  kernels::set_isa(kernels::Isa::kScalar);
  return news;
}

TEST(HotPathAlloc, ClassifyBatchIsZeroAllocAfterWarmup) {
#ifdef DARNET_CHECKED
  // Checked builds deliberately trade allocations for diagnostics: the
  // per-call ShardWriteTracker (shard-overlap detection in Conv2D and
  // matmul) grows a heap-backed range list on every forward pass. The
  // zero-alloc contract is a property of release builds only; the
  // default and obs-off CI legs pin it.
  GTEST_SKIP() << "checked builds allocate in diagnostics by design";
#endif
  // Single-thread execution keeps the measurement exact (the pool's
  // inline path); the serve tier gives each worker its own arena, so one
  // thread's steady state is every thread's steady state.
  const int entry_threads = darnet::parallel::thread_count();
  darnet::parallel::set_thread_count(1);
  const News scalar = classify_batch_news(kernels::Isa::kScalar, 16);
  // This thread's first classify_batch creates the engine's fallback
  // arena buckets, so its warm-up must count allocations: proof that the
  // counter sees the engine's allocations at all -- a zero that came from
  // a broken hook would make the steady-state assertions vacuous. (Later
  // passes reuse the warm thread-local arena and may legitimately count
  // none.)
  EXPECT_GT(scalar.warm_up, 0u)
      << "counting hook saw no warm-up allocations; the measurement "
         "cannot be trusted";
  EXPECT_EQ(scalar.steady, 0u)
      << "scalar classify_batch allocated after warm-up";
  for (kernels::Isa isa : {kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (!kernels::isa_supported(isa)) continue;
    EXPECT_EQ(classify_batch_news(isa, 16).steady, 0u)
        << "vector classify_batch allocated after warm-up";
  }
  darnet::parallel::set_thread_count(entry_threads);
}

}  // namespace
