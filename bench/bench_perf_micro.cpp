// Performance microbenchmarks (google-benchmark): the numeric kernels and
// middleware hot paths that set DarNet's throughput ceiling on one core.
#include <benchmark/benchmark.h>

#include "bayes/combiner.hpp"
#include "collection/messages.hpp"
#include "collection/store.hpp"
#include "core/dataset.hpp"
#include "privacy/privacy.hpp"
#include "imu/imu.hpp"
#include "engine/architectures.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "parallel/pool.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "vision/renderer.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  const Tensor a = Tensor::uniform({n, n}, 1.0f, rng);
  const Tensor b = Tensor::uniform({n, n}, 1.0f, rng);
  for (auto _ : state) {
    Tensor c = tensor::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv2DForward(benchmark::State& state) {
  util::Rng rng(2);
  nn::Conv2D conv(8, 16, 3, 1, rng);
  const Tensor x = Tensor::uniform({4, 8, 24, 24}, 1.0f, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2DForward);

void BM_Conv2DTrainStep(benchmark::State& state) {
  util::Rng rng(3);
  nn::Conv2D conv(8, 16, 3, 1, rng);
  const Tensor x = Tensor::uniform({4, 8, 24, 24}, 1.0f, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    Tensor gx = conv.backward(y);
    benchmark::DoNotOptimize(gx.data());
    nn::zero_grads(conv);
  }
}
BENCHMARK(BM_Conv2DTrainStep);

void BM_Conv2DForwardDirect(benchmark::State& state) {
  // Small plane (6x6 -> 36 output pixels). Like every conv but the
  // unpadded 1x1 it runs kernels::conv2d_direct: row by row over the
  // zero-bordered planes at the scalar ISA, and at AVX2 and AVX-512
  // register-blocked over the padded row stride (its 6-wide rows are
  // narrower than a vector).
  util::Rng rng(2);
  nn::Conv2D conv(8, 16, 3, 1, rng);
  const Tensor x = Tensor::uniform({4, 8, 6, 6}, 1.0f, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(std::string("6x6 plane, kernels=") +
                 tensor::kernels::isa_name(tensor::kernels::active()));
}
BENCHMARK(BM_Conv2DForwardDirect);

struct ConvShape {
  int in, out, hw;
};

/// One of the frame CNN's convs (k x k, "same" padding) at batch 1, as
/// the serving pass runs it: padding copy included, scratch from an
/// arena.
void run_frame_cnn_conv(benchmark::State& state, int k, ConvShape s) {
  util::Rng rng(6);
  nn::Conv2D conv(s.in, s.out, k, k / 2, rng);
  const Tensor x = Tensor::uniform({1, s.in, s.hw, s.hw}, 1.0f, rng);
  tensor::Arena arena;
  tensor::ArenaScope scope(arena);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(std::to_string(s.in) + "->" + std::to_string(s.out) +
                 " at " + std::to_string(s.hw) + "x" +
                 std::to_string(s.hw));
}

void BM_FrameCnnConv3x3(benchmark::State& state) {
  // The nine 3x3 convs: the stem, then the Inception blocks' branches at
  // 24x24 and 12x12 (kernels::conv2d_direct at a vector ISA).
  static constexpr ConvShape kShapes[] = {
      {1, 8, 48},  {4, 6, 24}, {3, 4, 24}, {4, 4, 24}, {8, 2, 24},
      {7, 12, 12}, {5, 8, 12}, {8, 8, 12}, {16, 4, 12}};
  run_frame_cnn_conv(state, 3, kShapes[state.range(0)]);
}
BENCHMARK(BM_FrameCnnConv3x3)->DenseRange(0, 8);

void BM_FrameCnnConv1x1(benchmark::State& state) {
  // The five distinct shapes of the six unpadded 1x1 convs, the Inception
  // blocks' bottlenecks at 24x24 and 12x12 (one GEMM row-kernel call).
  static constexpr ConvShape kShapes[] = {
      {8, 4, 24}, {8, 3, 24}, {16, 8, 12}, {16, 7, 12}, {16, 5, 12}};
  run_frame_cnn_conv(state, 1, kShapes[state.range(0)]);
}
BENCHMARK(BM_FrameCnnConv1x1)->DenseRange(0, 4);

void BM_DenseHead(benchmark::State& state) {
  // The frame CNN's 1152->6 head at batch 1 and 8, as the serving pass
  // runs it: scratch from an arena, gemv_bias_wt at a vector ISA.
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(14);
  nn::Dense head(1152, 6, rng);
  const Tensor x = Tensor::uniform({n, 1152}, 1.0f, rng);
  tensor::Arena arena;
  tensor::ArenaScope scope(arena);
  for (auto _ : state) {
    Tensor y = head.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel("1152->6 at batch " + std::to_string(n));
}
BENCHMARK(BM_DenseHead)->Arg(1)->Arg(8);

void BM_TrainEpoch(benchmark::State& state) {
  // End-to-end supervised epoch of the frame CNN on a synthetic minibatch
  // stream: gathers, forward, backward, clip, optimizer step.
  engine::FrameCnnConfig cfg;
  nn::Sequential cnn = engine::build_frame_cnn(cfg);
  util::Rng rng(12);
  const int n = 64;
  const Tensor x = Tensor::uniform({n, 1, 48, 48}, 0.5f, rng);
  std::vector<int> labels(n);
  for (auto& y : labels) y = static_cast<int>(rng.uniform_index(6));
  nn::Sgd optimizer(0.03, 0.9, 1e-4);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 32;
  for (auto _ : state) {
    const double loss = nn::train_classifier(cnn, optimizer, x, labels, tc);
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("one epoch, 64 frames, batch 32");
}
BENCHMARK(BM_TrainEpoch);

void BM_DatasetGeneration(benchmark::State& state) {
  core::DatasetConfig cfg;
  cfg.scale = 0.002;
  for (auto _ : state) {
    core::Dataset data = core::generate_dataset(cfg);
    benchmark::DoNotOptimize(data.frames.data());
  }
  state.SetLabel("serial single-stream (seed layout)");
}
BENCHMARK(BM_DatasetGeneration);

void BM_FrameCnnInference(benchmark::State& state) {
  engine::FrameCnnConfig cfg;
  nn::Sequential cnn = engine::build_frame_cnn(cfg);
  util::Rng rng(4);
  const Tensor frame = Tensor::uniform({1, 1, 48, 48}, 0.5f, rng);
  // Serving configuration: a scratch arena scopes the steady-state loop
  // (engine/serve install one per thread), so post-warm-up iterations are
  // heap-free.
  tensor::Arena arena;
  tensor::ArenaScope scope(arena);
  for (auto _ : state) {
    Tensor p = cnn.forward(frame, false);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetLabel(std::string("per-frame latency, kernels=") +
                 tensor::kernels::isa_name(tensor::kernels::active()));
}
BENCHMARK(BM_FrameCnnInference);

void BM_BiLstmWindowInference(benchmark::State& state) {
  nn::Sequential rnn = engine::build_imu_rnn(engine::ImuRnnConfig{});
  util::Rng rng(5);
  const Tensor window =
      Tensor::uniform({1, imu::kWindowSteps, imu::kImuChannels}, 1.0f, rng);
  for (auto _ : state) {
    Tensor p = rnn.forward(window, false);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetLabel("per-window IMU classification latency");
}
BENCHMARK(BM_BiLstmWindowInference);

void BM_SceneRender(benchmark::State& state) {
  util::Rng rng(6);
  vision::RenderConfig cfg;
  int cls = 0;
  for (auto _ : state) {
    vision::Image img = vision::render_driver_scene(
        static_cast<vision::DriverClass>(cls), cfg, rng);
    benchmark::DoNotOptimize(img.pixels().data());
    cls = (cls + 1) % vision::kDriverClassCount;
  }
}
BENCHMARK(BM_SceneRender);

void BM_StoreIngest(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    collection::TimeSeriesStore store;
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      store.append("s", {i * 0.025, {1.0f, 2.0f, 3.0f}, 0});
    }
    benchmark::DoNotOptimize(store.total_tuples());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_StoreIngest);

void BM_BiLstmTrainStep(benchmark::State& state) {
  nn::Sequential rnn = engine::build_imu_rnn(engine::ImuRnnConfig{});
  util::Rng rng(8);
  const Tensor batch =
      Tensor::uniform({8, imu::kWindowSteps, imu::kImuChannels}, 1.0f, rng);
  for (auto _ : state) {
    Tensor out = rnn.forward(batch, true);
    Tensor g = rnn.backward(out);
    benchmark::DoNotOptimize(g.data());
    nn::zero_grads(rnn);
  }
}
BENCHMARK(BM_BiLstmTrainStep);

void BM_ImuTraceGeneration(benchmark::State& state) {
  util::Rng rng(9);
  int o = 0;
  for (auto _ : state) {
    auto trace = darnet::imu::generate_trace(
        static_cast<darnet::imu::PhoneOrientation>(o % 5), {}, rng);
    benchmark::DoNotOptimize(trace.data());
    ++o;
  }
}
BENCHMARK(BM_ImuTraceGeneration);

void BM_DistortionRoundTrip(benchmark::State& state) {
  util::Rng rng(10);
  const vision::Image frame = vision::render_driver_scene(
      vision::DriverClass::kTexting, {}, rng);
  darnet::privacy::DistortionModule module(
      darnet::privacy::DistortionLevel::kMedium);
  for (auto _ : state) {
    const auto tagged = module.process(frame);
    const auto rebuilt = darnet::privacy::reconstruct(tagged, 48);
    benchmark::DoNotOptimize(rebuilt.pixels().data());
  }
}
BENCHMARK(BM_DistortionRoundTrip);

void BM_MessageEncodeDecode(benchmark::State& state) {
  collection::DataBatch batch;
  batch.agent_id = 1;
  for (int i = 0; i < 10; ++i) {
    batch.readings.push_back(
        {"imu.accel", i * 0.025, {1.0f, 2.0f, 3.0f}, 0});
  }
  for (auto _ : state) {
    const auto bytes = collection::encode(batch);
    const auto decoded = collection::decode_batch(bytes);
    benchmark::DoNotOptimize(decoded.readings.size());
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_MessageEncodeDecode);

void BM_BayesianCombine(benchmark::State& state) {
  util::Rng rng(11);
  darnet::bayes::BayesianCombiner combiner(
      darnet::bayes::ClassMap::darnet_default());
  const int n = 64;
  Tensor p_img = tensor::softmax_rows(Tensor::uniform({n, 6}, 2.0f, rng));
  Tensor p_imu = tensor::softmax_rows(Tensor::uniform({n, 3}, 2.0f, rng));
  std::vector<int> labels(n);
  for (auto& y : labels) y = static_cast<int>(rng.uniform_index(6));
  combiner.fit(p_img, p_imu, labels);
  for (auto _ : state) {
    Tensor fused = combiner.combine(p_img, p_imu);
    benchmark::DoNotOptimize(fused.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BayesianCombine);

void BM_StoreAlignedQuery(benchmark::State& state) {
  collection::TimeSeriesStore store;
  util::Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    store.append("a", {i * 0.025, {static_cast<float>(rng.uniform())}, 0});
    store.append("b", {i * 0.025 + 0.003,
                       {static_cast<float>(rng.uniform()), 1.0f}, 0});
  }
  for (auto _ : state) {
    const auto rows = store.aligned({"a", "b"}, 10.0, 90.0, 0.25, 0.2);
    benchmark::DoNotOptimize(rows.size());
  }
}
BENCHMARK(BM_StoreAlignedQuery);

}  // namespace

// Record the pool width alongside the numbers: every ns/op in the JSON
// output is only meaningful relative to the thread count it ran with.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "darnet_threads", std::to_string(darnet::parallel::thread_count()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
