// Second parameterized property suite: gradient checks swept over layer
// geometries, augmentation invariants, recording equivalences, and SVM
// convergence across problem scales.
#include <gtest/gtest.h>

#include <cmath>

#include "collection/recording.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/lstm.hpp"
#include "nn/sequential.hpp"
#include "svm/svm.hpp"
#include "vision/augment.hpp"
#include "vision/renderer.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;
using util::Rng;

/// Compact finite-difference check reused across the sweeps below.
void check_gradients(nn::Layer& layer, Tensor x, double tol = 3e-2) {
  Rng rng(7);
  Tensor y = layer.forward(x, true);
  const Tensor w = Tensor::uniform(y.shape(), 1.0f, rng);
  auto loss = [&](const Tensor& input) {
    Tensor out = layer.forward(input, true);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i) {
      acc += static_cast<double>(w[i]) * out[i];
    }
    return acc;
  };
  (void)layer.forward(x, true);
  nn::zero_grads(layer);
  const Tensor grad = layer.backward(w);

  const float eps = 2e-3f;
  const std::size_t step = std::max<std::size_t>(1, x.numel() / 24);
  for (std::size_t i = 0; i < x.numel(); i += step) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (loss(xp) - loss(xm)) / (2.0 * eps);
    ASSERT_NEAR(grad[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << "flat index " << i;
  }
}

// --- BiLstm gradients across (T, D, H) geometries ---------------------------

class BiLstmGradientSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BiLstmGradientSweep, InputGradientsMatchFiniteDifference) {
  const auto [steps, dim, hidden] = GetParam();
  Rng rng(static_cast<std::uint64_t>(steps * 100 + dim * 10 + hidden));
  nn::BiLstm lstm(dim, hidden, rng);
  check_gradients(lstm, Tensor::uniform({2, steps, dim}, 0.8f, rng));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BiLstmGradientSweep,
    ::testing::Values(std::tuple{1, 2, 2}, std::tuple{3, 4, 2},
                      std::tuple{7, 2, 5}, std::tuple{5, 5, 3}));

// --- Conv2D gradients across kernel/padding ---------------------------------

class ConvGradientSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConvGradientSweep, InputGradientsMatchFiniteDifference) {
  const auto [kernel, pad] = GetParam();
  Rng rng(static_cast<std::uint64_t>(kernel * 10 + pad));
  nn::Conv2D conv(2, 3, kernel, pad, rng);
  check_gradients(conv, Tensor::uniform({1, 2, 7, 7}, 1.0f, rng));
}

INSTANTIATE_TEST_SUITE_P(Kernels, ConvGradientSweep,
                         ::testing::Values(std::tuple{1, 0}, std::tuple{3, 1},
                                           std::tuple{5, 2},
                                           std::tuple{3, 0}));

// --- BatchNorm across feature counts and ranks ------------------------------

class BatchNormSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatchNormSweep, GradientsAndNormalisation) {
  const int features = GetParam();
  Rng rng(static_cast<std::uint64_t>(features));
  nn::BatchNorm bn(features);
  check_gradients(bn, Tensor::uniform({6, features}, 2.0f, rng));
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchNormSweep, ::testing::Values(1, 3, 8));

// --- Augmentation invariants over configs ------------------------------------

class AugmentSweep
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(AugmentSweep, OutputStaysInRangeAndShape) {
  const auto [brightness, contrast, shift] = GetParam();
  vision::AugmentConfig cfg;
  cfg.brightness_delta = brightness;
  cfg.contrast_delta = contrast;
  cfg.max_shift_px = shift;
  Rng rng(11);
  const vision::Image src =
      vision::render_driver_scene(vision::DriverClass::kEating, {}, rng);
  for (int rep = 0; rep < 5; ++rep) {
    const vision::Image out = vision::augment(src, cfg, rng);
    ASSERT_EQ(out.width(), src.width());
    ASSERT_EQ(out.height(), src.height());
    for (float p : out.pixels()) {
      ASSERT_GE(p, 0.0f);
      ASSERT_LE(p, 1.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AugmentSweep,
    ::testing::Values(std::tuple{0.0, 0.0, 0}, std::tuple{0.3, 0.0, 0},
                      std::tuple{0.0, 0.4, 0}, std::tuple{0.0, 0.0, 4},
                      std::tuple{0.2, 0.2, 2}));

// --- Recording: drain and replay deliver identical store contents ------------

TEST(RecordingProperty, DrainAndReplayProduceIdenticalStores) {
  collection::SessionRecording rec;
  Rng rng(13);
  double t = 0.0;
  rec.append(t, collection::encode(collection::RegisterMessage{1, {"s"}}));
  for (int i = 0; i < 40; ++i) {
    t += rng.uniform(0.01, 0.2);
    collection::DataBatch batch;
    batch.agent_id = 1;
    batch.readings.push_back(
        {"s", t, {static_cast<float>(rng.gaussian())}, 0});
    rec.append(t, collection::encode(batch));
  }

  sim::Simulation sim_a;
  collection::Controller drained(sim_a, {});
  rec.drain_into(drained);

  sim::Simulation sim_b;
  collection::Controller replayed(sim_b, {});
  rec.replay_into(sim_b, replayed);
  sim_b.run_until(t + 1.0);

  ASSERT_EQ(drained.tuples_received(), replayed.tuples_received());
  const auto& sa = drained.store().series("s");
  const auto& sb = replayed.store().series("s");
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].timestamp, sb[i].timestamp);
    ASSERT_EQ(sa[i].values, sb[i].values);
  }
}

// --- SVM convergence across class counts and dimensionality ------------------

class SvmSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SvmSweep, SeparatesWellSeparatedGaussians) {
  const auto [classes, dim] = GetParam();
  Rng rng(static_cast<std::uint64_t>(classes * 31 + dim));
  const int per_class = 40;
  Tensor x({classes * per_class, dim});
  std::vector<int> y;
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < per_class; ++i) {
      const int row = c * per_class + i;
      for (int d = 0; d < dim; ++d) {
        const double center = (d == c % dim) ? 6.0 * (1 + c / dim) : 0.0;
        x.at(row, d) = static_cast<float>(rng.gaussian(center, 0.5));
      }
      y.push_back(c);
    }
  }
  svm::LinearSvm model(dim, classes);
  model.fit(x, y);
  const auto preds = model.predict(x);
  int correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(preds.size()), 0.95)
      << classes << " classes, " << dim << " dims";
}

INSTANTIATE_TEST_SUITE_P(Problems, SvmSweep,
                         ::testing::Values(std::tuple{2, 2}, std::tuple{3, 4},
                                           std::tuple{4, 8},
                                           std::tuple{6, 6}));

}  // namespace
