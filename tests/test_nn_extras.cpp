// Tests for the newer nn/vision/imu pieces: BatchNorm (including a
// gradient check), file checkpoints, extended metrics, streaming
// classifier, IMU summary features, and image augmentation.
#include <gtest/gtest.h>

#include <cstdio>

#include "engine/streaming.hpp"
#include "imu/features.hpp"
#include "nn/batchnorm.hpp"
#include "nn/checkpoint.hpp"
#include "nn/dense.hpp"
#include "nn/metrics.hpp"
#include "nn/sequential.hpp"
#include "util/serialize.hpp"
#include "vision/augment.hpp"
#include "vision/renderer.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;
using util::Rng;

// --- BatchNorm -------------------------------------------------------------

TEST(BatchNorm, TrainingOutputIsStandardisedPerChannel) {
  Rng rng(1);
  nn::BatchNorm bn(3);
  Tensor x({16, 3});
  for (int i = 0; i < 16; ++i) {
    x.at(i, 0) = static_cast<float>(rng.gaussian(5.0, 2.0));
    x.at(i, 1) = static_cast<float>(rng.gaussian(-3.0, 0.5));
    x.at(i, 2) = static_cast<float>(rng.gaussian(0.0, 10.0));
  }
  Tensor y = bn.forward(x, /*training=*/true);
  for (int c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (int i = 0; i < 16; ++i) mean += y.at(i, c);
    mean /= 16;
    for (int i = 0; i < 16; ++i) {
      var += (y.at(i, c) - mean) * (y.at(i, c) - mean);
    }
    var /= 16;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStatistics) {
  Rng rng(2);
  nn::BatchNorm bn(2);
  // Train on shifted data so running stats move off their init.
  for (int step = 0; step < 50; ++step) {
    Tensor x({8, 2});
    for (int i = 0; i < 8; ++i) {
      x.at(i, 0) = static_cast<float>(rng.gaussian(4.0, 1.0));
      x.at(i, 1) = static_cast<float>(rng.gaussian(-2.0, 1.0));
    }
    (void)bn.forward(x, true);
  }
  // In eval, an input AT the running mean must map near beta (= 0).
  Tensor probe({1, 2});
  probe.at(0, 0) = 4.0f;
  probe.at(0, 1) = -2.0f;
  Tensor y = bn.forward(probe, /*training=*/false);
  EXPECT_NEAR(y.at(0, 0), 0.0, 0.25);
  EXPECT_NEAR(y.at(0, 1), 0.0, 0.25);
}

TEST(BatchNorm, GradientMatchesFiniteDifference) {
  Rng rng(3);
  nn::BatchNorm bn(2);
  Tensor x = Tensor::uniform({5, 2}, 1.0f, rng);
  Tensor w = Tensor::uniform({5, 2}, 1.0f, rng);  // probe weights

  auto loss = [&](const Tensor& input) {
    Tensor y = bn.forward(input, true);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(w[i]) * y[i];
    }
    return acc;
  };

  (void)bn.forward(x, true);
  nn::zero_grads(bn);
  Tensor grad = bn.backward(w);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (loss(xp) - loss(xm)) / (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 2e-2 * std::max(1.0, std::abs(numeric)))
        << "index " << i;
  }
}

TEST(BatchNorm, HandlesNchwInputs) {
  Rng rng(4);
  nn::BatchNorm bn(3);
  Tensor x = Tensor::uniform({2, 3, 4, 4}, 2.0f, rng);
  Tensor y = bn.forward(x, true);
  EXPECT_TRUE(y.same_shape(x));
  EXPECT_THROW((void)bn.forward(Tensor({2, 5, 4, 4}), true),
               std::invalid_argument);
}

// --- Checkpoint files --------------------------------------------------------

TEST(Checkpoint, FileRoundTripAndValidation) {
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Dense>(4, 3, rng);
  const std::string path = "/tmp/darnet_test_ckpt.bin";
  nn::save_checkpoint(model, path);

  Rng rng2(77);
  nn::Sequential other;
  other.emplace<nn::Dense>(4, 3, rng2);
  nn::load_checkpoint(other, path);
  Tensor x = Tensor::uniform({2, 4}, 1.0f, rng);
  const Tensor ya = model.forward(x, false);
  const Tensor yb = other.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);

  // Corrupt the magic: loading must fail loudly.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);
    std::fclose(f);
  }
  EXPECT_THROW(nn::load_checkpoint(other, path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(nn::load_checkpoint(other, path), std::runtime_error);
}

TEST(Checkpoint, RefusesAnOlderVersion) {
  // Version 1 stored Dense weights as [in, out]. A square Dense passes
  // every shape check, so only the version keeps such a file from
  // loading transposed.
  Rng rng(6);
  nn::Sequential model;
  model.emplace<nn::Dense>(4, 4, rng);
  util::BinaryWriter writer;
  writer.write_u32(0x44724e31);  // "DrN1"
  writer.write_u32(1);
  model.save_params(writer);
  const std::string path = "/tmp/darnet_test_ckpt_v1.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(writer.bytes().data(), 1, writer.size(), f);
    std::fclose(f);
  }
  EXPECT_THROW(nn::load_checkpoint(model, path), std::runtime_error);
  std::remove(path.c_str());
}

// --- Extended metrics --------------------------------------------------------

TEST(MetricsExtra, PrecisionRecallF1) {
  nn::ConfusionMatrix cm(2);
  // Class 0: 3 true, 2 predicted correctly; one 0 predicted as 1.
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 1);
  // Class 1: 2 true, 1 correct, 1 predicted as 0.
  cm.add(1, 1);
  cm.add(1, 0);
  EXPECT_NEAR(cm.class_precision(0), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cm.class_recall(0), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cm.class_f1(0), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cm.class_precision(1), 1.0 / 2.0, 1e-9);
  EXPECT_NEAR(cm.macro_f1(), (2.0 / 3.0 + 0.5) / 2.0, 1e-9);
}

TEST(MetricsExtra, TopKAccuracy) {
  // scores rows: true class ranks 2nd in both samples.
  const std::vector<float> scores{0.5f, 0.3f, 0.2f,   // label 1 -> rank 2
                                  0.1f, 0.2f, 0.7f};  // label 1 -> rank 2
  const std::vector<int> labels{1, 1};
  EXPECT_DOUBLE_EQ(nn::topk_accuracy(scores, 3, labels, 1), 0.0);
  EXPECT_DOUBLE_EQ(nn::topk_accuracy(scores, 3, labels, 2), 1.0);
  EXPECT_DOUBLE_EQ(nn::topk_accuracy(scores, 3, labels, 3), 1.0);
  EXPECT_THROW((void)nn::topk_accuracy(scores, 3, labels, 4),
               std::invalid_argument);
}

// --- Streaming classifier ----------------------------------------------------

struct FixedClassifier final : engine::ProbabilisticClassifier {
  Tensor next{std::vector<int>{1, 6}};
  Tensor probabilities(const Tensor&) override { return next; }
  int num_classes() const override { return 6; }
  std::string describe() const override { return "fixed"; }
};

TEST(Streaming, SmoothsAndDebounces) {
  FixedClassifier cnn;
  engine::EnsembleClassifier ensemble(engine::borrow(cnn), nullptr,
                                      bayes::ClassMap::darnet_default());
  engine::StreamingConfig cfg;
  cfg.smoothing_alpha = 0.5;
  cfg.alert_streak = 2;
  engine::StreamingClassifier stream(engine::borrow(ensemble), cfg);

  const Tensor frame({1, 1, 2, 2});
  const Tensor window({1, 2, 2});

  auto set_class = [&](int c, float conf) {
    cnn.next.fill((1.0f - conf) / 5.0f);
    cnn.next.at(0, c) = conf;
  };

  // Two normal steps: no alert.
  set_class(0, 0.9f);
  EXPECT_FALSE(stream.step(frame, window).alert);
  EXPECT_FALSE(stream.step(frame, window).alert);

  // One distracted blip: the EWMA still favours the accumulated normal
  // mass (0.5*0.9 vs 0.5*0.9 minus the tail), so no flip and no alert --
  // this is the smoothing doing its job.
  set_class(2, 0.9f);
  const auto blip = stream.step(frame, window);
  EXPECT_EQ(blip.predicted, 0);
  EXPECT_FALSE(blip.alert);

  // Sustained distraction: the argmax flips on the next step, and the
  // alert fires once the streak reaches the debounce threshold.
  const auto second = stream.step(frame, window);
  EXPECT_EQ(second.predicted, 2);
  EXPECT_FALSE(second.alert);  // streak 1 < 2
  const auto third = stream.step(frame, window);
  EXPECT_TRUE(third.alert);
  EXPECT_TRUE(third.alert_onset);
  const auto fourth = stream.step(frame, window);
  EXPECT_TRUE(fourth.alert);
  EXPECT_FALSE(fourth.alert_onset);
  EXPECT_EQ(stream.alerts_fired(), 1);

  // Back to normal: streak resets.
  set_class(0, 0.95f);
  (void)stream.step(frame, window);
  const auto calm = stream.step(frame, window);
  EXPECT_FALSE(calm.alert);

  stream.reset();
  EXPECT_EQ(stream.alerts_fired(), 1);  // counters persist; state cleared
}

TEST(Streaming, ValidatesConfig) {
  FixedClassifier cnn;
  engine::EnsembleClassifier ensemble(engine::borrow(cnn), nullptr,
                                      bayes::ClassMap::darnet_default());
  engine::StreamingConfig bad;
  bad.smoothing_alpha = 0.0;
  EXPECT_THROW(engine::StreamingClassifier(engine::borrow(ensemble), bad),
               std::invalid_argument);
}

// --- IMU summary features ------------------------------------------------------

TEST(ImuFeatures, SummaryStatisticsAreCorrectOnKnownSignal) {
  // Channel 0: constant 2 -> mean 2, std 0, diff energy 0, zcr 0.
  // Channel 1: alternating +1/-1 -> mean 0, std 1, zcr high.
  Tensor window({4, imu::kImuChannels});
  for (int t = 0; t < 4; ++t) {
    window.at(t, 0) = 2.0f;
    window.at(t, 1) = (t % 2 == 0) ? 1.0f : -1.0f;
  }
  const Tensor f = imu::summarize_window(window);
  ASSERT_EQ(f.numel(),
            static_cast<std::size_t>(imu::kSummaryFeatureCount));
  EXPECT_FLOAT_EQ(f[0], 2.0f);  // mean ch0
  EXPECT_FLOAT_EQ(f[1], 0.0f);  // std ch0
  EXPECT_FLOAT_EQ(f[2], 2.0f);  // min ch0
  EXPECT_FLOAT_EQ(f[3], 2.0f);  // max ch0
  EXPECT_FLOAT_EQ(f[4], 0.0f);  // diff energy ch0

  const int ch1 = imu::kFeaturesPerChannel;
  EXPECT_NEAR(f[ch1 + 0], 0.0f, 1e-6);  // mean ch1
  EXPECT_NEAR(f[ch1 + 1], 1.0f, 1e-6);  // std ch1
  EXPECT_GT(f[ch1 + 5], 0.5f);          // zero-crossing rate ch1
}

TEST(ImuFeatures, BatchShape) {
  Rng rng(6);
  const std::vector<imu::PhoneOrientation> req{
      imu::PhoneOrientation::kPocket, imu::PhoneOrientation::kTalkingLeft};
  const Tensor windows = imu::generate_windows(req, {}, rng);
  const Tensor feats = imu::summarize_windows(windows);
  EXPECT_EQ(feats.shape(),
            (std::vector<int>{2, imu::kSummaryFeatureCount}));
}

// --- Augmentation ---------------------------------------------------------------

TEST(Augment, PreservesShapeAndRange) {
  Rng rng(7);
  const vision::Image src =
      vision::render_driver_scene(vision::DriverClass::kNormal, {}, rng);
  const vision::Image aug = vision::augment(src, {}, rng);
  EXPECT_EQ(aug.width(), src.width());
  for (float p : aug.pixels()) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(Augment, ZeroConfigIsBrightnessContrastOnly) {
  Rng rng(8);
  vision::AugmentConfig cfg;
  cfg.brightness_delta = 0.0;
  cfg.contrast_delta = 0.0;
  cfg.max_shift_px = 0;
  cfg.hflip_probability = 0.0;
  vision::Image src(4, 4, 0.25f);
  const vision::Image aug = vision::augment(src, cfg, rng);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) EXPECT_FLOAT_EQ(aug.at(x, y), 0.25f);
  }
}

TEST(Augment, ShiftTranslatesContent) {
  Rng rng(9);
  vision::AugmentConfig cfg;
  cfg.brightness_delta = 0.0;
  cfg.contrast_delta = 0.0;
  cfg.max_shift_px = 3;
  vision::Image src(9, 9);
  src.at(4, 4) = 1.0f;  // single bright pixel
  // Over several draws the bright pixel must move but always exist
  // somewhere within the shift radius.
  for (int rep = 0; rep < 10; ++rep) {
    const vision::Image aug = vision::augment(src, cfg, rng);
    int bx = -1, by = -1;
    for (int y = 0; y < 9; ++y) {
      for (int x = 0; x < 9; ++x) {
        if (aug.at(x, y) > 0.9f) {
          bx = x;
          by = y;
        }
      }
    }
    ASSERT_NE(bx, -1);
    EXPECT_LE(std::abs(bx - 4), 3);
    EXPECT_LE(std::abs(by - 4), 3);
  }
}

TEST(Augment, BatchMatchesShape) {
  Rng rng(10);
  Tensor frames = Tensor::uniform({3, 1, 8, 8}, 0.4f, rng);
  for (auto& v : frames.flat()) v += 0.5f;
  const Tensor out = vision::augment_batch(frames, {}, rng);
  EXPECT_TRUE(out.same_shape(frames));
}

}  // namespace
